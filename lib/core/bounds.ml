module Dist = Churnet_util.Dist

let isolated_lower_sdg ~d = exp (-2. *. float_of_int d) /. 6.
let isolated_lower_pdg ~d = exp (-2. *. float_of_int d) /. 18.
let coverage_target_sdg ~d = 1. -. exp (-.(float_of_int d /. 10.))
let onion_success_lower ~d = Float.max 0. (1. -. (4. *. exp (-.(float_of_int d /. 100.))))

let edge_prob_older_sdgr ~n ~age =
  let fn = float_of_int n in
  1. /. (fn -. 1.) *. ((1. +. (1. /. (fn -. 1.))) ** float_of_int (max 0 (age - 1)))

let edge_prob_older_pdgr_bound ~n ~age_rounds =
  let fn = float_of_int n in
  1. /. (0.8 *. fn) *. (1. +. (float_of_int age_rounds /. (1.7 *. fn)))

let claim_3_11_product ~d =
  let fd = float_of_int d in
  (* log c = sum_i log(1 - e^{-a_i d/100}); terms go doubly-exponentially
     to 0, so a few dozen suffice. *)
  let log_c = ref 0. in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let a_i = (fd /. 20.) ** float_of_int !i in
    let x = exp (-.(a_i *. fd /. 100.)) in
    if x >= 1. then begin
      (* degenerate (tiny d): the factor is <= 0, the product collapses *)
      log_c := neg_infinity;
      continue := false
    end
    else begin
      let term = log1p (-.x) in
      log_c := !log_c +. term;
      if Float.abs term < 1e-16 || !i > 10_000 then continue := false;
      incr i
    end
  done;
  exp !log_c

let log_binomial n k =
  if k < 0 || k > n then neg_infinity
  else Dist.log_factorial n -. Dist.log_factorial k -. Dist.log_factorial (n - k)

(* Log-space summation: log(sum exp(l_i)) with the usual max trick. *)
let log_sum_exp terms =
  match terms with
  | [] -> neg_infinity
  | _ ->
      let m = List.fold_left Float.max neg_infinity terms in
      if m = neg_infinity then neg_infinity
      else m +. log (List.fold_left (fun acc l -> acc +. exp (l -. m)) 0. terms)

(* Shared driver: sum_{s in range} C(n,s) C(n-s, floor(0.1 s)) * exp(per_set_log s). *)
let union_bound ~n ~s_lo ~s_hi ~per_set_log =
  let terms = ref [] in
  for s = max 1 s_lo to s_hi do
    let t = int_of_float (0.1 *. float_of_int s) in
    let l = log_binomial n s +. log_binomial (n - s) t +. per_set_log s in
    terms := l :: !terms
  done;
  exp (log_sum_exp !terms)

let union_bound_static ~n ~d =
  let fn = float_of_int n in
  union_bound ~n ~s_lo:1 ~s_hi:(n / 2) ~per_set_log:(fun s ->
      let fs = float_of_int s in
      float_of_int (d * s) *. log (1.1 *. fs /. (fn -. 1.)))

let union_bound_sdgr_small ~n ~d =
  let fn = float_of_int n in
  union_bound ~n ~s_lo:1 ~s_hi:(n / 4) ~per_set_log:(fun s ->
      let fs = float_of_int s in
      float_of_int (d * s) *. log (1.1 *. fs *. Float.exp 1. /. (fn -. 1.)))

let union_bound_sdg_large ~n ~d =
  let fn = float_of_int n and fd = float_of_int d in
  let s_lo = int_of_float (fn *. exp (-.fd /. 10.)) in
  union_bound ~n ~s_lo ~s_hi:(n / 2) ~per_set_log:(fun s ->
      let fs = float_of_int s in
      -.(fd *. fs *. (fn -. (1.1 *. fs)) /. (2. *. fn)))

let qm_total_mass ~n ~k ~d =
  let fn = float_of_int n and fk = float_of_int k and fd = float_of_int d in
  let l = int_of_float (7. *. log fn) in
  let total = ref 0. in
  for m = 1 to l do
    let fm = float_of_int m in
    let base = 10. /. 9. *. (0.6 *. fn *. fn /. (fk *. fk)) *. exp (-0.4 *. fm) in
    let cut = Float.min 1. ((1.1 *. fk *. ((0.6 *. fm) +. 1.) /. (0.8 *. fn)) ** fd) in
    total := !total +. (base *. cut)
  done;
  !total
