(* Tests for Bounds: the paper's closed-form bounds and the numeric
   verification of its calculus steps. *)
open Churnet_core
module Bounds = Churnet_core.Bounds

let check_bool = Alcotest.(check bool)
let close ?(eps = 1e-9) msg a b = check_bool msg true (Float.abs (a -. b) < eps)

let test_headline_formulas () =
  close "sdg isolated" (exp (-6.) /. 6.) (Bounds.isolated_lower_sdg ~d:3);
  close "pdg isolated" (exp (-6.) /. 18.) (Bounds.isolated_lower_pdg ~d:3);
  close "sdg coverage" (1. -. exp (-1.)) (Bounds.coverage_target_sdg ~d:10);
  close "onion bound clamps" 0. (Bounds.onion_success_lower ~d:10)

let test_bounds_match_isolated_module () =
  close "sdg agrees" (Isolated.paper_bound_sdg ~n:500 ~d:4) (500. *. Bounds.isolated_lower_sdg ~d:4);
  close "pdg agrees" (Isolated.paper_bound_pdg ~n:500 ~d:4) (500. *. Bounds.isolated_lower_pdg ~d:4)

let test_edge_prob_formulas () =
  (* age 1 (k = 0): exactly 1/(n-1). *)
  close "age-1 edge prob" (1. /. 999.) (Bounds.edge_prob_older_sdgr ~n:1000 ~age:1);
  (* age n: about e/(n-1). *)
  let v = Bounds.edge_prob_older_sdgr ~n:1000 ~age:1000 in
  check_bool "age-n approx e/(n-1)" true
    (Float.abs (v -. (Float.exp 1. /. 999.)) < 0.0002);
  close "pdgr bound at age 0" (1. /. 800.) (Bounds.edge_prob_older_pdgr_bound ~n:1000 ~age_rounds:0)

let test_claim_3_11 () =
  (* The paper asserts product >= 1 - 4e^{-d/100} for d >= 200. *)
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "claim 3.11 at d=%d" d)
        true
        (Bounds.claim_3_11_product ~d >= Bounds.onion_success_lower ~d))
    [ 200; 250; 400; 800 ];
  (* Monotone in d. *)
  check_bool "monotone" true
    (Bounds.claim_3_11_product ~d:400 > Bounds.claim_3_11_product ~d:200);
  (* Tiny d collapses the product. *)
  check_bool "tiny d collapses" true (Bounds.claim_3_11_product ~d:10 < 0.5)

let test_log_binomial () =
  close ~eps:1e-9 "C(5,2)" (log 10.) (Bounds.log_binomial 5 2);
  close ~eps:1e-9 "C(n,0)" 0. (Bounds.log_binomial 7 0);
  close ~eps:1e-9 "C(n,n)" 0. (Bounds.log_binomial 7 7);
  check_bool "out of range" true (Bounds.log_binomial 5 6 = neg_infinity);
  (* symmetry *)
  close ~eps:1e-6 "symmetry" (Bounds.log_binomial 100 30) (Bounds.log_binomial 100 70)

let test_union_bound_static () =
  (* Lemma B.1: <= n^{-(d-2)} for d >= 3; diverges for d = 2. *)
  let n = 1000 in
  List.iter
    (fun d ->
      let v = Bounds.union_bound_static ~n ~d in
      check_bool
        (Printf.sprintf "static bound d=%d" d)
        true
        (v <= float_of_int n ** float_of_int (-(d - 2))))
    [ 3; 4; 5 ];
  check_bool "d=2 diverges" true (Bounds.union_bound_static ~n ~d:2 > 1.)

let test_union_bound_sdgr_small () =
  let n = 1000 in
  check_bool "d=21 below 1/n^4" true
    (Bounds.union_bound_sdgr_small ~n ~d:21 <= float_of_int n ** -4.);
  (* Larger d only helps. *)
  check_bool "monotone in d" true
    (Bounds.union_bound_sdgr_small ~n ~d:30 <= Bounds.union_bound_sdgr_small ~n ~d:21)

let test_union_bound_sdg_large () =
  let n = 1000 in
  check_bool "d=20 below 1/n^4" true
    (Bounds.union_bound_sdg_large ~n ~d:20 <= float_of_int n ** -4.)

let test_qm_total_mass () =
  let n = 10000 in
  (* d >= 30, k <= n/14: mass <= 1 (the paper's requirement). *)
  List.iter
    (fun (k, d) ->
      check_bool
        (Printf.sprintf "qm mass k=%d d=%d" k d)
        true
        (Bounds.qm_total_mass ~n ~k ~d <= 1.))
    [ (n / 14, 30); (n / 14, 40); (n / 20, 30); (n / 100, 30) ];
  (* The bound is tight at the boundary: at k = n/14, d = 30 the mass is
     close to 1 (paper computes ~ 1), confirming the constants matter. *)
  let boundary = Bounds.qm_total_mass ~n ~k:(n / 14) ~d:30 in
  check_bool "boundary mass near 1" true (boundary > 0.5 && boundary <= 1.)

let suite =
  [
    ("headline formulas", `Quick, test_headline_formulas);
    ("matches Isolated module", `Quick, test_bounds_match_isolated_module);
    ("edge prob formulas", `Quick, test_edge_prob_formulas);
    ("claim 3.11 product", `Quick, test_claim_3_11);
    ("log binomial", `Quick, test_log_binomial);
    ("union bound static (Lemma B.1)", `Quick, test_union_bound_static);
    ("union bound SDGR small (Lemma 6.4)", `Quick, test_union_bound_sdgr_small);
    ("union bound SDG large (Lemma 3.6)", `Quick, test_union_bound_sdg_large);
    ("q_m total mass (Section 4.3.1)", `Quick, test_qm_total_mass);
  ]
