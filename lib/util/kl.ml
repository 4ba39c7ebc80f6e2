let check_lengths p q =
  if Array.length p <> Array.length q then invalid_arg "Kl: length mismatch"

let kl_divergence p q =
  check_lengths p q;
  let acc = ref 0. in
  Array.iteri
    (fun i pi ->
      if pi > 0. then
        if q.(i) <= 0. then acc := infinity
        else acc := !acc +. (pi *. log (pi /. q.(i))))
    p;
  !acc

let normalize v =
  let total = Array.fold_left ( +. ) 0. v in
  if total <= 0. then invalid_arg "Kl.normalize: non-positive total mass";
  Array.map (fun x -> x /. total) v

let of_counts counts = normalize (Array.map float_of_int counts)

let total_variation p q =
  check_lengths p q;
  let acc = ref 0. in
  Array.iteri (fun i pi -> acc := !acc +. Float.abs (pi -. q.(i))) p;
  !acc /. 2.
