let[@inline] exponential rng lambda =
  if lambda <= 0. then invalid_arg "Dist.exponential: lambda <= 0";
  (* Inversion; 1 - u avoids log 0. *)
  -.log (1. -. Prng.unit_float rng) /. lambda

let log_factorial_table =
  lazy
    (let t = Array.make 256 0. in
     for k = 2 to 255 do
       t.(k) <- t.(k - 1) +. log (float_of_int k)
     done;
     t)

let log_factorial k =
  if k < 0 then invalid_arg "Dist.log_factorial: negative argument";
  if k < 256 then (Lazy.force log_factorial_table).(k)
  else
    (* Stirling series with the 1/12k correction: accurate to ~1e-8 here. *)
    let n = float_of_int k in
    ((n +. 0.5) *. log n) -. n
    +. (0.5 *. log (2. *. Float.pi))
    +. (1. /. (12. *. n))
    -. (1. /. (360. *. n *. n *. n))

let poisson_pmf mean k =
  if mean < 0. || k < 0 then 0.
  else if mean = 0. then if k = 0 then 1. else 0.
  else exp ((float_of_int k *. log mean) -. mean -. log_factorial k)
