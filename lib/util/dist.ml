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

let poisson rng mean =
  if mean < 0. then invalid_arg "Dist.poisson: negative mean";
  if mean = 0. then 0
  else begin
    (* Knuth (multiply uniforms until below e^-m) is only safe while
       e^-m stays comfortably above the subnormal range: the running
       product underflows to 0. before crossing e^-m once m is large
       (observable from m/2 ≈ 700 upward), silently capping the
       variate.  e^-30 ≈ 9.4e-14, so 30-sized stages keep every stage
       exact; Poisson additivity makes the chunked sum exact too. *)
    let knuth m =
      let l = exp (-.m) in
      let rec go k p =
        let p = p *. Prng.unit_float rng in
        if p <= l then k else go (k + 1) p
      in
      go 0 1.
    in
    if mean < 30. then knuth mean
    else begin
      let acc = ref 0 in
      let rest = ref mean in
      while !rest > 30. do
        acc := !acc + knuth 30.;
        rest := !rest -. 30.
      done;
      !acc + knuth !rest
    end
  end

let std_normal rng =
  let u1 = 1. -. Prng.unit_float rng in
  let u2 = Prng.unit_float rng in
  sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2)

let exponential_pdf lambda x = if x < 0. then 0. else lambda *. exp (-.lambda *. x)
