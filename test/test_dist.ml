open Churnet_util

let check_bool = Alcotest.(check bool)
let close ?(eps = 1e-9) msg a b = check_bool msg true (Float.abs (a -. b) < eps)

let sample_stats f count =
  let acc = Stats.Acc.create () in
  for _ = 1 to count do
    Stats.Acc.add acc (f ())
  done;
  acc

let test_exponential_mean () =
  let rng = Prng.create 101 in
  let acc = sample_stats (fun () -> Dist.exponential rng 2.0) 100_000 in
  check_bool "mean near 1/2" true (Float.abs (Stats.Acc.mean acc -. 0.5) < 0.01)

let test_exponential_positive () =
  let rng = Prng.create 103 in
  for _ = 1 to 10_000 do
    check_bool "positive" true (Dist.exponential rng 0.3 >= 0.)
  done

let test_exponential_memoryless_tail () =
  (* P(X > 1) should be e^{-lambda}. *)
  let rng = Prng.create 107 in
  let lambda = 1.5 in
  let hits = ref 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    if Dist.exponential rng lambda > 1.0 then incr hits
  done;
  let frac = float_of_int !hits /. float_of_int trials in
  check_bool "tail matches" true (Float.abs (frac -. exp (-.lambda)) < 0.01)

let test_exponential_invalid () =
  let rng = Prng.create 109 in
  Alcotest.check_raises "lambda <= 0" (Invalid_argument "Dist.exponential: lambda <= 0")
    (fun () -> ignore (Dist.exponential rng 0.))

let test_poisson_pmf_sums_to_one () =
  let total = ref 0. in
  for k = 0 to 60 do
    total := !total +. Dist.poisson_pmf 5.0 k
  done;
  close ~eps:1e-9 "pmf sums to 1" 1.0 !total

let test_poisson_pmf_known_value () =
  (* P(X=0 | mean=2) = e^-2 *)
  close ~eps:1e-12 "pmf(2,0)" (exp (-2.)) (Dist.poisson_pmf 2.0 0)

let test_log_factorial_small () =
  close ~eps:1e-12 "0!" 0. (Dist.log_factorial 0);
  close ~eps:1e-12 "1!" 0. (Dist.log_factorial 1);
  close ~eps:1e-9 "5!" (log 120.) (Dist.log_factorial 5);
  close ~eps:1e-6 "20!" (log 2.43290200817664e18) (Dist.log_factorial 20)

let test_log_factorial_stirling_consistency () =
  (* The table path at 255 and the Stirling path at 256 must agree through
     the recurrence ln(256!) = ln(255!) + ln 256. *)
  let lhs = Dist.log_factorial 256 in
  let rhs = Dist.log_factorial 255 +. log 256. in
  close ~eps:1e-6 "table/Stirling junction" lhs rhs

let suite =
  [
    ("exponential mean", `Quick, test_exponential_mean);
    ("exponential positive", `Quick, test_exponential_positive);
    ("exponential tail", `Quick, test_exponential_memoryless_tail);
    ("exponential invalid", `Quick, test_exponential_invalid);
    ("poisson pmf sums", `Quick, test_poisson_pmf_sums_to_one);
    ("poisson pmf known", `Quick, test_poisson_pmf_known_value);
    ("log factorial small", `Quick, test_log_factorial_small);
    ("log factorial junction", `Quick, test_log_factorial_stirling_consistency);
  ]
