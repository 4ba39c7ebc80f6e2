open Churnet_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let equal = ref true in
  for _ = 1 to 10 do
    if Prng.bits64 a <> Prng.bits64 b then equal := false
  done;
  check_bool "different seeds differ" false !equal

let test_copy_preserves_stream () =
  let a = Prng.create 7 in
  ignore (Prng.bits64 a);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check int64) "copy equals original" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_split_independence () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check_bool "split streams differ" true (!same < 2)

let test_int_range () =
  let rng = Prng.create 3 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_int_bound_one () =
  let rng = Prng.create 3 in
  for _ = 1 to 100 do
    check_int "bound 1 gives 0" 0 (Prng.int rng 1)
  done

let test_int_invalid () =
  let rng = Prng.create 3 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0))

let test_unit_float_range () =
  let rng = Prng.create 11 in
  for _ = 1 to 10_000 do
    let x = Prng.unit_float rng in
    check_bool "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_uniform_mean () =
  let rng = Prng.create 13 in
  let acc = Stats.Acc.create () in
  for _ = 1 to 50_000 do
    Stats.Acc.add acc (Prng.unit_float rng)
  done;
  check_bool "mean near 0.5" true (Float.abs (Stats.Acc.mean acc -. 0.5) < 0.01)

let test_int_uniformity_chi_square () =
  let rng = Prng.create 17 in
  let k = 10 in
  let counts = Array.make k 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Prng.int rng k in
    counts.(v) <- counts.(v) + 1
  done;
  let chi = Stats.chi_square_uniform counts in
  (* 9 degrees of freedom: p=0.001 critical value is 27.9. *)
  check_bool "chi-square sane" true (chi < 27.9)

let test_bernoulli_extremes () =
  let rng = Prng.create 23 in
  for _ = 1 to 100 do
    check_bool "p=0 never" false (Prng.bernoulli rng 0.);
    check_bool "p=1 always" true (Prng.bernoulli rng 1.0)
  done

let test_bernoulli_rate () =
  let rng = Prng.create 29 in
  let hits = ref 0 in
  for _ = 1 to 50_000 do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  let frac = float_of_int !hits /. 50_000. in
  check_bool "rate near 0.3" true (Float.abs (frac -. 0.3) < 0.01)

let test_swr_distinct () =
  let rng = Prng.create 41 in
  for _ = 1 to 50 do
    let sample = Prng.sample_without_replacement rng 20 100 in
    check_int "k elements" 20 (Array.length sample);
    let sorted = Array.copy sample in
    Array.sort Int.compare sorted;
    for i = 1 to 19 do
      check_bool "distinct" true (sorted.(i) <> sorted.(i - 1))
    done;
    Array.iter (fun v -> check_bool "in range" true (v >= 0 && v < 100)) sample
  done

let test_swr_full () =
  let rng = Prng.create 43 in
  let sample = Prng.sample_without_replacement rng 10 10 in
  let sorted = Array.copy sample in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "all of 0..9" (Array.init 10 Fun.id) sorted

let test_swr_dense_and_sparse_paths () =
  let rng = Prng.create 47 in
  (* dense path: k*3 >= n *)
  let dense = Prng.sample_without_replacement rng 40 100 in
  check_int "dense size" 40 (Array.length dense);
  (* sparse path: k*3 < n *)
  let sparse = Prng.sample_without_replacement rng 5 1000 in
  check_int "sparse size" 5 (Array.length sparse)

let test_choose () =
  let rng = Prng.create 53 in
  let a = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Prng.choose rng a in
    check_bool "member" true (Array.mem v a)
  done

(* Known answers: outputs of the xoshiro256** stream as first emitted by
   the generator, pinned as literals so that any change to how the state
   is stored or stepped must reproduce the exact stream, not merely a
   self-consistent one. *)
let test_known_bits64 () =
  let expect seed outputs =
    let g = Prng.create seed in
    List.iteri
      (fun i x ->
        Alcotest.(check int64) (Printf.sprintf "seed %d draw %d" seed i) x (Prng.bits64 g))
      outputs
  in
  expect 0
    [
      -7355399402456485196L; -4652746763540216534L; 1900383378846508768L;
      7684712102626143532L; -4925340083591827879L; -4640532413560118L;
      7788427924976520344L; -8565655843838424513L;
    ];
  expect 42
    [
      1546998764402558742L; 6990951692964543102L; -5902157311460992607L;
      -1389169964527427423L; -151191095644234140L; -4247557243643801032L;
      -5178765164775350862L; -2766855848391737209L;
    ]

let test_known_int_and_float () =
  let g = Prng.create 7 in
  List.iter2
    (fun bound x -> check_int (Printf.sprintf "int %d" bound) x (Prng.int g bound))
    [ 1; 2; 3; 10; 1000; 1_000_003; max_int; 1 lsl 61 ]
    [ 0; 0; 1; 6; 166; 839782; 280169515587409429; 481625069074503799 ];
  List.iteri
    (fun i x -> Alcotest.(check (float 0.)) (Printf.sprintf "unit_float %d" i) x (Prng.unit_float g))
    [
      0x1.9d653e5b2b22p-2; 0x1.36eb5d000c7p-3; 0x1.152e2245ac3ecp-1;
      0x1.76b61e7123e53p-1; 0x1.e0c019551aeb1p-1; 0x1.c2fedefd1598fp-1;
      0x1.ce40f4150367p-2; 0x1.1f2b8c2203096p-1;
    ]

let hex_of_encoding g =
  let w = Codec.writer () in
  Prng.encode w g;
  String.concat ""
    (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq (Codec.contents w))))

let test_known_split_encoding () =
  let parent = Prng.create 42 in
  let child = Prng.split parent in
  Alcotest.(check string) "parent after split"
    "027cc793ea3024cdc400828e42b66ad2c7f1e2debc31e23c859759601eee5282" (hex_of_encoding parent);
  Alcotest.(check string) "split child"
    "21fb1c6975f3fc1280a1304280ba11fe9283b708a4fc4801547ff5c9edba9902" (hex_of_encoding child)

let qcheck_props =
  [
    QCheck.Test.make ~name:"int always in bound" ~count:500
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let rng = Prng.create seed in
        let v = Prng.int rng bound in
        v >= 0 && v < bound);
    QCheck.Test.make ~name:"sample_without_replacement distinct" ~count:200
      QCheck.(pair small_int (int_range 1 50))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let k = 1 + (seed mod n) in
        let s = Prng.sample_without_replacement rng k n in
        let sorted = Array.copy s in
        Array.sort Int.compare sorted;
        let distinct = ref true in
        for i = 1 to k - 1 do
          if sorted.(i) = sorted.(i - 1) then distinct := false
        done;
        !distinct && Array.length s = k);
  ]

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("different seeds", `Quick, test_different_seeds);
    ("copy preserves stream", `Quick, test_copy_preserves_stream);
    ("split independence", `Quick, test_split_independence);
    ("int range", `Quick, test_int_range);
    ("int bound one", `Quick, test_int_bound_one);
    ("int invalid bound", `Quick, test_int_invalid);
    ("unit_float range", `Quick, test_unit_float_range);
    ("uniform mean", `Quick, test_uniform_mean);
    ("chi-square uniformity", `Quick, test_int_uniformity_chi_square);
    ("bernoulli extremes", `Quick, test_bernoulli_extremes);
    ("bernoulli rate", `Quick, test_bernoulli_rate);
    ("sample w/o replacement distinct", `Quick, test_swr_distinct);
    ("sample w/o replacement full", `Quick, test_swr_full);
    ("sample paths", `Quick, test_swr_dense_and_sparse_paths);
    ("choose membership", `Quick, test_choose);
    ("known bits64 stream", `Quick, test_known_bits64);
    ("known int and unit_float", `Quick, test_known_int_and_float);
    ("known split encoding", `Quick, test_known_split_encoding);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
