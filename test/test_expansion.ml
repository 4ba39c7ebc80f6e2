open Churnet_expansion
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let close ?(eps = 1e-9) msg a b = check_bool msg true (Float.abs (a -. b) < eps)

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Snapshot.of_edges ~n !edges

let cycle n = Snapshot.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))
let star n = Snapshot.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))
let path n = Snapshot.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

(* --- Exact --- *)

let test_exact_clique () =
  (* K6: any S with |S| = 3 has boundary 3, ratio 1; smaller S even
     higher.  h_out = 1. *)
  close "clique h_out" 1.0 (Exact.h_out (clique 6))

let test_exact_cycle () =
  (* C8: worst set is a half-arc of 4 nodes: boundary 2, ratio 0.5. *)
  close "cycle h_out" 0.5 (Exact.h_out (cycle 8))

let test_exact_path () =
  (* P8: prefix of 4 has boundary 1 -> 0.25. *)
  close "path h_out" 0.25 (Exact.h_out (path 8))

let test_exact_star () =
  (* Star on 9: leaves-only sets of size 4 have boundary {center}: 0.25. *)
  close "star h_out" 0.25 (Exact.h_out (star 9))

let test_exact_disconnected () =
  let s = Snapshot.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  close "disconnected h_out = 0" 0. (Exact.h_out s)

let test_exact_isolated_vertex () =
  let s = Snapshot.of_edges ~n:5 [ (0, 1); (1, 2); (2, 3) ] in
  close "isolated vertex gives 0" 0. (Exact.h_out s)

let test_exact_witness () =
  let s = Snapshot.of_edges ~n:6 [ (0, 1); (1, 2); (3, 4); (4, 5) ] in
  let h, witness = Exact.h_out_with_witness s in
  close "witness ratio" h
    (let set = Churnet_util.Bitset.create (Snapshot.n s) in
     List.iter (Churnet_util.Bitset.add set) witness;
     Snapshot.expansion s set);
  check_bool "witness size <= n/2" true (List.length witness <= 3)

let test_exact_too_large () =
  check_bool "raises" true
    (try
       ignore (Exact.h_out (cycle 30));
       false
     with Invalid_argument _ -> true)

let test_is_expander () =
  check_bool "clique is 0.9-expander" true (Exact.h_out (clique 6) > 0.9);
  check_bool "path is not 0.3-expander" false (Exact.h_out (path 8) > 0.3)

(* --- Probe --- *)

let test_probe_finds_isolated () =
  let s = Snapshot.of_edges ~n:10 [ (0, 1); (1, 2); (2, 3); (4, 5); (5, 6) ] in
  let r = Probe.probe ~rng:(Prng.create 1) s in
  close "finds a zero-expansion set" 0. r.min_expansion

let test_probe_on_clique () =
  let r = Probe.probe ~rng:(Prng.create 2) (clique 12) in
  close "clique min expansion is 1" 1.0 r.min_expansion

let test_probe_respects_size_range () =
  (* On a graph with one isolated vertex, restricting min_size above 1
     (and above the small component count) hides the zero. *)
  let edges = (10, 11) :: List.init 9 (fun i -> (i, i + 1)) in
  let s = Snapshot.of_edges ~n:12 edges in
  let r = Probe.probe ~rng:(Prng.create 3) ~min_size:5 s in
  check_bool "no zero found above min_size" true (r.min_expansion > 0.)

let test_probe_matches_exact_on_small_graphs () =
  (* The probe is an upper bound on h_out and on small structured graphs
     it should actually attain it. *)
  List.iter
    (fun snap ->
      let exact = Exact.h_out snap in
      let probed = (Probe.probe ~rng:(Prng.create 5) snap).min_expansion in
      check_bool "probe >= exact (upper bound)" true (probed >= exact -. 1e-9);
      check_bool "probe close to exact here" true (probed <= exact +. 0.51))
    [ cycle 12; path 12; star 13; clique 8 ]

let test_probe_reports_families () =
  let r = Probe.probe ~rng:(Prng.create 7) (cycle 20) in
  check_bool "tested candidates" true (r.candidates_tested > 10);
  check_bool "families recorded" true (List.length r.per_family >= 3);
  check_bool "witness has family name" true (String.length r.witness.family > 0)

let test_expansion_profile () =
  let profile = Probe.expansion_profile ~rng:(Prng.create 9) (cycle 40) ~sizes:[| 2; 5; 10 |] in
  check_int "3 sizes" 3 (Array.length profile);
  Array.iter
    (fun (s, e) ->
      check_bool "size echoed" true (s = 2 || s = 5 || s = 10);
      check_bool "expansion positive on cycle" true (e > 0.))
    profile

(* --- Spectral --- *)

let test_spectral_clique_gap () =
  let r = Spectral.analyze (clique 20) in
  (* Lazy walk on K_n: lambda2 = 1/2 + (lambda2(walk))/2 where walk
     lambda2 = -1/(n-1); so close to 0.47.  Large gap regardless. *)
  check_bool "large gap" true (r.spectral_gap > 0.4);
  check_int "whole graph" 20 r.component_size

let test_spectral_path_small_gap () =
  let r = Spectral.analyze (path 60) in
  check_bool "tiny gap on a path" true (r.spectral_gap < 0.05);
  check_bool "sweep finds a bad cut" true (r.sweep_conductance < 0.1)

let test_spectral_sweep_on_dumbbell () =
  (* Two cliques joined by one edge: sweep must find conductance ~ 1/k². *)
  let k = 8 in
  let edges = ref [ (0, k) ] in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      edges := (i, j) :: !edges;
      edges := (k + i, k + j) :: !edges
    done
  done;
  let s = Snapshot.of_edges ~n:(2 * k) !edges in
  let r = Spectral.analyze s in
  check_bool "dumbbell cut found" true (r.sweep_conductance < 0.08);
  check_bool "half split" true (abs (r.sweep_set_size - k) <= 1)

let test_spectral_sweep_sets_usable () =
  let sets = Spectral.sweep_sets (cycle 30) in
  check_bool "non-empty" true (List.length sets > 0);
  List.iter
    (fun set ->
      check_bool "set size <= n/2" true (Array.length set <= 15);
      Array.iter (fun v -> check_bool "valid index" true (v >= 0 && v < 30)) set)
    sets

let test_spectral_tiny_graph () =
  let r = Spectral.analyze (Snapshot.of_edges ~n:1 []) in
  check_int "degenerate" 1 r.component_size

(* --- Cross-validation: probe against exact on random graphs --- *)

let qcheck_props =
  [
    QCheck.Test.make ~name:"probe upper-bounds exact h_out" ~count:25
      QCheck.(int_range 0 10_000)
      (fun seed ->
        let rng = Prng.create seed in
        let n = 8 + Prng.int rng 8 in
        (* random graph with ~2n edges *)
        let edges = ref [] in
        for _ = 1 to 2 * n do
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v then edges := (u, v) :: !edges
        done;
        let snap = Snapshot.of_edges ~n !edges in
        let exact = Exact.h_out snap in
        let probed = (Probe.probe ~rng ~samples_per_size:12 snap).min_expansion in
        probed >= exact -. 1e-9);
  ]

let suite =
  [
    ("exact clique", `Quick, test_exact_clique);
    ("exact cycle", `Quick, test_exact_cycle);
    ("exact path", `Quick, test_exact_path);
    ("exact star", `Quick, test_exact_star);
    ("exact disconnected", `Quick, test_exact_disconnected);
    ("exact isolated vertex", `Quick, test_exact_isolated_vertex);
    ("exact witness", `Quick, test_exact_witness);
    ("exact too large", `Quick, test_exact_too_large);
    ("is_expander", `Quick, test_is_expander);
    ("probe finds isolated", `Quick, test_probe_finds_isolated);
    ("probe on clique", `Quick, test_probe_on_clique);
    ("probe size range", `Quick, test_probe_respects_size_range);
    ("probe vs exact", `Quick, test_probe_matches_exact_on_small_graphs);
    ("probe families", `Quick, test_probe_reports_families);
    ("expansion profile", `Quick, test_expansion_profile);
    ("spectral clique", `Quick, test_spectral_clique_gap);
    ("spectral path", `Quick, test_spectral_path_small_gap);
    ("spectral dumbbell", `Quick, test_spectral_sweep_on_dumbbell);
    ("spectral sweep sets", `Quick, test_spectral_sweep_sets_usable);
    ("spectral tiny", `Quick, test_spectral_tiny_graph);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props

let test_probe_empty_range () =
  (* An empty size range yields no candidates: min_expansion is +inf. *)
  let r = Probe.probe ~rng:(Prng.create 91) ~min_size:100 ~max_size:5 (cycle 20) in
  check_bool "no candidates" true (r.candidates_tested = 0);
  check_bool "min is infinity" true (r.min_expansion = infinity)

let suite = suite @ [ ("probe empty range", `Quick, test_probe_empty_range) ]
