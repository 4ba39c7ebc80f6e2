(* Tests for Event_log (capture / replay / serialize) and Metrics. *)
open Churnet_graph
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let close ?(eps = 1e-9) msg a b = check_bool msg true (Float.abs (a -. b) < eps)

(* --- Event_log --- *)

let snapshots_equal a b =
  Snapshot.n a = Snapshot.n b
  && Array.for_all2 (fun x y -> x = y) (Snapshot.ids a) (Snapshot.ids b)
  &&
  let ok = ref true in
  for i = 0 to Snapshot.n a - 1 do
    if Snapshot.neighbors a i <> Snapshot.neighbors b i then ok := false
  done;
  !ok

let run_logged ~regenerate ~seed ~ops =
  let g = Dyngraph.create ~rng:(Prng.create seed) ~d:3 ~regenerate () in
  let log = Event_log.create () in
  Event_log.attach log g;
  let rng = Prng.create (seed + 1) in
  for i = 1 to ops do
    if Dyngraph.alive_count g > 3 && Prng.bernoulli rng 0.45 then
      Dyngraph.kill g (Dyngraph.random_alive g)
    else ignore (Dyngraph.add_node g ~birth:i)
  done;
  Event_log.detach log g;
  (g, log)

let test_capture_counts () =
  let g = Dyngraph.create ~rng:(Prng.create 1) ~d:2 ~regenerate:false () in
  let log = Event_log.create () in
  Event_log.attach log g;
  let a = Dyngraph.add_node g ~birth:1 in
  let _b = Dyngraph.add_node g ~birth:2 in
  Dyngraph.kill g a;
  Event_log.detach log g;
  let evts = Event_log.events log in
  check_int "3 events" 3 (Array.length evts);
  (match evts.(0) with
  | Event_log.Birth { id; targets; _ } ->
      check_int "first birth id" a id;
      check_int "no targets for founder" 0 (Array.length targets)
  | _ -> Alcotest.fail "expected birth");
  match evts.(2) with
  | Event_log.Death { id } -> check_int "death id" a id
  | _ -> Alcotest.fail "expected death"

let test_replay_matches_live_no_regen () =
  let g, log = run_logged ~regenerate:false ~seed:3 ~ops:120 in
  let live = Dyngraph.snapshot g in
  let replayed = Event_log.replay log in
  check_bool "replayed topology equals live" true (snapshots_equal live replayed)

let test_replay_matches_live_regen () =
  let g, log = run_logged ~regenerate:true ~seed:5 ~ops:120 in
  let live = Dyngraph.snapshot g in
  let replayed = Event_log.replay log in
  check_bool "replayed topology equals live (regeneration)" true
    (snapshots_equal live replayed)

let test_replay_prefix () =
  let _, log = run_logged ~regenerate:true ~seed:7 ~ops:60 in
  (* Alive-node count after each event. *)
  let pop = ref 0 in
  let series =
    Array.map
      (fun e ->
        (match e with
        | Event_log.Birth _ -> incr pop
        | Event_log.Death _ -> decr pop
        | Event_log.Edge _ -> ());
        !pop)
      (Event_log.events log)
  in
  (* Population after k events equals the replayed snapshot size. *)
  List.iter
    (fun k ->
      let snap = Event_log.replay ~upto:k log in
      check_int
        (Printf.sprintf "population at %d" k)
        series.(k - 1) (Snapshot.n snap))
    [ 1; 10; Event_log.length log / 2; Event_log.length log ]

let test_roundtrip_serialization () =
  let _, log = run_logged ~regenerate:true ~seed:9 ~ops:80 in
  let text = Event_log.to_string log in
  match Event_log.of_string text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok log2 ->
      check_int "same length" (Event_log.length log) (Event_log.length log2);
      check_bool "same replay" true
        (snapshots_equal (Event_log.replay log) (Event_log.replay log2))

let test_parse_errors () =
  (match Event_log.of_string "B 1 2\nnonsense\n" with
  | Error e -> check_bool "mentions line 2" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "should fail");
  match Event_log.of_string "E 1\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short edge line should fail"

let test_parse_empty_ok () =
  match Event_log.of_string "\n\n" with
  | Ok log -> check_int "empty" 0 (Event_log.length log)
  | Error e -> Alcotest.failf "unexpected error %s" e

(* --- Metrics --- *)

let clique n =
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      edges := (i, j) :: !edges
    done
  done;
  Snapshot.of_edges ~n !edges

let path n = Snapshot.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))
let star n = Snapshot.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let test_clustering_clique () =
  close "clique transitivity 1" 1.0 (Metrics.global_clustering (clique 8))

let test_clustering_tree () =
  close "path has no triangles" 0. (Metrics.global_clustering (path 10));
  check_bool "star has no triangles" true (Metrics.global_clustering (star 10) = 0.)

let test_clustering_triangle_plus_edge () =
  (* Triangle 0-1-2 plus pendant 3 on 0: 1 triangle, wedges = C(3,2)+1+1 = 5. *)
  let s = Snapshot.of_edges ~n:4 [ (0, 1); (1, 2); (2, 0); (0, 3) ] in
  close "transitivity 3/5" 0.6 (Metrics.global_clustering s)

let test_assortativity_star_negative () =
  (* Stars are maximally disassortative. *)
  check_bool "star assortativity negative" true
    ((Metrics.fingerprint ~rng:(Prng.create 0x3E7) (star 12)).assortativity < -0.9)

let test_mean_distance_path () =
  (* Exact: all sources used since n <= the BFS sample count. *)
  let s = path 5 in
  (* Sum of distances over ordered reachable pairs: 2*(sum over pairs). *)
  let expected = 2. *. (4. +. 3. +. 2. +. 1. +. 3. +. 2. +. 1. +. 2. +. 1. +. 1.) /. 20. in
  close ~eps:1e-9 "path mean distance" expected (Metrics.fingerprint ~rng:(Prng.create 0x3E7) s).mean_distance

let test_diameter_path () =
  check_int "path diameter" 9
    (Metrics.fingerprint ~rng:(Prng.create 0x3E7) (path 10)).diameter_lb

let test_gini_regular_zero () =
  let s = clique 6 in
  close ~eps:1e-9 "regular graph gini 0" 0. (Metrics.degree_gini s)

let test_gini_star_high () =
  check_bool "star gini high" true (Metrics.degree_gini (star 20) > 0.4)

let test_fingerprint_fields () =
  let fp = Metrics.fingerprint ~rng:(Prng.create 0xF19) (clique 10) in
  check_int "nodes" 10 fp.nodes;
  check_int "edges" 45 fp.edges;
  close "giant" 1.0 fp.giant_fraction;
  close ~eps:1e-9 "mean degree 9" 9. fp.mean_degree

let suite =
  [
    ("capture counts", `Quick, test_capture_counts);
    ("replay = live (no regen)", `Quick, test_replay_matches_live_no_regen);
    ("replay = live (regen)", `Quick, test_replay_matches_live_regen);
    ("replay prefix population", `Quick, test_replay_prefix);
    ("serialize roundtrip", `Quick, test_roundtrip_serialization);
    ("parse errors", `Quick, test_parse_errors);
    ("parse empty", `Quick, test_parse_empty_ok);
    ("clustering clique", `Quick, test_clustering_clique);
    ("clustering tree", `Quick, test_clustering_tree);
    ("clustering triangle+edge", `Quick, test_clustering_triangle_plus_edge);
    ("assortativity star", `Quick, test_assortativity_star_negative);
    ("mean distance path", `Quick, test_mean_distance_path);
    ("diameter path", `Quick, test_diameter_path);
    ("gini regular", `Quick, test_gini_regular_zero);
    ("gini star", `Quick, test_gini_star_high);
    ("fingerprint fields", `Quick, test_fingerprint_fields);
  ]

(* --- property tests --- *)

let qcheck_props =
  [
    QCheck.Test.make ~name:"replay equals live under arbitrary churn" ~count:40
      QCheck.(pair small_int (list_of_size (Gen.int_range 5 80) bool))
      (fun (seed, script) ->
        let g = Dyngraph.create ~rng:(Prng.create seed) ~d:3 ~regenerate:(seed mod 2 = 0) () in
        let log = Event_log.create () in
        Event_log.attach log g;
        List.iteri
          (fun i kill ->
            if kill && Dyngraph.alive_count g > 2 then
              Dyngraph.kill g (Dyngraph.random_alive g)
            else ignore (Dyngraph.add_node g ~birth:i))
          script;
        Event_log.detach log g;
        snapshots_equal (Dyngraph.snapshot g) (Event_log.replay log));
    QCheck.Test.make ~name:"metrics stay in their ranges" ~count:40
      QCheck.(pair small_int (int_range 6 40))
      (fun (seed, n) ->
        let rng = Prng.create seed in
        let edges = ref [] in
        for _ = 1 to 3 * n do
          let u = Prng.int rng n and v = Prng.int rng n in
          if u <> v then edges := (u, v) :: !edges
        done;
        let s = Snapshot.of_edges ~n !edges in
        let c = Metrics.global_clustering s in
        let gini = Metrics.degree_gini s in
        let a = (Metrics.fingerprint ~rng s).assortativity in
        (Float.is_nan c || (c >= 0. && c <= 1.))
        && gini >= -1e-9
        && gini < 1.
        && (Float.is_nan a || (a >= -1.0001 && a <= 1.0001)));
    QCheck.Test.make ~name:"serialization roundtrip is lossless" ~count:40
      QCheck.small_int
      (fun seed ->
        let _, log = run_logged ~regenerate:true ~seed ~ops:50 in
        match Event_log.of_string (Event_log.to_string log) with
        | Ok log2 -> Event_log.events log = Event_log.events log2
        | Error _ -> false);
  ]

let suite = suite @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
