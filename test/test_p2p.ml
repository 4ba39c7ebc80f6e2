open Churnet_p2p
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Bitcoin-like --- *)

let test_bitcoin_reaches_target_degree () =
  let m = Bitcoin_like.create ~rng:(Prng.create 1) ~n:300 () in
  Bitcoin_like.warm_up m;
  (* Mean out-degree should approach the target 8. *)
  check_bool "mean out-degree near target" true (Bitcoin_like.mean_out_degree m > 6.5)

let test_bitcoin_respects_in_degree_cap () =
  let m = Bitcoin_like.create ~rng:(Prng.create 2) ~max_in:5 ~n:200 () in
  Bitcoin_like.warm_up m;
  let g = Bitcoin_like.graph m in
  let worst = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      let indeg = Dyngraph.in_degree g id in
      if indeg > !worst then worst := indeg);
  (* Cap can be transiently exceeded only by at most the newborn's seeds;
     enforce a small slack. *)
  check_bool "in-degree capped" true (!worst <= 6)

let test_bitcoin_population_band () =
  let m = Bitcoin_like.create ~rng:(Prng.create 3) ~n:300 () in
  Bitcoin_like.warm_up m;
  let pop = Dyngraph.alive_count (Bitcoin_like.graph m) in
  check_bool "population near n" true (pop > 200 && pop < 400)

let test_bitcoin_graph_invariants () =
  let m = Bitcoin_like.create ~rng:(Prng.create 4) ~n:200 () in
  Bitcoin_like.warm_up m;
  match Dyngraph.check_invariants (Bitcoin_like.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_bitcoin_mostly_connected () =
  let m = Bitcoin_like.create ~rng:(Prng.create 5) ~n:300 () in
  Bitcoin_like.warm_up m;
  let s = Bitcoin_like.snapshot m in
  let frac =
    float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s)
  in
  check_bool "giant component" true (frac > 0.95)

let test_bitcoin_flood_completes () =
  let m = Bitcoin_like.create ~rng:(Prng.create 6) ~n:300 () in
  Bitcoin_like.warm_up m;
  let tr = Bitcoin_like.flood m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.9)

let test_bitcoin_tables_fill () =
  let m = Bitcoin_like.create ~rng:(Prng.create 7) ~n:200 () in
  Bitcoin_like.warm_up m;
  check_bool "address tables populated" true (Bitcoin_like.mean_table_fill m > 8.)

let test_bitcoin_time_advances () =
  let m = Bitcoin_like.create ~rng:(Prng.create 8) ~n:100 () in
  for _ = 1 to 50 do
    let t0 = Bitcoin_like.time m in
    Bitcoin_like.step m;
    check_bool "each jump advances the clock" true (Bitcoin_like.time m > t0)
  done

(* [newest] is the youngest alive node: with the newborn killed it falls
   back to the largest alive id, not a stale or missing one. *)
let test_bitcoin_newest_after_newborn_dies () =
  let m = Bitcoin_like.create ~rng:(Prng.create 9) ~n:60 () in
  Bitcoin_like.warm_up m;
  let g = Bitcoin_like.graph m in
  let max_alive () = Array.fold_left max (-1) (Dyngraph.alive_ids g) in
  (* Ids are monotone with birth: the largest alive id is the newest
     surviving newborn. *)
  let newborn = max_alive () in
  check_bool "newest is the newborn" true (Bitcoin_like.newest m = Some newborn);
  Dyngraph.kill g newborn;
  check_bool "newest is the max alive id" true (Bitcoin_like.newest m = Some (max_alive ()));
  check_bool "the dead newborn is not reported" true (Bitcoin_like.newest m <> Some newborn)

(* --- Random-walk streaming --- *)

let test_rw_population () =
  let m = Rw_streaming.create ~rng:(Prng.create 11) ~n:150 ~d:3 () in
  Rw_streaming.warm_up m;
  check_int "population n" 150 (Dyngraph.alive_count (Rw_streaming.graph m))

let test_rw_connected () =
  let m = Rw_streaming.create ~rng:(Prng.create 12) ~n:300 ~d:3 () in
  Rw_streaming.warm_up m;
  let s = Rw_streaming.snapshot m in
  let frac = float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s) in
  (* The simplified token protocol (no constant recirculation) still loses
     a few old nodes; it must keep a giant component nonetheless. *)
  check_bool "giant component" true (frac > 0.8)

let test_rw_flood_completes () =
  let m = Rw_streaming.create ~rng:(Prng.create 13) ~n:250 ~d:4 () in
  Rw_streaming.warm_up m;
  let tr = Rw_streaming.flood ~max_rounds:120 m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.85)

let test_rw_degree_bias () =
  (* Walk endpoints are degree-biased: the degree distribution should be
     more skewed than the uniform model's.  Smoke check: max degree is
     noticeably above d+average. *)
  let m = Rw_streaming.create ~rng:(Prng.create 14) ~n:400 ~d:3 () in
  Rw_streaming.warm_up m;
  let s = Rw_streaming.snapshot m in
  check_bool "skewed degrees" true (Snapshot.max_degree s >= 10)

let test_rw_invariants () =
  let m = Rw_streaming.create ~rng:(Prng.create 15) ~n:150 ~d:3 () in
  Rw_streaming.warm_up m;
  match Dyngraph.check_invariants (Rw_streaming.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* --- Cache protocol --- *)

let test_cache_population () =
  let m = Cache_protocol.create ~rng:(Prng.create 21) ~n:150 ~d:3 () in
  Cache_protocol.warm_up m;
  check_int "population n" 150 (Dyngraph.alive_count (Cache_protocol.graph m))

let test_cache_connected_core () =
  let m = Cache_protocol.create ~rng:(Prng.create 22) ~n:300 ~d:3 () in
  Cache_protocol.warm_up m;
  let s = Cache_protocol.snapshot m in
  let frac = float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s) in
  check_bool "giant component" true (frac > 0.8)

let test_cache_flood_mostly_covers () =
  let m = Cache_protocol.create ~rng:(Prng.create 23) ~n:250 ~d:4 () in
  Cache_protocol.warm_up m;
  let tr = Cache_protocol.flood ~max_rounds:120 m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.75)

let test_cache_invariants () =
  let m = Cache_protocol.create ~rng:(Prng.create 24) ~n:150 ~d:3 () in
  Cache_protocol.warm_up m;
  match Dyngraph.check_invariants (Cache_protocol.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_cache_newborn_targets_from_cache () =
  (* With cache_size 1 the newborn always connects to the cached node. *)
  let m = Cache_protocol.create ~rng:(Prng.create 25) ~cache_size:1 ~n:50 ~d:2 () in
  Cache_protocol.run m 30;
  let g = Cache_protocol.graph m in
  let newest = Cache_protocol.newest m in
  let targets = Dyngraph.out_targets g newest in
  check_bool "targets identical" true
    (match targets with
    | [] -> false
    | t :: rest -> List.for_all (fun x -> x = t) rest)

let suite =
  [
    ("bitcoin target degree", `Quick, test_bitcoin_reaches_target_degree);
    ("bitcoin in-degree cap", `Quick, test_bitcoin_respects_in_degree_cap);
    ("bitcoin population", `Quick, test_bitcoin_population_band);
    ("bitcoin invariants", `Quick, test_bitcoin_graph_invariants);
    ("bitcoin giant component", `Quick, test_bitcoin_mostly_connected);
    ("bitcoin flood", `Quick, test_bitcoin_flood_completes);
    ("bitcoin address tables", `Quick, test_bitcoin_tables_fill);
    ("bitcoin time", `Quick, test_bitcoin_time_advances);
    ("bitcoin newest after newborn dies", `Quick, test_bitcoin_newest_after_newborn_dies);
    ("rw population", `Quick, test_rw_population);
    ("rw connected", `Quick, test_rw_connected);
    ("rw flood", `Quick, test_rw_flood_completes);
    ("rw degree bias", `Quick, test_rw_degree_bias);
    ("rw invariants", `Quick, test_rw_invariants);
    ("cache population", `Quick, test_cache_population);
    ("cache connected", `Quick, test_cache_connected_core);
    ("cache flood", `Quick, test_cache_flood_mostly_covers);
    ("cache invariants", `Quick, test_cache_invariants);
    ("cache newborn targets", `Quick, test_cache_newborn_targets_from_cache);
  ]

(* --- Local update protocol (Duchon-Duvignau flavour) --- *)

let test_local_update_degree_conservation () =
  let m = Local_update.create ~rng:(Prng.create 41) ~n:300 ~d:4 () in
  Local_update.warm_up m;
  let g = Local_update.graph m in
  (* Takeover conserves out-degrees: everyone sits at exactly d, except
     possibly a couple of nodes hit by donor collisions. *)
  let below = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      let od = Dyngraph.out_degree g id in
      check_bool "out-degree at most d" true (od <= 4);
      if od < 4 then incr below);
  check_bool "almost all at exactly d" true (!below <= 6)

let test_local_update_bounded_in_degree () =
  (* The takeover dynamics also keep in-degrees small (no Theta(log n)
     hubs) — the interesting contrast with SDGR. *)
  let m = Local_update.create ~rng:(Prng.create 42) ~n:400 ~d:4 () in
  Local_update.warm_up m;
  let s = Local_update.snapshot m in
  check_bool "max degree stays ~ 2d + slack" true (Snapshot.max_degree s <= 16)

let test_local_update_connected () =
  let m = Local_update.create ~rng:(Prng.create 43) ~n:400 ~d:4 () in
  Local_update.warm_up m;
  let s = Local_update.snapshot m in
  let frac = float_of_int (Snapshot.largest_component s) /. float_of_int (Snapshot.n s) in
  check_bool "giant component" true (frac > 0.95)

let test_local_update_flood () =
  let m = Local_update.create ~rng:(Prng.create 44) ~n:300 ~d:5 () in
  Local_update.warm_up m;
  let tr = Local_update.flood ~max_rounds:120 m in
  check_bool "high coverage" true (tr.Churnet_core.Flood.peak_coverage > 0.9)

let test_local_update_invariants () =
  let m = Local_update.create ~rng:(Prng.create 45) ~n:200 ~d:3 () in
  Local_update.warm_up m;
  match Dyngraph.check_invariants (Local_update.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_disconnect_primitive () =
  let g = Dyngraph.create ~rng:(Prng.create 46) ~d:2 ~regenerate:false () in
  let a = Dyngraph.add_node g ~birth:1 in
  let b = Dyngraph.add_node g ~birth:2 in
  (* b points at a twice. *)
  check_bool "disconnect succeeds" true (Dyngraph.disconnect g ~src:b ~dst:a);
  Alcotest.(check int) "one slot cleared" 1 (Dyngraph.out_degree g b);
  check_bool "second disconnect" true (Dyngraph.disconnect g ~src:b ~dst:a);
  check_bool "third fails" false (Dyngraph.disconnect g ~src:b ~dst:a);
  Alcotest.(check int) "a isolated" 0 (Dyngraph.degree g a);
  match Dyngraph.check_invariants g with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let suite =
  suite
  @ [
      ("local update degree conservation", `Quick, test_local_update_degree_conservation);
      ("local update bounded in-degree", `Quick, test_local_update_bounded_in_degree);
      ("local update connected", `Quick, test_local_update_connected);
      ("local update flood", `Quick, test_local_update_flood);
      ("local update invariants", `Quick, test_local_update_invariants);
      ("disconnect primitive", `Quick, test_disconnect_primitive);
    ]
