open Churnet_core
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- Streaming model --- *)

let test_streaming_population_pins_at_n () =
  let m = Streaming_model.create ~rng:(Prng.create 1) ~n:50 ~d:3 ~regenerate:false () in
  Streaming_model.run m 49;
  check_int "before steady state" 49 (Dyngraph.alive_count (Streaming_model.graph m));
  Streaming_model.run m 1;
  check_int "at n" 50 (Dyngraph.alive_count (Streaming_model.graph m));
  Streaming_model.run m 100;
  check_int "still n" 50 (Dyngraph.alive_count (Streaming_model.graph m))

let test_streaming_oldest_dies () =
  let m = Streaming_model.create ~rng:(Prng.create 2) ~n:10 ~d:2 ~regenerate:false () in
  Streaming_model.run m 10;
  let oldest = Option.get (Dyngraph.oldest_alive (Streaming_model.graph m)) in
  Streaming_model.step m;
  check_bool "oldest gone" false (Dyngraph.is_alive (Streaming_model.graph m) oldest)

let test_streaming_lifetime_exactly_n () =
  let n = 12 in
  let m = Streaming_model.create ~rng:(Prng.create 3) ~n ~d:2 ~regenerate:false () in
  Streaming_model.run m 20;
  let id = Streaming_model.newest m in
  (* Born at round 20; must be alive through round 20 + n - 1 and dead at
     round 20 + n. *)
  Streaming_model.run m (n - 1);
  check_bool "alive at age n-1" true (Dyngraph.is_alive (Streaming_model.graph m) id);
  Streaming_model.step m;
  check_bool "dead at age n" false (Dyngraph.is_alive (Streaming_model.graph m) id)

let test_streaming_ages_range () =
  let n = 30 in
  let m = Streaming_model.create ~rng:(Prng.create 5) ~n ~d:2 ~regenerate:false () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  Dyngraph.iter_alive g (fun id ->
      let age = Streaming_model.age_of m id in
      check_bool "age in [0, n-1]" true (age >= 0 && age < n))

let test_streaming_newest_age_zero () =
  let m = Streaming_model.create ~rng:(Prng.create 7) ~n:20 ~d:2 ~regenerate:false () in
  Streaming_model.warm_up m;
  check_int "newest age" 0 (Streaming_model.age_of m (Streaming_model.newest m))

let test_sdgr_out_degree_always_d () =
  let d = 4 in
  let m = Streaming_model.create ~rng:(Prng.create 11) ~n:60 ~d ~regenerate:true () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  Dyngraph.iter_alive g (fun id -> check_int "out-degree d" d (Dyngraph.out_degree g id));
  (* Paper: SDGR has exactly d*n edges at all times. *)
  check_int "dn edges" (d * 60) (Dyngraph.edge_count g)

let test_sdg_out_degree_at_most_d () =
  let d = 4 in
  let m = Streaming_model.create ~rng:(Prng.create 13) ~n:60 ~d ~regenerate:false () in
  Streaming_model.warm_up m;
  let g = Streaming_model.graph m in
  let some_below = ref false in
  Dyngraph.iter_alive g (fun id ->
      let od = Dyngraph.out_degree g id in
      check_bool "at most d" true (od <= d);
      if od < d then some_below := true);
  check_bool "some node lost an edge" true !some_below

let test_sdg_mean_degree_near_d () =
  (* Lemma 6.1: expected degree of each node is d. *)
  let d = 5 and n = 2000 in
  let m = Streaming_model.create ~rng:(Prng.create 17) ~n ~d ~regenerate:false () in
  Streaming_model.warm_up m;
  let s = Streaming_model.snapshot m in
  (* mean_degree counts distinct neighbors so is slightly below d due to
     parallel requests; allow a small deficit. *)
  check_bool "mean degree near d" true
    (Snapshot.mean_degree s > float_of_int d *. 0.9
    && Snapshot.mean_degree s < float_of_int d *. 1.1)

let test_streaming_invariants_after_warmup () =
  let m = Streaming_model.create ~rng:(Prng.create 19) ~n:80 ~d:3 ~regenerate:true () in
  Streaming_model.warm_up m;
  match Dyngraph.check_invariants (Streaming_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

let test_streaming_create_invalid () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Streaming_model.create: n must be >= 2") (fun () ->
      ignore (Streaming_model.create ~rng:(Prng.create 0x5eed) ~n:1 ~d:2 ~regenerate:false ()))

(* --- Poisson model --- *)

let test_poisson_population_band () =
  let n = 1000 in
  let m = Poisson_model.create ~rng:(Prng.create 23) ~n ~d:3 ~regenerate:false () in
  Poisson_model.warm_up m;
  let pop = Poisson_model.population m in
  check_bool "population in wide band" true
    (float_of_int pop > 0.8 *. float_of_int n && float_of_int pop < 1.2 *. float_of_int n)

let test_poisson_time_advances () =
  let m = Poisson_model.create ~rng:(Prng.create 29) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 500;
  check_bool "time positive" true (Poisson_model.time m > 0.);
  check_int "round counter" 500 (Poisson_model.round m)

let test_poisson_run_until_time () =
  let m = Poisson_model.create ~rng:(Prng.create 31) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 300;
  let t = Poisson_model.time m in
  Poisson_model.run_until_time m (t +. 10.);
  check_bool "does not overshoot" true (Poisson_model.time m <= t +. 10.);
  (* The next jump crosses the deadline. *)
  check_bool "close to deadline" true (Poisson_model.next_jump_time m > t +. 10.)

let test_poisson_next_jump_idempotent () =
  let m = Poisson_model.create ~rng:(Prng.create 37) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 10;
  let a = Poisson_model.next_jump_time m in
  let b = Poisson_model.next_jump_time m in
  Alcotest.(check (float 1e-12)) "idempotent" a b;
  Poisson_model.step m;
  Alcotest.(check (float 1e-9)) "step lands on it" a (Poisson_model.time m)

let test_pdgr_out_degree_after_warmup () =
  let d = 4 in
  let m = Poisson_model.create ~rng:(Prng.create 41) ~n:300 ~d ~regenerate:true () in
  Poisson_model.warm_up m;
  let g = Poisson_model.graph m in
  (* All but the very first few nodes (born into a tiny graph) keep
     out-degree d; after 12n jumps those founders are dead w.h.p. *)
  let bad = ref 0 in
  Dyngraph.iter_alive g (fun id -> if Dyngraph.out_degree g id <> d then incr bad);
  check_bool "almost all have out-degree d" true (!bad <= 2)

let test_poisson_newest () =
  let m = Poisson_model.create ~rng:(Prng.create 43) ~n:100 ~d:3 ~regenerate:false () in
  Poisson_model.run_rounds m 1000;
  match Poisson_model.newest m with
  | Some id -> check_bool "newest alive" true (Dyngraph.is_alive (Poisson_model.graph m) id)
  | None -> Alcotest.fail "no newest after 1000 rounds"

let test_poisson_invariants () =
  let m = Poisson_model.create ~rng:(Prng.create 47) ~n:200 ~d:3 ~regenerate:true () in
  Poisson_model.warm_up m;
  match Dyngraph.check_invariants (Poisson_model.graph m) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invariants: %s" e

(* --- Models wrapper --- *)

let test_kind_roundtrip () =
  List.iter
    (fun k ->
      Alcotest.(check (option string))
        "name roundtrip"
        (Some (Models.kind_name k))
        (Option.map Models.kind_name (Models.kind_of_string (Models.kind_name k))))
    Models.all_kinds;
  check_bool "unknown" true (Models.kind_of_string "FOO" = None)

let test_wrapper_dispatch () =
  List.iter
    (fun k ->
      let m = Models.create ~rng:(Prng.create 53) k ~n:60 ~d:3 in
      check_bool "kind preserved" true (Models.kind m = k);
      check_int "n" 60 (Models.n m);
      check_int "d" 3 (Models.d m);
      Models.warm_up_batch m;
      let pop = Dyngraph.alive_count (Models.graph m) in
      check_bool "population reasonable" true (pop > 30 && pop < 90);
      Models.advance m 5;
      let s = Models.snapshot m in
      check_bool "snapshot non-empty" true (Snapshot.n s > 0))
    Models.all_kinds

let test_regeneration_flags () =
  check_bool "SDG" false (Models.regenerates Models.SDG);
  check_bool "SDGR" true (Models.regenerates Models.SDGR);
  check_bool "PDG" false (Models.regenerates Models.PDG);
  check_bool "PDGR" true (Models.regenerates Models.PDGR);
  check_bool "SDG streaming" true (Models.is_streaming Models.SDG);
  check_bool "PDGR not streaming" false (Models.is_streaming Models.PDGR)

(* --- Static baseline --- *)

let test_static_dout_shape () =
  let s = Static_dout.generate ~rng:(Prng.create 59) ~n:200 ~d:4 () in
  check_int "n nodes" 200 (Snapshot.n s);
  check_bool "about nd edges" true
    (Snapshot.edge_count s > 700 && Snapshot.edge_count s <= 800)

let test_static_dout_connected_for_d3 () =
  (* Lemma B.1: d >= 3 gives an expander, in particular connected, w.h.p. *)
  let s = Static_dout.generate ~rng:(Prng.create 61) ~n:500 ~d:3 () in
  check_int "single component" (Snapshot.n s) (Snapshot.largest_component s)

let test_static_dout_flooding_logarithmic () =
  match Static_dout.flooding_rounds ~rng:(Prng.create 67) ~n:2000 ~d:4 () with
  | Some rounds -> check_bool "O(log n) rounds" true (rounds <= 14)
  | None -> Alcotest.fail "static graph not connected"

let suite =
  [
    ("streaming population", `Quick, test_streaming_population_pins_at_n);
    ("streaming oldest dies", `Quick, test_streaming_oldest_dies);
    ("streaming lifetime exactly n", `Quick, test_streaming_lifetime_exactly_n);
    ("streaming ages range", `Quick, test_streaming_ages_range);
    ("streaming newest age", `Quick, test_streaming_newest_age_zero);
    ("SDGR out-degree = d", `Quick, test_sdgr_out_degree_always_d);
    ("SDG out-degree <= d", `Quick, test_sdg_out_degree_at_most_d);
    ("SDG mean degree (Lemma 6.1)", `Quick, test_sdg_mean_degree_near_d);
    ("streaming invariants", `Quick, test_streaming_invariants_after_warmup);
    ("streaming invalid create", `Quick, test_streaming_create_invalid);
    ("poisson population band", `Quick, test_poisson_population_band);
    ("poisson time advances", `Quick, test_poisson_time_advances);
    ("poisson run_until_time", `Quick, test_poisson_run_until_time);
    ("poisson next jump idempotent", `Quick, test_poisson_next_jump_idempotent);
    ("PDGR out-degree", `Quick, test_pdgr_out_degree_after_warmup);
    ("poisson newest", `Quick, test_poisson_newest);
    ("poisson invariants", `Quick, test_poisson_invariants);
    ("kind roundtrip", `Quick, test_kind_roundtrip);
    ("wrapper dispatch", `Quick, test_wrapper_dispatch);
    ("regeneration flags", `Quick, test_regeneration_flags);
    ("static d-out shape", `Quick, test_static_dout_shape);
    ("static d-out connected", `Quick, test_static_dout_connected_for_d3);
    ("static d-out flooding", `Quick, test_static_dout_flooding_logarithmic);
  ]

let test_advance_poisson_time_units () =
  let m = Models.create ~rng:(Prng.create 71) Models.PDGR ~n:200 ~d:4 in
  Models.warm_up_batch m;
  match m with
  | Models.Poisson pm ->
      let t0 = Poisson_model.time pm in
      Models.advance m 7;
      check_bool "advanced ~7 time units" true
        (Poisson_model.time pm >= t0 +. 6.0 && Poisson_model.time pm <= t0 +. 7.0)
  | Models.Streaming _ -> Alcotest.fail "expected a Poisson model"

let test_advance_streaming_rounds () =
  let m = Models.create ~rng:(Prng.create 73) Models.SDGR ~n:100 ~d:3 in
  Models.warm_up_batch m;
  match m with
  | Models.Streaming sm ->
      let r0 = Streaming_model.round sm in
      Models.advance m 5;
      check_int "advanced 5 rounds" (r0 + 5) (Streaming_model.round sm)
  | Models.Poisson _ -> Alcotest.fail "expected a streaming model"

let suite =
  suite
  @ [
      ("advance poisson time", `Quick, test_advance_poisson_time_units);
      ("advance streaming rounds", `Quick, test_advance_streaming_rounds);
    ]
