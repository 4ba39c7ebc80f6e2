(* Differential testing: Dyngraph (optimized, slot-based) vs
   Reference_graph (naive, list-based) on identical operation scripts and
   identical PRNG streams.  Any divergence in the resulting topology is a
   bug in one of the two edge-bookkeeping implementations. *)

module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Prng = Churnet_util.Prng
module Codec = Churnet_util.Codec

let check_bool = Alcotest.(check bool)

let snapshots_equal a b =
  Snapshot.n a = Snapshot.n b
  && Snapshot.ids a = Snapshot.ids b
  &&
  let ok = ref true in
  for i = 0 to Snapshot.n a - 1 do
    if Snapshot.neighbors a i <> Snapshot.neighbors b i then ok := false;
    if Snapshot.birth_of_index a i <> Snapshot.birth_of_index b i then ok := false
  done;
  !ok

(* Drive both implementations with the same script.  Kills are chosen by
   a third rng over the *sorted* alive-id list, so the graphs' internal
   rngs are consumed by birth sampling only — identically, as long as
   both maintain the same dense-array order. *)
let run_pair ~seed ~script =
  let g = Dyngraph.create ~rng:(Prng.create seed) ~d:3 ~regenerate:false () in
  let r = Reference_graph.create ~rng:(Prng.create seed) ~d:3 in
  let chooser = Prng.create (seed + 1000) in
  List.iteri
    (fun i kill ->
      if kill && Dyngraph.alive_count g > 1 then begin
        let ids = Dyngraph.alive_ids g in
        Array.sort Int.compare ids;
        let victim = ids.(Prng.int chooser (Array.length ids)) in
        Dyngraph.kill g victim;
        Reference_graph.kill r victim
      end
      else begin
        let a = Dyngraph.add_node g ~birth:i in
        let b = Reference_graph.add_node r ~birth:i in
        Alcotest.(check int) "same id allocated" a b
      end)
    script;
  (g, r)

let test_pure_births () =
  let script = List.init 60 (fun _ -> false) in
  let g, r = run_pair ~seed:11 ~script in
  check_bool "equal after births" true
    (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r))

let test_mixed_script () =
  let rng = Prng.create 5 in
  let script = List.init 250 (fun _ -> Prng.bernoulli rng 0.4) in
  let g, r = run_pair ~seed:13 ~script in
  check_bool "equal after mixed churn" true
    (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r))

let test_heavy_deaths () =
  let rng = Prng.create 6 in
  (* Long birth phase then a death-heavy phase. *)
  let script =
    List.init 80 (fun _ -> false) @ List.init 200 (fun _ -> Prng.bernoulli rng 0.7)
  in
  let g, r = run_pair ~seed:17 ~script in
  check_bool "equal after heavy deaths" true
    (snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r))

(* The allocation-free neighbor iterators must visit exactly the distinct
   neighbor set of the list-returning queries — same elements, no
   duplicates — on every alive node of an arbitrarily churned graph. *)
let iterators_agree g =
  let ok = ref true in
  Dyngraph.iter_alive g (fun id ->
      let via_iter = ref [] in
      Dyngraph.iter_neighbors g id (fun v -> via_iter := v :: !via_iter);
      let no_dups =
        List.length (List.sort_uniq Int.compare !via_iter) = List.length !via_iter
      in
      if not no_dups then ok := false;
      if List.sort Int.compare !via_iter <> List.sort Int.compare (Dyngraph.neighbors g id)
      then ok := false;
      let via_in = ref [] in
      Dyngraph.iter_in_neighbors g id (fun v -> via_in := v :: !via_in);
      let in_no_dups =
        List.length (List.sort_uniq Int.compare !via_in) = List.length !via_in
      in
      if not in_no_dups then ok := false;
      if List.sort Int.compare !via_in <> List.sort Int.compare (Dyngraph.in_neighbors g id)
      then ok := false);
  !ok

(* [random_neighbor] must return what the list query plus
   [Prng.choose] returns and leave its generator in the same state, on
   every alive node — including a hub whose raw in-edge run (36 entries,
   every spoke pointing all three slots at it) outgrows the arena
   scratch's initial 32 cells.  [in_neighbors_into] must append exactly
   [in_neighbors], and [in_degree_below] must agree with [in_degree] at
   every cap around the hub's and the nodes' degrees. *)
let random_neighbor_agrees ~seed g =
  let hub = Dyngraph.add_node_with_targets g ~birth:0 ~targets:[||] in
  for _ = 1 to 12 do
    ignore (Dyngraph.add_node_with_targets g ~birth:0 ~targets:[| hub; hub; hub |])
  done;
  let fast = Prng.create seed and slow = Prng.create seed in
  let state rng =
    let w = Codec.writer () in
    Prng.encode w rng;
    Codec.contents w
  in
  let ok = ref true in
  let ids = Dyngraph.alive_ids g in
  Array.sort Int.compare ids;
  Array.iter
    (fun id ->
      let expected =
        match Dyngraph.neighbors g id with
        | [] -> -1
        | l -> Prng.choose slow (Array.of_list l)
      in
      if Dyngraph.random_neighbor g fast id <> expected then ok := false;
      if state fast <> state slow then ok := false;
      let into = Churnet_util.Intvec.create () in
      Dyngraph.in_neighbors_into g id into;
      let appended = ref [] in
      Churnet_util.Intvec.iter (fun v -> appended := v :: !appended) into;
      if List.rev !appended <> Dyngraph.in_neighbors g id then ok := false;
      for cap = 0 to 14 do
        if Dyngraph.in_degree_below g id cap <> (Dyngraph.in_degree g id < cap) then
          ok := false
      done)
    ids;
  !ok

let test_iter_neighbors_mixed_script () =
  let rng = Prng.create 8 in
  let script = List.init 250 (fun _ -> Prng.bernoulli rng 0.4) in
  let g, _ = run_pair ~seed:19 ~script in
  check_bool "iterators agree with list queries" true (iterators_agree g)

let test_iter_neighbors_heavy_deaths () =
  let rng = Prng.create 9 in
  let script =
    List.init 80 (fun _ -> false) @ List.init 200 (fun _ -> Prng.bernoulli rng 0.7)
  in
  let g, _ = run_pair ~seed:23 ~script in
  check_bool "iterators agree after heavy deaths" true (iterators_agree g)

(* --- Batched churn vs per-jump: byte-identical model evolution ------ *)
(* The bulk runners claim bit-identical state to the per-jump jump chain
   — PRNG streams, clock, pending jump, topology.  The strongest possible
   assertion is equality of the full checkpoint encoding, which
   serializes all of it.  The per-jump reference is built here from
   [step] and [next_jump_time] alone, so it never enters the bulk
   runners it checks. *)

module Poisson_model = Churnet_core.Poisson_model

let encoded m =
  let w = Codec.writer () in
  Poisson_model.encode w m;
  Codec.contents w

let pm seed ~regenerate =
  Poisson_model.create ~rng:(Prng.create seed) ~n:300 ~d:3 ~regenerate ()

let ref_run_rounds m k =
  for _ = 1 to k do
    Poisson_model.step m
  done

(* Execute every jump at or before [deadline]; the crossing jump is left
   drawn and pending, as the contract of [run_until_time] says. *)
let ref_run_until_time m deadline =
  while Poisson_model.next_jump_time m <= deadline do
    Poisson_model.step m
  done

let ref_warm_up m = ref_run_rounds m (12 * Poisson_model.n m)

let test_batched_run_rounds () =
  List.iter
    (fun regenerate ->
      let a = pm 7 ~regenerate and b = pm 7 ~regenerate in
      ref_run_rounds a 9000;
      Poisson_model.run_rounds b 9000;
      check_bool "run_rounds == step loop" true (encoded a = encoded b))
    [ false; true ]

let test_batched_warm_up () =
  let a = pm 11 ~regenerate:true and b = pm 11 ~regenerate:true in
  ref_warm_up a;
  Poisson_model.warm_up b;
  check_bool "warm_up == step loop" true (encoded a = encoded b)

(* Interleave deadline runs with per-jump segments on the bulk side so the
   pending jump is handed in both directions: a bulk runner leaves the
   crossing jump pending for [step], and [next_jump_time] pre-draws one
   that the next bulk runner must count first. *)
let test_batched_run_until_time () =
  let a = pm 13 ~regenerate:false and b = pm 13 ~regenerate:false in
  ref_warm_up a;
  Poisson_model.warm_up b;
  for k = 1 to 25 do
    let deadline = Poisson_model.time a +. (0.37 *. float_of_int k) in
    ref_run_until_time a deadline;
    Poisson_model.run_until_time b deadline;
    check_bool "deadline runs stay byte-identical" true (encoded a = encoded b);
    ref_run_rounds a 2;
    Poisson_model.step b;
    Poisson_model.step b;
    check_bool "step after a bulk deadline run stays byte-identical" true
      (encoded a = encoded b);
    ignore (Poisson_model.next_jump_time b);
    ref_run_rounds a 13;
    Poisson_model.run_rounds b 13;
    check_bool "bulk run after a pre-drawn jump stays byte-identical" true
      (encoded a = encoded b)
  done;
  (* A deadline below the next jump: both paths must draw (and keep) the
     crossing jump without executing anything. *)
  let deadline = Poisson_model.time a in
  ref_run_until_time a deadline;
  Poisson_model.run_until_time b deadline;
  check_bool "no-op deadline stays byte-identical" true (encoded a = encoded b)

(* [step_with] with the paper's own rule (uniform requests, plain
   removal) must be [step]: same draws, same clock, same pending jump.
   Every seventh jump is pre-drawn by [next_jump_time] first, so
   [step_with] also has to consume a pending jump exactly as [step]
   does. *)
let add_uniform g round = ignore (Dyngraph.add_node g ~birth:round)

let test_step_with_plain_rule () =
  List.iter
    (fun regenerate ->
      let a = pm 17 ~regenerate and b = pm 17 ~regenerate in
      for k = 1 to 3000 do
        if k mod 7 = 0 then begin
          ignore (Poisson_model.next_jump_time a);
          ignore (Poisson_model.next_jump_time b)
        end;
        Poisson_model.step a;
        Poisson_model.step_with b ~birth:add_uniform ~death:Dyngraph.kill
          (Poisson_model.graph b)
      done;
      ignore (Poisson_model.next_jump_time a);
      ignore (Poisson_model.next_jump_time b);
      check_bool "step_with plain rule == step" true (encoded a = encoded b))
    [ false; true ]

(* --- Stream_stats vs Snapshot / Metrics ----------------------------- *)

module Stream_stats = Churnet_graph.Stream_stats
module Metrics = Churnet_graph.Metrics

let bits = Int64.bits_of_float

let stream_stats_agree g =
  let snap = Dyngraph.snapshot g in
  let st = Stream_stats.collect g in
  st.Stream_stats.population = Snapshot.n snap
  && st.Stream_stats.isolated = List.length (Snapshot.isolated snap)
  && st.Stream_stats.max_degree = Snapshot.max_degree snap
  && bits st.Stream_stats.mean_degree = bits (Snapshot.mean_degree snap)
  && st.Stream_stats.degree_histogram = Snapshot.degree_histogram snap
  && bits st.Stream_stats.degree_gini = bits (Metrics.degree_gini snap)

let test_stream_stats_empty () =
  let g = Dyngraph.create ~rng:(Prng.create 3) ~d:3 ~regenerate:false () in
  check_bool "stream stats on the empty graph" true (stream_stats_agree g)

let test_stream_stats_churned () =
  let rng = Prng.create 31 in
  let script =
    List.init 80 (fun _ -> false) @ List.init 300 (fun _ -> Prng.bernoulli rng 0.55)
  in
  let g, _ = run_pair ~seed:37 ~script in
  check_bool "stream stats after churn" true (stream_stats_agree g)

let test_stream_stats_poisson () =
  List.iter
    (fun regenerate ->
      let m = pm 43 ~regenerate in
      Poisson_model.warm_up m;
      let g = Poisson_model.graph m in
      check_bool "stream stats on a warmed Poisson graph" true (stream_stats_agree g))
    [ false; true ]

let qcheck_props =
  [
    QCheck.Test.make ~name:"stream_stats == snapshot stats on random scripts" ~count:40
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, _ = run_pair ~seed ~script in
        stream_stats_agree g);
  ]
  @ [
    QCheck.Test.make ~name:"dyngraph == reference oracle on random scripts" ~count:60
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, r = run_pair ~seed ~script in
        snapshots_equal (Dyngraph.snapshot g) (Reference_graph.snapshot r));
    QCheck.Test.make ~name:"iter_neighbors == neighbors on random scripts" ~count:60
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, _ = run_pair ~seed ~script in
        iterators_agree g);
    QCheck.Test.make ~name:"random_neighbor == choose (neighbors) on random scripts" ~count:60
      QCheck.(pair small_int (list_of_size (Gen.int_range 10 150) bool))
      (fun (seed, script) ->
        let g, _ = run_pair ~seed ~script in
        random_neighbor_agrees ~seed g);
  ]

let suite =
  [
    ("pure births", `Quick, test_pure_births);
    ("mixed churn", `Quick, test_mixed_script);
    ("heavy deaths", `Quick, test_heavy_deaths);
    ("iter_neighbors mixed churn", `Quick, test_iter_neighbors_mixed_script);
    ("iter_neighbors heavy deaths", `Quick, test_iter_neighbors_heavy_deaths);
    ("batched run_rounds byte-identical", `Quick, test_batched_run_rounds);
    ("batched warm_up byte-identical", `Quick, test_batched_warm_up);
    ("batched run_until_time byte-identical", `Quick, test_batched_run_until_time);
    ("step_with plain rule byte-identical", `Quick, test_step_with_plain_rule);
    ("stream stats: empty graph", `Quick, test_stream_stats_empty);
    ("stream stats: churned graph", `Quick, test_stream_stats_churned);
    ("stream stats: warmed Poisson graph", `Quick, test_stream_stats_poisson);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_props
