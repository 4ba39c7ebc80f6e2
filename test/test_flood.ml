open Churnet_core
module Prng = Churnet_util.Prng

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sdgr ?(seed = 1) ?(n = 300) ?(d = 8) () =
  let m = Streaming_model.create ~rng:(Prng.create seed) ~n ~d ~regenerate:true () in
  Streaming_model.warm_up m;
  m

let sdg ?(seed = 1) ?(n = 300) ?(d = 3) () =
  let m = Streaming_model.create ~rng:(Prng.create seed) ~n ~d ~regenerate:false () in
  Streaming_model.warm_up m;
  m

let pdgr ?(seed = 1) ?(n = 300) ?(d = 8) () =
  let m = Poisson_model.create ~rng:(Prng.create seed) ~n ~d ~regenerate:true () in
  Poisson_model.warm_up m;
  m

let test_sdgr_flood_completes_fast () =
  let m = sdgr ~seed:3 () in
  let tr = Flood.run_streaming m in
  check_bool "completed" true tr.completed;
  (* Theorem 3.16: O(log n); allow a generous constant. *)
  check_bool "logarithmic rounds" true
    (match tr.completion_round with Some r -> r <= 40 | None -> false)

let test_sdgr_flood_informs_everyone () =
  let m = sdgr ~seed:5 () in
  let tr = Flood.run_streaming m in
  check_bool "full coverage at end" true
    (tr.final_informed >= tr.final_population - 1)

let test_trace_consistency () =
  let m = sdgr ~seed:7 () in
  let tr = Flood.run_streaming m in
  check_int "rounds matches log length" (Array.length tr.informed_per_round - 1) tr.rounds;
  check_int "same log lengths"
    (Array.length tr.informed_per_round)
    (Array.length tr.population_per_round);
  check_int "starts with single source" 1 tr.informed_per_round.(0);
  Array.iteri
    (fun i inf ->
      check_bool "informed <= population" true (inf <= tr.population_per_round.(i)))
    tr.informed_per_round;
  check_bool "peak >= final" true (tr.peak_informed >= tr.final_informed);
  check_bool "peak coverage in [0,1]" true (tr.peak_coverage >= 0. && tr.peak_coverage <= 1.)

let test_informed_can_shrink_only_by_one_per_round () =
  (* Streaming churn kills exactly one node per round, so |I| drops by at
     most 1 between consecutive rounds (before additions). *)
  let m = sdgr ~seed:11 () in
  let tr = Flood.run_streaming m in
  let ok = ref true in
  for i = 1 to Array.length tr.informed_per_round - 1 do
    if tr.informed_per_round.(i) < tr.informed_per_round.(i - 1) - 1 then ok := false
  done;
  check_bool "bounded shrink" true !ok

let test_sdg_flood_reaches_most_nodes () =
  (* Theorem 3.8 direction: with a healthy d, most nodes get informed
     within O(log n) rounds (not all: isolated nodes exist). *)
  let successes = ref 0 in
  for seed = 1 to 10 do
    let m = sdg ~seed ~n:400 ~d:8 () in
    let tr = Flood.run_streaming ~max_rounds:80 m in
    if tr.peak_coverage > 0.7 then incr successes
  done;
  check_bool "most floods reach most nodes" true (!successes >= 7)

let test_sdg_flood_can_stall () =
  (* Theorem 3.7 direction: with small d some floods die early. *)
  let stalled = ref 0 in
  for seed = 1 to 40 do
    let m = sdg ~seed ~n:200 ~d:1 () in
    let tr = Flood.run_streaming ~max_rounds:60 m in
    if tr.peak_informed <= 2 then incr stalled
  done;
  check_bool "some floods stall at <= d+1 nodes" true (!stalled >= 1)

let test_sdg_flood_does_not_complete_quickly () =
  (* Isolated nodes make full completion impossible within o(n) rounds. *)
  let m = sdg ~seed:13 ~n:500 ~d:3 () in
  let tr = Flood.run_streaming ~max_rounds:60 m in
  check_bool "no fast completion in SDG" true (not tr.completed)

let test_pdgr_discretized_completes () =
  let m = pdgr ~seed:17 () in
  let tr = Flood.run_poisson_discretized m in
  check_bool "completed" true tr.completed;
  check_bool "logarithmic rounds" true
    (match tr.completion_round with Some r -> r <= 60 | None -> false)

let test_pdgr_discretized_coverage () =
  let m = pdgr ~seed:19 () in
  let tr = Flood.run_poisson_discretized m in
  check_bool "peak coverage > 0.95" true (tr.peak_coverage > 0.95)

let test_pdg_flood_partial_coverage () =
  (* PDG (no regeneration): flooding should still reach a large constant
     fraction (Theorem 4.13) but full completion is blocked by isolated
     nodes. *)
  let m = Poisson_model.create ~rng:(Prng.create 23) ~n:400 ~d:10 ~regenerate:false () in
  Poisson_model.warm_up m;
  let tr = Flood.run_poisson_discretized ~max_rounds:60 m in
  check_bool "large coverage" true (tr.peak_coverage > 0.6)

let test_async_completes_on_pdgr () =
  let m = pdgr ~seed:29 ~n:200 () in
  let r = Flood.Async.run m in
  check_bool "completed" true r.completed;
  (match r.completion_time with
  | Some t -> check_bool "O(log n) time" true (t < 40.)
  | None -> Alcotest.fail "no completion time");
  check_bool "coverage 1" true (r.final_coverage > 0.999)

let test_async_faster_or_equal_discretized () =
  (* Async flooding (Def 4.2) dominates discretized (Def 4.3): on the same
     parameters its completion time should not be dramatically larger. *)
  let async_times = ref [] and disc_rounds = ref [] in
  for seed = 31 to 35 do
    let m1 = pdgr ~seed ~n:200 () in
    let r = Flood.Async.run m1 in
    (match r.completion_time with Some t -> async_times := t :: !async_times | None -> ());
    let m2 = pdgr ~seed:(seed + 100) ~n:200 () in
    let tr = Flood.run_poisson_discretized m2 in
    match tr.completion_round with
    | Some r -> disc_rounds := float_of_int r :: !disc_rounds
    | None -> ()
  done;
  check_bool "both complete mostly" true
    (List.length !async_times >= 4 && List.length !disc_rounds >= 4);
  let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l) in
  check_bool "async not slower than 2x discretized" true
    (mean !async_times <= 2. *. mean !disc_rounds +. 5.)

let test_async_extinction_possible_pdg_small_d () =
  (* With d = 1 and no regeneration, some async floods go extinct. *)
  let extinct = ref 0 in
  for seed = 1 to 15 do
    let m = Poisson_model.create ~rng:(Prng.create seed) ~n:150 ~d:1 ~regenerate:false () in
    Poisson_model.warm_up m;
    let r = Flood.Async.run ~max_time:80. m in
    if (not r.completed) && r.informed_total <= 6 then incr extinct
  done;
  check_bool "some extinctions" true (!extinct >= 1)

let test_run_custom_static_semantics () =
  (* On a custom stepper that never churns after planting the source,
     flooding is exactly BFS layer expansion. *)
  let g = Churnet_graph.Dyngraph.create ~rng:(Prng.create 41) ~d:2 ~regenerate:false () in
  (* Build a path: b -> a, c -> b, ... each newborn connects to previous. *)
  let prev = ref (-1) in
  let first = ref true in
  let mk i =
    let targets = if !prev < 0 then [||] else [| !prev |] in
    prev := Churnet_graph.Dyngraph.add_node_with_targets g ~birth:i ~targets
  in
  for i = 1 to 6 do
    mk i
  done;
  let step () =
    if !first then begin
      first := false;
      mk 7 (* source joins the end of the path *)
    end
    (* afterwards: no churn at all *)
  in
  let tr =
    Flood.run_custom ~graph:g ~step ~newest:(fun () -> !prev) ~default_max_rounds:20 ()
  in
  check_bool "completed" true tr.completed;
  (* Source sits at one end of a 7-node path: needs exactly 6 rounds. *)
  check_int "path flooding time" 6 (Option.get tr.completion_round)

let suite =
  [
    ("SDGR completes fast (Thm 3.16)", `Quick, test_sdgr_flood_completes_fast);
    ("SDGR informs everyone", `Quick, test_sdgr_flood_informs_everyone);
    ("trace consistency", `Quick, test_trace_consistency);
    ("bounded shrink", `Quick, test_informed_can_shrink_only_by_one_per_round);
    ("SDG reaches most nodes (Thm 3.8)", `Slow, test_sdg_flood_reaches_most_nodes);
    ("SDG can stall (Thm 3.7)", `Slow, test_sdg_flood_can_stall);
    ("SDG no fast completion", `Quick, test_sdg_flood_does_not_complete_quickly);
    ("PDGR discretized completes (Thm 4.20)", `Quick, test_pdgr_discretized_completes);
    ("PDGR discretized coverage", `Quick, test_pdgr_discretized_coverage);
    ("PDG partial coverage (Thm 4.13)", `Quick, test_pdg_flood_partial_coverage);
    ("async completes on PDGR", `Quick, test_async_completes_on_pdgr);
    ("async vs discretized", `Slow, test_async_faster_or_equal_discretized);
    ("async extinction possible", `Slow, test_async_extinction_possible_pdg_small_d);
    ("run_custom = BFS on static path", `Quick, test_run_custom_static_semantics);
  ]

let test_max_rounds_respected () =
  let m = sdg ~seed:53 ~n:300 ~d:2 () in
  let tr = Flood.run_streaming ~max_rounds:7 m in
  check_bool "stops at budget" true (tr.rounds <= 7);
  check_int "log length" (tr.rounds + 1) (Array.length tr.informed_per_round)

let test_discretized_max_rounds () =
  let m = Poisson_model.create ~rng:(Prng.create 59) ~n:300 ~d:2 ~regenerate:false () in
  Poisson_model.warm_up m;
  let tr = Flood.run_poisson_discretized ~max_rounds:5 m in
  check_bool "stops at budget" true (tr.rounds <= 5)

let test_async_max_time_respected () =
  let m = Poisson_model.create ~rng:(Prng.create 61) ~n:200 ~d:1 ~regenerate:false () in
  Poisson_model.warm_up m;
  let t0 = Poisson_model.time m in
  let r = Flood.Async.run ~max_time:10. m in
  ignore r;
  (* The simulation clock cannot run far past the deadline. *)
  check_bool "clock bounded" true (Poisson_model.time m -. t0 <= 13.)

let test_streaming_population_constant_during_flood () =
  let m = sdgr ~seed:67 () in
  let tr = Flood.run_streaming m in
  Array.iter
    (fun pop -> check_int "population pinned at n" 300 pop)
    tr.population_per_round

(* An extinct trace must stop at the extinction round (not run on to the
   round budget), flag [extinct], and end with zero informed nodes. *)
let check_extinct_trace (tr : Flood.trace) =
  check_bool "not completed" true (not tr.completed);
  check_bool "no completion round" true (tr.completion_round = None);
  check_int "last log entry is 0 informed" 0
    tr.informed_per_round.(Array.length tr.informed_per_round - 1);
  match tr.extinction_round with
  | None -> Alcotest.fail "extinct trace without extinction_round"
  | Some r -> check_int "trace ends at extinction round" r tr.rounds

let test_streaming_extinction_trace () =
  (* SDG with d = 1: some floods die out entirely (Theorem 3.7 regime). *)
  let extinct = ref 0 in
  for seed = 1 to 40 do
    let m = sdg ~seed ~n:200 ~d:1 () in
    let tr = Flood.run_streaming ~max_rounds:400 m in
    if tr.extinct then begin
      incr extinct;
      check_extinct_trace tr;
      check_bool "stopped before budget" true (tr.rounds < 400)
    end
  done;
  check_bool "saw at least one extinction" true (!extinct >= 1)

let test_discretized_extinction_trace () =
  (* PDG with d = 1 and no regeneration: the flood stalls in the source's
     small component, whose members all die within O(n log) time (node
     lifetimes are ~n time units), so the informed set dies out. *)
  let extinct = ref 0 in
  for seed = 1 to 30 do
    let m = Poisson_model.create ~rng:(Prng.create seed) ~n:40 ~d:1 ~regenerate:false () in
    Poisson_model.warm_up m;
    let tr = Flood.run_poisson_discretized ~max_rounds:800 m in
    if tr.extinct then begin
      incr extinct;
      check_extinct_trace tr
    end
  done;
  check_bool "saw at least one extinction" true (!extinct >= 1)

let test_async_no_delivery_past_deadline () =
  (* The earliest possible delivery is at source time + 1, so with a
     deadline of 0.5 nobody besides the source can ever be informed. *)
  for seed = 1 to 5 do
    let m = pdgr ~seed ~n:150 () in
    let r = Flood.Async.run ~max_time:0.5 m in
    check_bool "not completed" true (not r.completed);
    check_int "only the source informed" 1 r.informed_total
  done

let test_coverage_nan_on_empty_population () =
  (* Regression: a mass-death step drives the population to 0 while the
     flood is in flight.  Coverage of an empty round must come back as a
     deliberate nan — never an inf or a junk ratio — and peak_coverage
     must skip the empty rounds instead of being poisoned by them. *)
  let g = Churnet_graph.Dyngraph.create ~rng:(Prng.create 71) ~d:2 ~regenerate:false () in
  let prev = ref (-1) in
  let mk i =
    let targets = if !prev < 0 then [||] else [| !prev |] in
    prev := Churnet_graph.Dyngraph.add_node_with_targets g ~birth:i ~targets
  in
  for i = 1 to 4 do
    mk i
  done;
  let round = ref 0 in
  let step () =
    incr round;
    if !round = 1 then mk 5 (* the source joins the end of the path *)
    else if !round = 3 then
      Array.iter (Churnet_graph.Dyngraph.kill g) (Churnet_graph.Dyngraph.alive_ids g)
  in
  let tr =
    Flood.run_custom ~graph:g ~step ~newest:(fun () -> !prev) ~default_max_rounds:20 ()
  in
  check_int "population emptied" 0 tr.final_population;
  check_int "no informed survivors" 0 tr.final_informed;
  check_bool "peak coverage finite despite empty rounds" true
    (Float.is_finite tr.peak_coverage);
  check_bool "peak coverage in [0,1]" true (tr.peak_coverage >= 0. && tr.peak_coverage <= 1.)

let test_frontier_flood_equals_full_rescan () =
  (* The driver floods through the adaptive frontier kernel; the paper's
     definition is the full per-round rescan.  Replay the historical
     rescan loop (expand, churn, prune) on an equal-seeded model and
     demand the identical per-round trace, churn included. *)
  let module Dyngraph = Churnet_graph.Dyngraph in
  let module Bitset = Churnet_util.Bitset in
  let module Intvec = Churnet_util.Intvec in
  let reference_trace m max_rounds =
    let g = Streaming_model.graph m in
    Streaming_model.step m;
    let src = Streaming_model.newest m in
    let informed = Bitset.create (src + 64) in
    Bitset.add informed src;
    let scratch = Intvec.create ~capacity:64 () in
    let log = ref [ (1, Dyngraph.alive_count g) ] in
    let finished = ref false in
    let round = ref 0 in
    while (not !finished) && !round < max_rounds do
      incr round;
      Flood.expand_informed g informed scratch;
      Streaming_model.step m;
      let dead = ref [] in
      Bitset.iter (fun v -> if not (Dyngraph.is_alive g v) then dead := v :: !dead) informed;
      List.iter (Bitset.remove informed) !dead;
      let alive = Dyngraph.alive_count g in
      let inf = Bitset.cardinal informed in
      log := (inf, alive) :: !log;
      let newborn = Streaming_model.newest m in
      let newborn_informed =
        newborn < Bitset.capacity informed && Bitset.mem informed newborn
      in
      let uninformed = alive - inf in
      if uninformed = 0 || (uninformed = 1 && not newborn_informed) then finished := true
      else if inf = 0 then finished := true
    done;
    List.rev !log
  in
  let runs =
    [ (fun seed -> sdgr ~seed ~n:200 ()); (fun seed -> sdg ~seed ~n:200 ~d:3 ()) ]
  in
  List.iteri
    (fun kind make ->
      for seed = 101 to 103 do
        let tr = Flood.run_streaming ~max_rounds:150 (make seed) in
        let got =
          Array.to_list
            (Array.mapi
               (fun i inf -> (inf, tr.population_per_round.(i)))
               tr.informed_per_round)
        in
        let expected = reference_trace (make seed) 150 in
        if got <> expected then
          Alcotest.failf "model %d seed %d: frontier trace diverged from full rescan" kind
            seed
      done)
    runs

(* The discretized driver scans only its frontier, drops the informed
   nodes it saw die, and tests completion on the round's births alone.
   The reference below is the historical round: scan every informed
   node, prune by an [is_alive] pass over the informed set, and test
   completion over every alive node.  Both must log the identical
   per-round trace and leave the model in the identical state. *)
module Discretized_reference = struct
  module Dyngraph = Churnet_graph.Dyngraph
  module Bitset = Churnet_util.Bitset
  module Intvec = Churnet_util.Intvec

  type t = {
    informed : Bitset.t;
    candidates : Intvec.t;
    mutable log : (int * int) list; (* head = latest round *)
    mutable round : int;
    mutable completion_round : int option;
    mutable extinction_round : int option;
  }

  let mem bs id = id < Bitset.capacity bs && Bitset.mem bs id

  let add bs id =
    Bitset.ensure_capacity bs (id + 1);
    Bitset.add bs id

  let start model =
    let src = Poisson_model.step_until_birth model in
    let informed = Bitset.create (src + 64) in
    Bitset.add informed src;
    {
      informed;
      candidates = Intvec.create ();
      log = [ (1, Dyngraph.alive_count (Poisson_model.graph model)) ];
      round = 0;
      completion_round = None;
      extinction_round = None;
    }

  let round model r =
    let g = Poisson_model.graph model in
    let d = Dyngraph.d g in
    let informed = r.informed and candidates = r.candidates in
    r.round <- r.round + 1;
    Intvec.clear candidates;
    let push owner slot other learner =
      List.iter (Intvec.push candidates) [ owner; slot; other; learner ]
    in
    Bitset.iter
      (fun u ->
        if Dyngraph.is_alive g u then begin
          for i = 0 to d - 1 do
            let w = Dyngraph.out_slot g u i in
            if w >= 0 && not (mem informed w) then push u i w w
          done;
          Dyngraph.iter_in_neighbors g u (fun v ->
              if not (mem informed v) then
                for j = 0 to d - 1 do
                  if Dyngraph.out_slot g v j = u then push v j u v
                done)
        end)
      informed;
    let birth_round_start = Poisson_model.round model in
    Poisson_model.run_until_time model (Poisson_model.time model +. 1.0);
    for k = 0 to (Intvec.length candidates / 4) - 1 do
      let get i = Intvec.get candidates ((4 * k) + i) in
      if
        Dyngraph.is_alive g (get 0)
        && Dyngraph.is_alive g (get 2)
        && Dyngraph.out_slot g (get 0) (get 1) = get 2
      then add informed (get 3)
    done;
    let dead = ref [] in
    Bitset.iter (fun v -> if not (Dyngraph.is_alive g v) then dead := v :: !dead) informed;
    List.iter (Bitset.remove informed) !dead;
    let alive = Dyngraph.alive_count g in
    let inf = Bitset.cardinal informed in
    r.log <- (inf, alive) :: r.log;
    let all_covered = ref true in
    Dyngraph.iter_alive g (fun id ->
        if (not (mem informed id)) && Dyngraph.birth_of g id <= birth_round_start then
          all_covered := false);
    if !all_covered && inf > 1 then r.completion_round <- Some r.round
    else if inf = 0 then r.extinction_round <- Some r.round

  let finished r max_rounds =
    r.completion_round <> None || r.extinction_round <> None || r.round >= max_rounds

  let run ?(max_rounds = 120) model =
    let r = start model in
    while not (finished r max_rounds) do
      round model r
    done;
    r
end

let trace_of (tr : Flood.trace) =
  ( Array.to_list
      (Array.mapi (fun i inf -> (inf, tr.population_per_round.(i))) tr.informed_per_round),
    tr.completion_round,
    tr.extinction_round )

let reference_of (r : Discretized_reference.t) =
  (List.rev r.log, r.completion_round, r.extinction_round)

let model_bytes m =
  let w = Churnet_util.Codec.writer () in
  Poisson_model.encode w m;
  Churnet_util.Codec.contents w

let poisson_model ?lambda ~regenerate ~d seed =
  let m = Poisson_model.create ~rng:(Prng.create seed) ?lambda ~n:200 ~d ~regenerate () in
  Poisson_model.warm_up m;
  m

(* PDG and PDGR at d = 1, 2, 4, three seeds each.  At lambda = 1 a unit
   interval holds about two jumps; lambda = 8 packs about sixteen into
   it, so rounds end with newborns that the completion test must exempt
   (and with a pending deadline-crossing birth that it must not). *)
let test_frontier_discretized_equals_full_scan () =
  List.iter
    (fun lambda ->
      List.iter
        (fun regenerate ->
          List.iter
            (fun d ->
              for seed = 201 to 203 do
                let m = poisson_model ~lambda ~regenerate ~d seed in
                let tr = Flood.run_poisson_discretized ~max_rounds:120 m in
                let m_ref = poisson_model ~lambda ~regenerate ~d seed in
                let r = Discretized_reference.run m_ref in
                let case =
                  Printf.sprintf "lambda=%g regenerate=%b d=%d seed %d" lambda regenerate d
                    seed
                in
                if trace_of tr <> reference_of r then
                  Alcotest.failf "%s: frontier trace diverged" case;
                if model_bytes m <> model_bytes m_ref then
                  Alcotest.failf "%s: model diverged" case
              done)
            [ 1; 2; 4 ])
        [ false; true ])
    [ 1.; 8. ]

(* A mid-flood checkpoint resumes with a conservative frontier (the
   whole informed set) and an unobserved model: the resumed flood must
   still follow the reference round for round. *)
let test_frontier_discretized_resumes () =
  let module Codec = Churnet_util.Codec in
  let m = poisson_model ~regenerate:true ~d:2 211 in
  let st = Flood.poisson_start ~max_rounds:120 m in
  for _ = 1 to 3 do
    Flood.poisson_round m st
  done;
  check_bool "checkpoint is mid-flood" false (Flood.state_finished st);
  let w = Codec.writer () in
  Flood.encode_state w st;
  Poisson_model.encode w m;
  let rd = Codec.reader (Codec.contents w) in
  let st' = Flood.decode_state rd in
  let m' = Poisson_model.decode rd in
  while not (Flood.state_finished st') do
    Flood.poisson_round m' st'
  done;
  let r = Discretized_reference.run (poisson_model ~regenerate:true ~d:2 211) in
  check_bool "resumed trace = reference" true
    (trace_of (Flood.finish_state st') = reference_of r)

(* An event recorder attached before the flood sees the same churn as
   on the reference run, through the driver's hook windows. *)
let test_frontier_discretized_keeps_event_log () =
  let module Event_log = Churnet_graph.Event_log in
  let logged run =
    let m = Poisson_model.create ~rng:(Prng.create 221) ~n:200 ~d:2 ~regenerate:false () in
    let log = Event_log.create () in
    Event_log.attach log (Poisson_model.graph m);
    Poisson_model.warm_up m;
    let out = run m in
    Event_log.detach log (Poisson_model.graph m);
    (out, Event_log.events log)
  in
  let tr, events = logged (fun m -> trace_of (Flood.run_poisson_discretized ~max_rounds:120 m)) in
  let r, ref_events = logged (fun m -> reference_of (Discretized_reference.run m)) in
  check_bool "trace = reference" true (tr = r);
  check_int "event count" (Array.length ref_events) (Array.length events);
  check_bool "recorded events = reference" true (events = ref_events)

let test_async_completion_time_from_completing_event () =
  (* completion_time is stamped by the event that completed coverage, so
     it is at least one delivery delay and never past the deadline. *)
  let max_time = 100. in
  for seed = 28 to 32 do
    let m = pdgr ~seed ~n:200 () in
    let r = Flood.Async.run ~max_time m in
    if r.completed then
      match r.completion_time with
      | None -> Alcotest.fail "completed without completion time"
      | Some t ->
          check_bool "at least one delivery delay" true (t >= 1.);
          check_bool "within deadline" true (t <= max_time)
  done

(* Observers coexist with the flooding drivers: an event recorder
   attached before an asynchronous flood keeps recording through the run
   and after it, so its replay still matches the live graph. *)
let test_async_keeps_event_log () =
  let module Dyngraph = Churnet_graph.Dyngraph in
  let module Event_log = Churnet_graph.Event_log in
  let module Snapshot = Churnet_graph.Snapshot in
  let m = Poisson_model.create ~rng:(Prng.create 37) ~n:150 ~d:4 ~regenerate:true () in
  let g = Poisson_model.graph m in
  let log = Event_log.create () in
  Event_log.attach log g;
  Poisson_model.warm_up m;
  let edge_hook = Dyngraph.edge_hook g and death_hook = Dyngraph.death_hook g in
  let r = Flood.Async.run ~max_time:20. m in
  check_bool "the flood churned" true (r.events > 0);
  check_bool "edge hook handed back" true (Dyngraph.edge_hook g == edge_hook);
  check_bool "death hook handed back" true (Dyngraph.death_hook g == death_hook);
  let deaths () =
    Array.fold_left
      (fun acc e -> match e with Event_log.Death _ -> acc + 1 | _ -> acc)
      0 (Event_log.events log)
  in
  let deaths_before = deaths () in
  Poisson_model.run_rounds m 300;
  check_bool "deaths after the flood are recorded" true (deaths () > deaths_before);
  Event_log.detach log g;
  let live = Dyngraph.snapshot g and replayed = Event_log.replay log in
  check_bool "replay reconstructs the live topology" true
    (Snapshot.ids live = Snapshot.ids replayed
    && List.for_all
         (fun i -> Snapshot.neighbors live i = Snapshot.neighbors replayed i)
         (List.init (Snapshot.n live) Fun.id))

exception Observer_failed

(* A raising observer must not leave the drivers' temporary hooks
   installed: both hand the graph's hooks back on the way out. *)
let test_drivers_restore_hooks_on_raise () =
  let module Dyngraph = Churnet_graph.Dyngraph in
  let m = pdgr ~seed:41 ~n:150 () in
  let g = Poisson_model.graph m in
  let edge_hook = Some (fun ~src:_ ~dst:_ -> raise Observer_failed) in
  let death_hook = Some (fun _ -> raise Observer_failed) in
  Dyngraph.set_edge_hook g edge_hook;
  Dyngraph.set_death_hook g death_hook;
  (match Flood.Async.run m with
  | _ -> Alcotest.fail "expected the observer's exception"
  | exception Observer_failed -> ());
  check_bool "async: edge hook restored" true (Dyngraph.edge_hook g == edge_hook);
  check_bool "async: death hook restored" true (Dyngraph.death_hook g == death_hook);
  let s = sdgr ~seed:43 ~n:100 () in
  let sg = Streaming_model.graph s in
  let hook = Some (fun ~src:_ ~dst:_ -> ()) in
  Dyngraph.set_edge_hook sg hook;
  let newest () = Streaming_model.newest s in
  let st =
    Flood.sync_start ~max_rounds:10 ~graph:sg ~step:(fun () -> Streaming_model.step s) ~newest
  in
  (match Flood.sync_round ~graph:sg ~step:(fun () -> raise Observer_failed) ~newest st with
  | () -> Alcotest.fail "expected the step's exception"
  | exception Observer_failed -> ());
  check_bool "sync: edge hook restored" true (Dyngraph.edge_hook sg == hook)

let suite =
  suite
  @ [
      ("max_rounds respected", `Quick, test_max_rounds_respected);
      ("discretized max_rounds", `Quick, test_discretized_max_rounds);
      ("async max_time", `Quick, test_async_max_time_respected);
      ("population constant during flood", `Quick, test_streaming_population_constant_during_flood);
      ("streaming extinction trace", `Slow, test_streaming_extinction_trace);
      ("discretized extinction trace", `Slow, test_discretized_extinction_trace);
      ("async: no delivery past deadline", `Quick, test_async_no_delivery_past_deadline);
      ("coverage nan on empty population", `Quick, test_coverage_nan_on_empty_population);
      ("frontier flood = full rescan", `Quick, test_frontier_flood_equals_full_rescan);
      ("frontier discretized = full scan", `Quick, test_frontier_discretized_equals_full_scan);
      ("frontier discretized resumes", `Quick, test_frontier_discretized_resumes);
      ("frontier discretized keeps event log", `Quick,
       test_frontier_discretized_keeps_event_log);
      ("async: completion time from completing event", `Quick,
       test_async_completion_time_from_completing_event);
      ("async keeps an attached event log", `Quick, test_async_keeps_event_log);
      ("drivers restore hooks on raise", `Quick, test_drivers_restore_hooks_on_raise);
    ]
