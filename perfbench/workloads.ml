(* The benchmark's three workloads.

   Each workload is split into a set-up phase ([prepare], everything a
   user pays before the first measured call) and the measured phase (the
   thunk [prepare] returns).  A workload digests its deterministic output
   so two runs of the same seed can be compared byte for byte, and
   reports the paper checks it evaluated plus the invariants its output
   must satisfy.

   With a span recorder the measured phase also records one span per
   call into a library module; [layers] turns those spans into the
   per-layer metrics.  The traced and untraced paths call the library in
   the same order with the same PRNG streams, so their digests must
   agree. *)

module Json = Churnet_util.Json
module Prng = Churnet_util.Prng
module Stats = Churnet_util.Stats
module Parallel = Churnet_util.Parallel
module Checkpoint = Churnet_util.Checkpoint
module Models = Churnet_core.Models
module Flood = Churnet_core.Flood
module Poisson_model = Churnet_core.Poisson_model
module Isolated = Churnet_core.Isolated
module Stream_stats = Churnet_graph.Stream_stats
module Registry = Churnet_experiments.Registry
module Report = Churnet_experiments.Report
module Scale = Churnet_experiments.Scale
module Sweep = Churnet_experiments.Sweep
module Telemetry = Churnet_experiments.Telemetry

type size = Full | Tiny

type outcome = {
  digest : string;  (** hex MD5 of the workload's deterministic output *)
  checks : (string * bool) list;  (** paper checks: claim, holds *)
  invariants : (string * bool) list;  (** output properties that must always hold *)
  extra : (string * float) list;  (** workload-specific measurements *)
  layers : (string * float) list;  (** per-layer metrics (traced run only) *)
}

type t = {
  name : string;
  domains : int;
  prepare :
    seed:int -> size:size -> out_dir:string -> trace:Spans.t option -> unit -> outcome;
}

let span trace ?tag name f =
  match trace with None -> f () | Some t -> Spans.with_span t ?tag name f

let hex s = Digest.to_hex (Digest.string s)
let ms s = 1000. *. s

(* --- reproduce-smoke -------------------------------------------------- *)

(* Every registry cell at smoke scale, in registry order, rendered as
   `churnet all` renders it. *)
let reproduce ~seed ~size ~out_dir:_ ~trace =
  let entries =
    match size with
    | Full -> Registry.all
    | Tiny -> List.filter_map Registry.find [ "E1"; "T1" ]
  in
  fun () ->
    let buf = Buffer.create 65536 in
    let checks =
      List.concat_map
        (fun (e : Registry.entry) ->
          let r =
            span trace ("Registry." ^ e.Registry.id) (fun () ->
                e.Registry.run ~seed ~scale:Scale.Smoke)
          in
          Buffer.add_string buf (Report.render r);
          List.map
            (fun (c : Report.check) -> (e.Registry.id ^ ": " ^ c.Report.claim, c.Report.holds))
            r.Report.checks)
        entries
    in
    let layers =
      match trace with
      | None -> []
      | Some t ->
          List.concat_map
            (fun (s : Spans.span) ->
              if String.starts_with ~prefix:"Registry." s.Spans.name then
                [ (s.Spans.name ^ ".s", Spans.duration s); (s.Spans.name ^ ".mwords", s.Spans.words /. 1e6) ]
              else [])
            (Spans.spans t)
    in
    { digest = hex (Buffer.contents buf); checks; invariants = []; extra = []; layers }

(* --- pdg-large -------------------------------------------------------- *)

(* One PDG at E13's `full` parameters, driven call by call: warm-up
   through the batched churn path, one streaming statistics pass, then
   discretized flooding from the next newborn for 6 ln n + 20 rounds. *)
let pdg_large ~seed ~size ~out_dir:_ ~trace =
  let n = match size with Full -> 300_000 | Tiny -> 3_000 in
  let d = 2 in
  let budget = int_of_float (6. *. log (float_of_int n)) + 20 in
  let rng = Prng.create seed in
  let m = span trace "Models.create" (fun () -> Models.create ~rng Models.PDG ~n ~d) in
  let p =
    match m with Models.Poisson p -> p | Models.Streaming _ -> invalid_arg "pdg-large: not a PDG"
  in
  fun () ->
    let j0 = Poisson_model.round p in
    let t0 = Telemetry.now () in
    span trace "Models.warm_up_batch" (fun () -> Models.warm_up_batch m);
    let warm_s = Telemetry.now () -. t0 in
    let jumps = Poisson_model.round p - j0 in
    let stats =
      span trace "Stream_stats.collect" (fun () -> Stream_stats.collect (Models.graph m))
    in
    let t1 = Telemetry.now () in
    let st = span trace "Flood.poisson_start" (fun () -> Flood.poisson_start ~max_rounds:budget p) in
    let round_ms = ref [] in
    while not (Flood.state_finished st) do
      let r0 = Telemetry.now () in
      span trace "Flood.poisson_round" (fun () -> Flood.poisson_round p st);
      round_ms := ms (Telemetry.now () -. r0) :: !round_ms
    done;
    let flood_s = Telemetry.now () -. t1 in
    let tr = Flood.finish_state st in
    let ints a = String.concat " " (Array.to_list (Array.map string_of_int a)) in
    let digest =
      hex
        (Printf.sprintf "%d %d %d %h %h [%s] [%s] [%s]" stats.Stream_stats.population
           stats.Stream_stats.isolated stats.Stream_stats.max_degree
           stats.Stream_stats.mean_degree stats.Stream_stats.degree_gini
           (ints stats.Stream_stats.degree_histogram)
           (ints tr.Flood.informed_per_round) (ints tr.Flood.population_per_round))
    in
    (* E13's three checks, recomputed from this single run. *)
    let pop = stats.Stream_stats.population in
    let checks =
      [
        ("E13: population stays in the Lemma 4.4 stationary band", pop >= n / 2 && pop <= 3 * n / 2);
        ( "E13: snapshots contain Omega(n e^{-2d}) isolated nodes (Lemma 4.10)",
          float_of_int stats.Stream_stats.isolated >= Isolated.paper_bound_pdg ~n ~d );
        ("E13: flooding reaches >= 50% coverage in 6 ln n + 20 rounds", tr.Flood.peak_coverage >= 0.5);
      ]
    in
    let invariants =
      [
        ("warm-up executes 12 n jumps", jumps = 12 * n);
        ("flood stays within its round budget", tr.Flood.rounds <= budget);
      ]
    in
    let rounds = Array.of_list !round_ms in
    let extra =
      [
        ("jumps_per_s", float_of_int jumps /. warm_s);
        ("flood_round_ms", Stats.median rounds);
        ("warm_up_s", warm_s);
        ("flood_s", flood_s);
      ]
    in
    let layers =
      match trace with
      | None -> []
      | Some t ->
          let spans = Spans.spans t in
          let one name = List.hd (Spans.named name spans) in
          let warm = one "Models.warm_up_batch" and collect = one "Stream_stats.collect" in
          let round_spans = Spans.named "Flood.poisson_round" spans in
          let round_ms = Array.of_list (List.map (fun s -> ms (Spans.duration s)) round_spans) in
          let nrounds = Array.length round_ms in
          let informed = tr.Flood.informed_per_round in
          let grew = ref 0 in
          for i = 1 to Array.length informed - 1 do
            if informed.(i) > informed.(i - 1) then incr grew
          done;
          let warm_s = Spans.duration warm and fj = float_of_int jumps in
          [
            ("Models.create.ms", ms (Spans.total "Models.create" spans));
            ("Models.warm_up_batch.s", warm_s);
            ("Models.warm_up_batch.jumps", fj);
            ("Models.warm_up_batch.ns_per_jump", 1e9 *. warm_s /. fj);
            ("Models.warm_up_batch.words_per_jump", warm.Spans.words /. fj);
            ("Flood.poisson_start.ms", ms (Spans.total "Flood.poisson_start" spans));
            ("Flood.poisson_round.ms_p50", Stats.quantile round_ms 0.5);
            ("Flood.poisson_round.ms_p85", Stats.quantile round_ms 0.85);
            ("Flood.poisson_round.rounds", float_of_int nrounds);
            ( "Flood.poisson_round.words_per_round",
              List.fold_left (fun a s -> a +. s.Spans.words) 0. round_spans /. float_of_int nrounds );
            ("Flood.poisson_round.growth_ratio", float_of_int !grew /. float_of_int nrounds);
            ("Stream_stats.collect.ms", ms (Spans.duration collect));
            ("Stream_stats.collect.words", collect.Spans.words);
          ]
    in
    { digest; checks; invariants; extra; layers }

(* --- sweep-grid ------------------------------------------------------- *)

(* Four grid seeds drawn from the workload seed, distinct by
   construction (a repeated seed is a config error). *)
let grid_seeds ~seed ~count =
  let rng = Prng.create seed in
  let rec draw acc =
    if List.length acc = count then List.rev acc
    else
      let s = Prng.int rng 1_000_000_000 in
      draw (if List.mem s acc then acc else s :: acc)
  in
  draw []

let sweep_config ~seed ~size =
  let ns, ds, count =
    match size with Full -> ([ 1000; 4000; 16000 ], [ 4; 8 ], 4) | Tiny -> ([ 200; 400 ], [ 4 ], 2)
  in
  let ints l = Json.Arr (List.map (fun i -> Json.Int i) l) in
  Json.Obj
    [
      ("schema", Json.String "churnet-sweep-config/1");
      ("name", Json.String "perfbench-sweep-grid");
      ( "grid",
        Json.Obj
          [
            ("models", Json.Arr (List.map (fun k -> Json.String (Models.kind_name k)) Models.all_kinds));
            ("n", ints ns);
            ("d", ints ds);
            ("seeds", ints (grid_seeds ~seed ~count));
          ] );
    ]

(* Sweep's per-cell round budgets (those of F1). *)
let round_budget model n =
  let ln = log (float_of_int n) in
  if Models.regenerates model then int_of_float (20. *. ln) + 40 else int_of_float (6. *. ln) + 20

(* The traced mirror of one Sweep grid cell: the same kernel (create ->
   warm-up -> statistics -> native flood under the F1 budget) with a
   span around each call.  The cell runs on a worker domain, so it
   records into its own recorder and returns the spans with its
   metrics. *)
let mirror_cell ~parent (i, (cell : Sweep.cell)) =
  let t = Spans.create ~first_id:(1_000_000 * (i + 1)) ~parent "sweep-grid" in
  let tag = Models.kind_name cell.Sweep.model in
  let metrics =
    Spans.with_span t ~tag "cell" (fun () ->
        let m =
          Spans.with_span t ~tag "Models.create" (fun () ->
              Models.create ~rng:(Prng.create cell.Sweep.cell_seed) ~lambda:cell.Sweep.lambda
                cell.Sweep.model ~n:cell.Sweep.n ~d:cell.Sweep.d)
        in
        Spans.with_span t ~tag "Models.warm_up_batch" (fun () -> Models.warm_up_batch m);
        let stats =
          Spans.with_span t ~tag "Stream_stats.collect" (fun () -> Stream_stats.collect (Models.graph m))
        in
        let tr =
          Spans.with_span t ~tag "Models.flood" (fun () ->
              Models.flood ~max_rounds:(round_budget cell.Sweep.model cell.Sweep.n) m)
        in
        let half_coverage_round =
          let hit = ref None in
          Array.iteri
            (fun i inf ->
              let pop = tr.Flood.population_per_round.(i) in
              if !hit = None && pop > 0 && 2 * inf >= pop then hit := Some i)
            tr.Flood.informed_per_round;
          !hit
        in
        {
          Sweep.population = stats.Stream_stats.population;
          isolated = stats.Stream_stats.isolated;
          max_degree = stats.Stream_stats.max_degree;
          mean_degree = stats.Stream_stats.mean_degree;
          rounds = tr.Flood.rounds;
          half_coverage_round;
          completion_round = tr.Flood.completion_round;
          completed = tr.Flood.completed;
          extinct = tr.Flood.extinct;
          peak_coverage = tr.Flood.peak_coverage;
          final_coverage =
            (if tr.Flood.final_population = 0 then nan
             else float_of_int tr.Flood.final_informed /. float_of_int tr.Flood.final_population);
        })
  in
  (metrics, Spans.spans t)

let mirror trace config =
  let cells = Array.of_list (Sweep.cells config) in
  let results =
    Spans.with_span trace "Parallel.map" (fun () ->
        Parallel.map (mirror_cell ~parent:(Spans.current trace)) (Array.mapi (fun i c -> (i, c)) cells))
  in
  Array.iter (fun (_, spans) -> Spans.adopt trace spans) results;
  { Sweep.config; exp_results = []; cell_results = Array.map2 (fun c (m, _) -> (c, m)) cells results }

(* Parallel.map busy and wait time per worker domain, from the cell
   spans each worker recorded. *)
let parallel_layers spans =
  let map_s = Spans.total "Parallel.map" spans in
  let busy = Hashtbl.create 4 in
  List.iter
    (fun (s : Spans.span) ->
      let prev = Option.value ~default:0. (Hashtbl.find_opt busy s.Spans.domain) in
      Hashtbl.replace busy s.Spans.domain (prev +. Spans.duration s))
    (Spans.named "cell" spans);
  let per_domain = Hashtbl.fold (fun _ b acc -> b :: acc) busy [] in
  let workers = float_of_int (List.length per_domain) in
  let busy_max = List.fold_left Float.max 0. per_domain in
  let busy_mean = List.fold_left ( +. ) 0. per_domain /. workers in
  [
    ("Parallel.map.busy_max_s", busy_max);
    ("Parallel.map.busy_mean_s", busy_mean);
    ("Parallel.map.imbalance", busy_max /. busy_mean);
    ("Parallel.map.wait_s", List.fold_left (fun acc b -> acc +. (map_s -. b)) 0. per_domain);
  ]

let kind_layers spans =
  List.concat_map
    (fun name ->
      List.map
        (fun kind ->
          let tag = Models.kind_name kind in
          ( Printf.sprintf "%s.%s.s" name tag,
            List.fold_left
              (fun acc (s : Spans.span) -> if s.Spans.tag = tag then acc +. Spans.duration s else acc)
              0. (Spans.named name spans) ))
        Models.all_kinds)
    [ "Models.warm_up_batch"; "Stream_stats.collect"; "Models.flood" ]

let cell_invariants (outcome : Sweep.outcome) =
  let ok =
    Array.for_all
      (fun ((c : Sweep.cell), (m : Sweep.metrics)) ->
        let n = c.Sweep.n in
        m.Sweep.population >= n / 2
        && m.Sweep.population <= 3 * n / 2
        && m.Sweep.rounds <= round_budget c.Sweep.model n
        && m.Sweep.peak_coverage >= 0.
        && m.Sweep.peak_coverage <= 1.)
      outcome.Sweep.cell_results
  in
  [
    ( "every grid cell ran",
      Array.length outcome.Sweep.cell_results = List.length (Sweep.cells outcome.Sweep.config) );
    ("every cell's population, rounds and coverage are in range", ok);
  ]

(* `churnet sweep --ckpt`: a generated config, a fresh journal installed
   around Sweep.run, the trajectory document serialized at the end. *)
let sweep_grid ~seed ~size ~out_dir ~trace =
  let config =
    match Sweep.config_of_json (sweep_config ~seed ~size) with
    | Ok c -> c
    | Error e -> failwith e
  in
  let path = Filename.concat out_dir (Printf.sprintf "sweep-grid-%d.ckpt" seed) in
  Checkpoint.set_clock Telemetry.now;
  let meta =
    Printf.sprintf "churnet-bench sweep-grid config=%s"
      (hex (Json.to_string (Sweep.config_to_json config)))
  in
  let journal = Checkpoint.create ~path ~every:1 ~meta in
  Checkpoint.install journal;
  fun () ->
    let outcome = match trace with None -> Sweep.run config | Some t -> mirror t config in
    Checkpoint.finalize journal;
    let doc = Json.to_string (Sweep.to_json outcome) in
    let js = Checkpoint.stats journal in
    let extra =
      [
        ("Checkpoint.writes", float_of_int js.Checkpoint.writes);
        ("Checkpoint.write_s", js.Checkpoint.write_seconds);
        ("Checkpoint.journal_bytes", float_of_int (Unix.stat path).Unix.st_size);
      ]
    in
    let layers =
      match trace with
      | None -> []
      | Some t ->
          let spans = Spans.spans t in
          parallel_layers spans @ kind_layers spans
    in
    {
      digest = hex doc;
      checks = [];
      invariants = ("Sweep.all_hold", Sweep.all_hold outcome) :: cell_invariants outcome;
      extra;
      layers;
    }

let all =
  [
    { name = "reproduce-smoke"; domains = 2; prepare = reproduce };
    { name = "pdg-large"; domains = 1; prepare = pdg_large };
    { name = "sweep-grid"; domains = 2; prepare = sweep_grid };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
