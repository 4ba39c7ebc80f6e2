(* compare.exe: the perf regression gate.

   Measures the kernel head-to-heads in [Bench_refs] (median of
   CHURNET_COMPARE_REPEATS fresh repeats, default 3), diffs the result
   against the blessed baseline in bench/baseline/<scale>.json, writes a
   churnet-compare/1 JSON report and exits non-zero when any gated
   metric regressed beyond its tolerance.

   What gates and what does not: absolute wall-clock numbers depend on
   the machine running the job, so they are recorded informationally
   (tolerance null) and never gate.  The gate rides metrics that are
   machine-portable:

   - old-vs-new speedup ratios.  Both sides run on the same machine in
     the same process, so the ratio cancels the machine out; the old
     sides are the pre-optimization implementations kept verbatim in
     [Bench_refs].
   - exact allocation counts (words per operation).  The workloads are
     PRNG-deterministic, so allocations are reproducible to the word.

   Exact counts hold only for the seed and workload sizes they were
   blessed at, so before measuring anything the baseline is validated:
   it must match this run's scale, seed and [Bench_refs] workload, name
   every measured metric with its direction, and give each a tolerance
   that is null or a number.  Any mismatch exits 2 with one
   "compare: baseline ..." line rather than gate against numbers that
   do not apply.

   Usage: compare [--bless] [--baseline FILE] [--out FILE]

   --bless re-measures and (over)writes the baseline file instead of
   gating — the documented re-bless workflow after an intentional
   performance change (see DESIGN.md).

   Env: CHURNET_BENCH_SCALE (smoke|standard|full, default smoke) and
   CHURNET_BENCH_SEED (default 42) pick the workload;
   CHURNET_COMPARE_REPEATS overrides the repeat count;
   CHURNET_COMPARE_HANDICAP="churn=2.0,flood_hop=1.5" multiplies the
   new-side measured time of the named kernel groups (churn, snapshot,
   flood_hop, bitset_scan, churn_batched, stream_stats) — a synthetic
   slowdown used by CI to prove the gate actually fails.  A malformed
   value exits 2. *)

module Scale = Churnet_experiments.Scale
module Json = Churnet_util.Json
module Stats = Churnet_util.Stats
module Refs = Bench_refs

let scale =
  match Sys.getenv_opt "CHURNET_BENCH_SCALE" with
  | Some s -> (
      match Scale.of_string s with
      | Some v -> v
      | None ->
          Printf.eprintf "compare: bad CHURNET_BENCH_SCALE %S\n" s;
          exit 2)
  | None -> Scale.Smoke

let env_int name ~default ~ok ~want =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match int_of_string_opt s with
      | Some k when ok k -> k
      | _ ->
          Printf.eprintf "compare: bad %s %S (want %s)\n" name s want;
          exit 2)

let seed = env_int "CHURNET_BENCH_SEED" ~default:42 ~ok:(fun _ -> true) ~want:"an integer"

let repeats =
  env_int "CHURNET_COMPARE_REPEATS" ~default:3 ~ok:(fun k -> k >= 1)
    ~want:"an integer >= 1"

(* ------------------------------------------------------------------ *)
(* Synthetic handicap (CI self-test).                                  *)
(* ------------------------------------------------------------------ *)

let handicap_groups =
  [ "churn"; "snapshot"; "flood_hop"; "bitset_scan"; "churn_batched"; "stream_stats" ]

let handicaps =
  match Sys.getenv_opt "CHURNET_COMPARE_HANDICAP" with
  | None | Some "" -> []
  | Some spec ->
      String.split_on_char ',' spec
      |> List.map (fun part ->
             match String.split_on_char '=' (String.trim part) with
             | [ group; factor ] when List.mem group handicap_groups -> (
                 match float_of_string_opt factor with
                 | Some f when f > 0. -> (group, f)
                 | _ ->
                     Printf.eprintf "compare: bad handicap factor in %S\n" part;
                     exit 2)
             | _ ->
                 Printf.eprintf
                   "compare: bad CHURNET_COMPARE_HANDICAP entry %S (want \
                    group=factor with group one of %s)\n"
                   part
                   (String.concat "|" handicap_groups);
                 exit 2)

let handicap group = match List.assoc_opt group handicaps with Some f -> f | None -> 1.

(* ------------------------------------------------------------------ *)
(* Metric catalogue.                                                   *)
(* ------------------------------------------------------------------ *)

type direction = Higher | Lower

let direction_to_string = function Higher -> "higher" | Lower -> "lower"

(* One repeat of every head-to-head. *)
type sample = {
  core : Refs.core_metrics;
  scan : Refs.scan_metrics;
  flood : Refs.flood_metrics;
  batched : Refs.batched_metrics;
  stream : Refs.stream_metrics;
}

type metric = {
  name : string;
  direction : direction;
  default_tolerance : float option;
      (* None = informational: recorded in baseline and report, never
         gated.  Some tol = gated; the tolerance actually applied comes
         from the baseline file, so it can be tuned without recompiling. *)
  read : sample -> float;
}

let churn_h = handicap "churn"
let snap_h = handicap "snapshot"
let flood_h = handicap "flood_hop"
let scan_h = handicap "bitset_scan"
let batch_h = handicap "churn_batched"
let stream_h = handicap "stream_stats"

let catalogue =
  [
    {
      name = "churn_speedup";
      direction = Higher;
      default_tolerance = Some 0.35;
      read = (fun { core = c; _ } -> c.churn_old_dt /. (c.churn_new_dt *. churn_h));
    };
    {
      name = "snapshot_speedup";
      direction = Higher;
      default_tolerance = Some 0.35;
      read = (fun { core = c; _ } -> c.snap_old_dt /. (c.snap_new_dt *. snap_h));
    };
    {
      name = "bitset_scan_speedup";
      direction = Higher;
      default_tolerance = Some 0.35;
      read = (fun { scan = s; _ } -> s.scan_old_dt /. (s.scan_new_dt *. scan_h));
    };
    {
      name = "flood_hop_speedup";
      direction = Higher;
      default_tolerance = Some 0.35;
      read = (fun { flood = f; _ } -> f.flood_old_dt /. (f.flood_new_dt *. flood_h));
    };
    {
      name = "churn_words_per_jump";
      direction = Lower;
      default_tolerance = Some 0.02;
      read = (fun { core = c; _ } -> Refs.words_per_jump c c.churn_new_words);
    };
    {
      name = "flood_words_per_hop";
      direction = Lower;
      default_tolerance = Some 0.02;
      read = (fun { flood = f; _ } -> Refs.words_per_hop f f.flood_new_words);
    };
    {
      name = "churn_batched_speedup";
      direction = Higher;
      default_tolerance = Some 0.35;
      read =
        (fun { batched = b; _ } -> b.batched_old_dt /. (b.batched_new_dt *. batch_h));
    };
    {
      name = "stream_stats_speedup";
      direction = Higher;
      default_tolerance = Some 0.35;
      read =
        (fun { stream = st; _ } -> st.stream_old_dt /. (st.stream_new_dt *. stream_h));
    };
    {
      name = "churn_batched_words_per_jump";
      direction = Lower;
      default_tolerance = Some 0.02;
      read = (fun { batched = b; _ } -> Refs.words_per_bjump b b.batched_new_words);
    };
    {
      name = "churn_jump_new_ns";
      direction = Lower;
      default_tolerance = None;
      read = (fun { core = c; _ } -> Refs.per_jump_ns c (c.churn_new_dt *. churn_h));
    };
    {
      name = "snapshot_new_us";
      direction = Lower;
      default_tolerance = None;
      read = (fun { core = c; _ } -> Refs.per_build_us c (c.snap_new_dt *. snap_h));
    };
    {
      name = "bitset_scan_new_us";
      direction = Lower;
      default_tolerance = None;
      read = (fun { scan = s; _ } -> Refs.per_scan_us s (s.scan_new_dt *. scan_h));
    };
    {
      name = "flood_hop_new_ns";
      direction = Lower;
      default_tolerance = None;
      read = (fun { flood = f; _ } -> Refs.per_hop_ns f (f.flood_new_dt *. flood_h));
    };
    {
      name = "churn_batched_new_ns";
      direction = Lower;
      default_tolerance = None;
      read =
        (fun { batched = b; _ } -> Refs.per_bjump_ns b (b.batched_new_dt *. batch_h));
    };
    {
      name = "stream_stats_new_us";
      direction = Lower;
      default_tolerance = None;
      read =
        (fun { stream = st; _ } -> Refs.per_stat_us st (st.stream_new_dt *. stream_h));
    };
  ]

(* Median over repeats so one background-load spike cannot fail the
   gate (or bless a lucky outlier).  The kernels run in a fixed order
   within each repeat. *)
let measure () =
  let samples =
    List.init repeats (fun _ ->
        let core = Refs.measure_graph_core ~seed ~scale in
        let scan = Refs.measure_bitset_scan ~seed ~scale in
        let flood = Refs.measure_flood_hop ~seed ~scale in
        let batched = Refs.measure_churn_batched ~seed ~scale in
        let stream = Refs.measure_stream_stats ~seed ~scale in
        { core; scan; flood; batched; stream })
  in
  List.map
    (fun m -> (m, Stats.median (Array.of_list (List.map m.read samples))))
    catalogue

(* ------------------------------------------------------------------ *)
(* Baseline file (churnet-baseline/1).                                 *)
(* ------------------------------------------------------------------ *)

let baseline_schema = "churnet-baseline/1"
let compare_schema = "churnet-compare/1"

(* The sizes every measured count depends on. *)
let workload =
  [
    ("n", Json.Int Refs.core_n);
    ("d", Json.Int Refs.core_d);
    ("jumps", Json.Int (Refs.core_jumps scale));
    ("snapshot_builds", Json.Int (Refs.snap_reps scale));
    ("scan_bits", Json.Int Refs.scan_bits);
    ("scan_reps", Json.Int (Refs.scan_reps scale));
    ("flood_d", Json.Int Refs.flood_d);
    ("flood_reps", Json.Int (Refs.flood_reps scale));
    ("batched_n", Json.Int Refs.batched_n);
    ("batched_d", Json.Int Refs.batched_d);
    ("batched_jumps", Json.Int (Refs.batched_jumps scale));
    ("stream_reps", Json.Int (Refs.stream_reps scale));
  ]

let write_baseline path measured =
  let doc =
    Json.Obj
      [
        ("schema", Json.String baseline_schema);
        ("scale", Json.String (Scale.to_string scale));
        ( "blessed",
          Json.Obj
            [
              ("seed", Json.Int seed);
              ("repeats", Json.Int repeats);
              ("workload", Json.Obj workload);
            ] );
        ( "metrics",
          Json.Obj
            (List.map
               (fun (m, value) ->
                 ( m.name,
                   Json.Obj
                     [
                       ("value", Json.of_finite value);
                       ("tolerance", Json.float_opt m.default_tolerance);
                       ("direction", Json.String (direction_to_string m.direction));
                     ] ))
               measured) );
      ]
  in
  Json.write_file ~pretty:true path doc

type baseline_entry = { b_value : float; b_tolerance : float option }

(* Parse and validate the baseline against this run, or exit 2. *)
let read_baseline path =
  let contents =
    try
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    with Sys_error msg ->
      Printf.eprintf "compare: cannot read baseline %s: %s\n" path msg;
      Printf.eprintf
        "compare: bless one first: dune exec bench/compare.exe -- --bless\n";
      exit 2
  in
  let doc =
    match Json.of_string contents with
    | Ok d -> d
    | Error msg ->
        Printf.eprintf "compare: malformed baseline %s: %s\n" path msg;
        exit 2
  in
  let fail fmt =
    Printf.ksprintf
      (fun why ->
        Printf.eprintf "compare: baseline %s: %s\n" path why;
        exit 2)
      fmt
  in
  (match Option.bind (Json.member "schema" doc) Json.as_string with
  | Some s when s = baseline_schema -> ()
  | Some s -> fail "schema %S, want %S" s baseline_schema
  | None -> fail "missing schema");
  (match Option.bind (Json.member "scale" doc) Json.as_string with
  | Some s when s = Scale.to_string scale -> ()
  | Some s -> fail "blessed at scale %S but comparing at %S" s (Scale.to_string scale)
  | None -> fail "missing scale");
  let blessed = Option.value (Json.member "blessed" doc) ~default:Json.Null in
  (match Option.bind (Json.member "seed" blessed) Json.as_int with
  | Some s when s = seed -> ()
  | Some s -> fail "blessed at seed %d but comparing at seed %d" s seed
  | None -> fail "missing blessed.seed");
  (match Json.member "workload" blessed with
  | Some (Json.Obj blessed_workload) ->
      let show = function Some v -> Json.to_string v | None -> "nothing" in
      List.iter
        (fun (key, v) ->
          let got = List.assoc_opt key blessed_workload in
          if got <> Some v then
            fail "blessed with workload %s = %s but this run uses %s" key (show got)
              (Json.to_string v))
        workload;
      List.iter
        (fun (key, _) ->
          if not (List.mem_assoc key workload) then
            fail "blessed workload has unknown size %S" key)
        blessed_workload
  | _ -> fail "missing blessed.workload object");
  let entries =
    match Json.member "metrics" doc with
    | Some (Json.Obj es) -> es
    | _ -> fail "missing metrics object"
  in
  List.map
    (fun m ->
      let entry =
        match List.assoc_opt m.name entries with
        | Some e -> e
        | None -> fail "metric %s is measured but not blessed" m.name
      in
      let b_value =
        match Option.bind (Json.member "value" entry) Json.as_float with
        | Some v -> v
        | None -> fail "metric %s: missing value" m.name
      in
      let want = direction_to_string m.direction in
      (match Option.bind (Json.member "direction" entry) Json.as_string with
      | Some d when d = want -> ()
      | Some d -> fail "metric %s: direction %S, want %S" m.name d want
      | None -> fail "metric %s: missing direction" m.name);
      let b_tolerance =
        match Json.member "tolerance" entry with
        | Some Json.Null -> None
        | Some (Json.Int t) -> Some (float_of_int t)
        | Some (Json.Float t) -> Some t
        | Some t ->
            fail "metric %s: tolerance %s is neither null nor a number" m.name
              (Json.to_string t)
        | None -> fail "metric %s: missing tolerance (null or a number)" m.name
      in
      (m.name, { b_value; b_tolerance }))
    catalogue

(* ------------------------------------------------------------------ *)
(* Gate.                                                               *)
(* ------------------------------------------------------------------ *)

type status = Ok_gated | Regression | Info

let status_to_string = function
  | Ok_gated -> "ok"
  | Regression -> "regression"
  | Info -> "info"

let judge baseline (m, value) =
  let b = List.assoc m.name baseline in
  match b.b_tolerance with
  | None -> (Info, b.b_value, None)
  | Some tol ->
      let ok =
        match m.direction with
        | Higher -> value >= b.b_value *. (1. -. tol)
        | Lower -> value <= b.b_value *. (1. +. tol)
      in
      ((if ok then Ok_gated else Regression), b.b_value, Some tol)

let () =
  let bless = ref false in
  let baseline_path = ref (Filename.concat "bench/baseline" (Scale.to_string scale ^ ".json")) in
  let out_path = ref (Printf.sprintf "COMPARE_%d_%s.json" seed (Scale.to_string scale)) in
  let usage = "compare [--bless] [--baseline FILE] [--out FILE]" in
  let spec =
    [
      ("--bless", Arg.Set bless, " measure and (over)write the baseline, gate nothing");
      ( "--baseline",
        Arg.String (fun s -> baseline_path := s),
        "FILE baseline to diff against / bless (default bench/baseline/<scale>.json)" );
      ( "--out",
        Arg.String (fun s -> out_path := s),
        "FILE churnet-compare/1 report path (default COMPARE_<seed>_<scale>.json)" );
    ]
  in
  (try
     Arg.parse spec
       (fun anon -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" anon)))
       usage
   with Arg.Bad msg ->
     prerr_string msg;
     exit 2);
  (* Validate before measuring: a baseline that cannot gate this run
     fails in milliseconds, not after the repeats. *)
  let baseline = if !bless then [] else read_baseline !baseline_path in
  Printf.printf "compare: scale %s, seed %d, median of %d repeat(s)\n%!"
    (Scale.to_string scale) seed repeats;
  if handicaps <> [] then
    Printf.printf "compare: SYNTHETIC HANDICAP active: %s\n%!"
      (String.concat ", "
         (List.map (fun (g, f) -> Printf.sprintf "%s x%.2f" g f) handicaps));
  let measured = measure () in
  if !bless then begin
    write_baseline !baseline_path measured;
    List.iter
      (fun (m, value) ->
        Printf.printf "  blessed %-22s %10.2f (%s)\n" m.name value
          (match m.default_tolerance with
          | Some tol -> Printf.sprintf "gated, tolerance %.0f%%" (tol *. 100.)
          | None -> "informational"))
      measured;
    Printf.printf "compare: wrote baseline %s\n" !baseline_path;
    exit 0
  end;
  let judged = List.map (fun mv -> (mv, judge baseline mv)) measured in
  let regressions =
    List.filter_map
      (fun ((m, _), (st, _, _)) -> if st = Regression then Some m.name else None)
      judged
  in
  List.iter
    (fun ((m, value), (st, b_value, tol)) ->
      Printf.printf "  %-12s %-22s measured %10.2f  baseline %10.2f%s\n"
        ("[" ^ status_to_string st ^ "]")
        m.name value b_value
        (match tol with
        | Some t -> Printf.sprintf "  tolerance %.0f%%" (t *. 100.)
        | None -> ""))
    judged;
  let doc =
    Json.Obj
      [
        ("schema", Json.String compare_schema);
        ("scale", Json.String (Scale.to_string scale));
        ("seed", Json.Int seed);
        ("repeats", Json.Int repeats);
        ("baseline", Json.String !baseline_path);
        ( "handicap",
          if handicaps = [] then Json.Null
          else
            Json.Obj (List.map (fun (g, f) -> (g, Json.Float f)) handicaps) );
        ( "metrics",
          Json.Arr
            (List.map
               (fun ((m, value), (st, b_value, tol)) ->
                 Json.Obj
                   [
                     ("name", Json.String m.name);
                     ("measured", Json.of_finite value);
                     ("baseline", Json.of_finite b_value);
                     ("tolerance", Json.float_opt tol);
                     ("direction", Json.String (direction_to_string m.direction));
                     ("status", Json.String (status_to_string st));
                   ])
               judged) );
        ("regressions", Json.Arr (List.map (fun n -> Json.String n) regressions));
        ("ok", Json.Bool (regressions = []));
      ]
  in
  Json.write_file ~pretty:true !out_path doc;
  Printf.printf "compare: wrote report %s\n" !out_path;
  if regressions <> [] then begin
    Printf.printf "compare: PERF REGRESSION in %s\n" (String.concat ", " regressions);
    exit 1
  end;
  print_endline "compare: all gated metrics within tolerance"
