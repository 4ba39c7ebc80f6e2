(* churnet_bench.exe: one measured iteration of one benchmark workload.

   Usage: churnet_bench.exe MODE --workload NAME [--seed N] [--size full|tiny]
            [--domains N]

   MODE is
   - setup: run the workload's set-up phase only and report its time;
   - run:   set up, then run the measured phase untraced;
   - trace: set up, then run the measured phase with a span around every
            call into a library module, write the spans to
            .bench_build/perfbench/spans-<workload>-<seed>.jsonl and report
            per-layer metrics.

   The result is one JSON object on the last line of stdout.  Set-up time
   is counted from CHURNET_BENCH_T0 (seconds since the epoch, set by the
   launcher just before it starts this process) when present, else from
   the start of this program.  Run it from the repository root:
   perfbench/run.py launches it there once per iteration and aggregates
   the results. *)

module Json = Churnet_util.Json
module Telemetry = Churnet_experiments.Telemetry

let started = Telemetry.now ()
let out_dir = ".bench_build/perfbench"

let usage =
  "churnet_bench.exe (setup|run|trace) --workload NAME [--seed N] [--size full|tiny] \
   [--domains N]"

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("churnet_bench: " ^ s); exit 2) fmt

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let () =
  let mode = ref "" and workload = ref "" and seed = ref 42 and size = ref "full" in
  let domains = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed (default 42)");
      ("--size", Arg.Set_string size, "full|tiny problem size (tiny: harness self-tests)");
      ("--domains", Arg.Set_int domains, "N override the workload's domain count");
    ]
    (fun a -> if !mode = "" then mode := a else fail "unexpected argument %S" a)
    usage;
  let w =
    match Workloads.find !workload with
    | Some w -> w
    | None ->
        fail "unknown workload %S (valid: %s)" !workload
          (String.concat ", " (List.map (fun (w : Workloads.t) -> w.Workloads.name) Workloads.all))
  in
  let size =
    match !size with
    | "full" -> Workloads.Full
    | "tiny" -> Workloads.Tiny
    | s -> fail "unknown size %S (full|tiny)" s
  in
  if not (List.mem !mode [ "setup"; "run"; "trace" ]) then fail "%s" usage;
  let domains = if !domains > 0 then !domains else w.Workloads.domains in
  Unix.putenv "CHURNET_DOMAINS" (string_of_int domains);
  mkdir_p out_dir;
  let t0 =
    match Option.bind (Sys.getenv_opt "CHURNET_BENCH_T0") float_of_string_opt with
    | Some t -> t
    | None -> started
  in
  let trace =
    if !mode = "trace" then
      let words = if domains = 1 then Spans.domain_words else Spans.process_words in
      Some (Spans.create ~words (Printf.sprintf "%s-%d" w.Workloads.name !seed))
    else None
  in
  let measured = w.Workloads.prepare ~seed:!seed ~size ~out_dir ~trace in
  let t1 = Telemetry.now () in
  let setup_s = t1 -. t0 in
  let base =
    [
      ("mode", Json.String !mode);
      ("workload", Json.String w.Workloads.name);
      ("seed", Json.Int !seed);
      ("domains", Json.Int domains);
      ("ocaml", Json.String Sys.ocaml_version);
      ("setup_s", Json.Float setup_s);
    ]
  in
  if !mode = "setup" then print_endline (Json.to_string (Json.Obj base))
  else begin
    let gc0 = Gc.quick_stat () in
    let t2 = Telemetry.now () in
    let o =
      match trace with
      | None -> measured ()
      | Some t -> Spans.with_span t w.Workloads.name measured
    in
    let wall_s = Telemetry.now () -. t2 in
    let gc1 = Gc.quick_stat () in
    let spans_file =
      match trace with
      | None -> []
      | Some t ->
          let path =
            Filename.concat out_dir
              (Printf.sprintf "spans-%s-%d.jsonl" w.Workloads.name !seed)
          in
          let oc = open_out_bin path in
          output_string oc (Spans.to_jsonl t);
          close_out oc;
          [ ("spans_file", Json.String path) ]
    in
    let pairs l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l) in
    let verdicts l =
      Json.Arr
        (List.map (fun (c, ok) -> Json.Obj [ ("claim", Json.String c); ("holds", Json.Bool ok) ]) l)
    in
    print_endline
      (Json.to_string
         (Json.Obj
            (base
            @ [
                ("wall_s", Json.Float wall_s);
                ( "alloc_mwords",
                  Json.Float ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6) );
                ( "peak_rss_kb",
                  match Telemetry.peak_rss_kb () with Some kb -> Json.Int kb | None -> Json.Null );
                ("digest", Json.String o.Workloads.digest);
                ("checks", verdicts o.Workloads.checks);
                ("invariants", verdicts o.Workloads.invariants);
                ("extra", pairs o.Workloads.extra);
                ("layers", pairs o.Workloads.layers);
              ]
            @ spans_file)))
  end
