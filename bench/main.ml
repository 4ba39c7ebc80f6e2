(* The benchmark harness.

   Part 1 regenerates the paper's results: every cell of Table 1 (the
   paper's only table — experiments E1-E12), the derived figures F1-F14,
   the extension studies X1-X3/A1 and the theory checks T1/R1, each
   printed as a paper-vs-measured report with its tables and ASCII
   charts.  Scale via CHURNET_BENCH_SCALE=smoke|standard|full
   (default standard) and CHURNET_BENCH_SEED (default 42).

   Part 2 times the core primitives with Bechamel: one Test.make per
   experiment family, measuring the operation that dominates that
   table/figure's runtime. *)

open Bechamel
open Bechamel.Toolkit
module Registry = Churnet_experiments.Registry
module Report = Churnet_experiments.Report
module Scale = Churnet_experiments.Scale
module Telemetry = Churnet_experiments.Telemetry
module Json = Churnet_util.Json
module Models = Churnet_core.Models
module Prng = Churnet_util.Prng

let scale =
  match Sys.getenv_opt "CHURNET_BENCH_SCALE" with
  | Some s -> (
      match Scale.of_string s with
      | Some v -> v
      | None -> failwith (Printf.sprintf "bad CHURNET_BENCH_SCALE %S" s))
  | None -> Scale.Standard

let seed =
  match Sys.getenv_opt "CHURNET_BENCH_SEED" with
  | Some s -> int_of_string s
  | None -> 42

(* Validate CHURNET_DOMAINS up front (raises on a malformed value) so a
   typo fails the run immediately rather than at the first parallel
   experiment.  Thanks to deterministic pre-splitting every experiment is
   bit-identical whatever this is set to. *)
let domains = Churnet_util.Parallel.domains_from_env ()

(* Where the machine-readable trajectory goes: per-experiment wall time
   and GC deltas, every check, and the Bechamel estimates — one file per
   (seed, scale) so runs are diffable across commits. *)
let bench_json_path =
  match Sys.getenv_opt "CHURNET_BENCH_JSON" with
  | Some p -> p
  | None -> Printf.sprintf "BENCH_%d_%s.json" seed (Scale.to_string scale)

(* ------------------------------------------------------------------ *)
(* Part 1: regenerate Table 1 and the figures.                         *)
(* ------------------------------------------------------------------ *)

let run_experiments () =
  Printf.printf
    "churnet benchmark harness — scale %s, seed %d, %d domain(s)\n\
     Regenerating Table 1 (E1-E12), figures (F1-F14), extensions\n\
     (X1-X3, A1) and theory checks (T1, R1).\n%!"
    (Scale.to_string scale) seed domains;
  let timed =
    List.map
      (fun (e : Registry.entry) ->
        Printf.printf "... %s %s\n%!" e.id e.title;
        let (r, tm) =
          Telemetry.measure ~seed ~scale ~domains (fun () -> e.run ~seed ~scale)
        in
        Printf.printf "    done in %.1fs\n%!" tm.Telemetry.wall_seconds;
        (r, tm))
      Registry.all
  in
  let reports = List.map fst timed in
  List.iter (fun r -> print_string (Report.render r)) reports;
  print_newline ();
  print_endline "==================== SUMMARY ====================";
  Churnet_util.Table.print (Registry.summary reports);
  let failed = List.filter (fun r -> not (Report.all_hold r)) reports in
  (if failed = [] then print_endline "All paper-direction checks hold."
   else
     Printf.printf "%d experiment(s) with failing checks: %s\n" (List.length failed)
       (String.concat ", " (List.map (fun (r : Report.t) -> r.id) failed)));
  timed

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks of the core primitives.           *)
(* ------------------------------------------------------------------ *)

let make_model kind ~n ~d =
  let m = Models.create ~rng:(Prng.create 9) kind ~n ~d in
  Models.warm_up_batch m;
  m

(* One Test.make per experiment family: the dominating primitive. *)
let tests () =
  let n = 2000 and d = 8 in
  let sdg = make_model Models.SDG ~n ~d in
  let sdgr = make_model Models.SDGR ~n ~d in
  let pdg = make_model Models.PDG ~n ~d in
  let pdgr = make_model Models.PDGR ~n ~d in
  let snap_model = make_model Models.SDGR ~n ~d in
  let snap = Models.snapshot snap_model in
  let probe_rng = Prng.create 17 in
  let flood_model = make_model Models.SDGR ~n ~d:21 in
  let onion_rng = Prng.create 19 in
  let btc = Churnet_p2p.Bitcoin_like.create ~rng:(Prng.create 23) ~n () in
  Churnet_p2p.Bitcoin_like.warm_up btc;
  [
    (* E1/E2/F3 are dominated by churn rounds of the plain models. *)
    Test.make ~name:"E1+F3 SDG churn round" (Staged.stage (fun () -> Models.advance sdg 1));
    Test.make ~name:"E2 PDG churn unit-time" (Staged.stage (fun () -> Models.advance pdg 1));
    (* E5/E10: regenerating streaming model. *)
    Test.make ~name:"E5+E10 SDGR churn round" (Staged.stage (fun () -> Models.advance sdgr 1));
    (* E6/E11: regenerating Poisson model. *)
    Test.make ~name:"E6+E11 PDGR churn unit-time"
      (Staged.stage (fun () -> Models.advance pdgr 1));
    (* E3-E6/F6/F7: snapshot extraction + expansion probing. *)
    Test.make ~name:"E3-E6 snapshot build"
      (Staged.stage (fun () -> ignore (Models.snapshot snap_model)));
    Test.make ~name:"F6 expansion of one random set"
      (Staged.stage (fun () ->
           let size = 200 in
           let idx =
             Prng.sample_without_replacement probe_rng size
               (Churnet_graph.Snapshot.n snap)
           in
           let set = Churnet_graph.Snapshot.set_of_indices snap idx in
           ignore (Churnet_graph.Snapshot.expansion snap set)));
    (* E7-E11/F1/F2: one full flood. *)
    Test.make ~name:"E10+F1 full SDGR flood n=2000"
      (Staged.stage (fun () -> ignore (Models.flood flood_model)));
    (* F5: one onion-skin realization. *)
    Test.make ~name:"F5 onion-skin run n=20000 d=100"
      (Staged.stage (fun () ->
           ignore (Churnet_core.Onion.run ~rng:(Prng.split onion_rng) ~n:20000 ~d:100 ())));
    (* E12/F9: graph-free churn jump. *)
    Test.make ~name:"E12+F9 Poisson churn decide"
      (let churn = Churnet_churn.Poisson_churn.create ~rng:(Prng.create 29) ~n:2000 () in
       Staged.stage (fun () ->
           ignore (Churnet_churn.Poisson_churn.decide churn ~alive:2000)));
    (* F10: Bitcoin-like maintenance step. *)
    Test.make ~name:"F10 bitcoin-like churn step"
      (Staged.stage (fun () -> Churnet_p2p.Bitcoin_like.step btc));
    (* F4/F8: degree/slot accounting. *)
    Test.make ~name:"F4+F8 degree census"
      (Staged.stage (fun () ->
           let g = Models.graph sdgr in
           let acc = ref 0 in
           Churnet_graph.Dyngraph.iter_alive g (fun id ->
               acc := !acc + Churnet_graph.Dyngraph.out_degree g id);
           ignore !acc));
  ]

let run_bechamel () =
  print_newline ();
  print_endline "==================== MICRO-BENCHMARKS (Bechamel) ====================";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let grouped = Test.make_grouped ~name:"churnet" ~fmt:"%s %s" (tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let estimates =
    match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
    | None -> []
    | Some by_name ->
        let rows =
          Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) by_name []
        in
        let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
        List.map
          (fun (name, ols_result) ->
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> (name, Some t)
            | _ -> (name, None))
          rows
  in
  let table = Churnet_util.Table.create [ "benchmark"; "time per run" ] in
  List.iter
    (fun (name, ns) ->
      let estimate =
        match ns with
        | Some t ->
            if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
            else Printf.sprintf "%.0f ns" t
        | None -> "n/a"
      in
      Churnet_util.Table.add_row table [ name; estimate ])
    estimates;
  Churnet_util.Table.print table;
  estimates

(* ------------------------------------------------------------------ *)
(* The machine-readable trajectory: BENCH_<seed>_<scale>.json.         *)
(* ------------------------------------------------------------------ *)

let write_bench_json timed estimates =
  let doc =
    Json.Obj
      [
        ("schema", Json.String "churnet-bench/1");
        ("seed", Json.Int seed);
        ("scale", Json.String (Scale.to_string scale));
        ("domains", Json.Int domains);
        ( "experiments",
          Json.Arr
            (List.map (fun (r, tm) -> Report.to_json ~telemetry:tm r) timed) );
        ( "microbenchmarks",
          Json.Arr
            (List.map
               (fun (name, ns) ->
                 Json.Obj
                   [
                     ("name", Json.String name);
                     ("ns_per_run", Json.float_opt ns);
                   ])
               estimates) );
      ]
  in
  Json.write_file ~pretty:true bench_json_path doc;
  Printf.printf "\nwrote %s\n" bench_json_path

let () =
  let timed = run_experiments () in
  let estimates = run_bechamel () in
  write_bench_json timed estimates
