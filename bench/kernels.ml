(* Kernel head-to-heads for the allocation-free simulation kernels and
   the deterministic multicore replication layer.

   Part 1 (Bechamel): old-vs-new [expand_informed] — the historical
   hashtable + list-returning-neighbors kernel (kept verbatim in
   [Bench_refs]) against [Flood.expand_informed] (bitset informed set +
   allocation-free neighbor iteration).

   Part 2 (wall clock): the E10 experiment (SDGR flooding completion)
   run serially (CHURNET_DOMAINS=1) and in parallel (CHURNET_DOMAINS=4),
   with the rendered reports compared byte-for-byte: the replication
   layer pre-splits one PRNG per trial, so the parallel run must be
   bit-identical to the serial one.

   Part 3 (wall clock + GC): the slot-arena graph core against the
   pre-arena hashtable core: churn-jump throughput, snapshot build, and
   words allocated per jump.  Both cores use the canonical regeneration
   order, so they consume the PRNG identically — the measurement asserts
   the final alive sets match before trusting the timings.

   Part 4 (wall clock + GC): the word-level [Bitset.iter] against the
   byte-at-a-time scan it replaced, and the frontier flooding driver
   ([Flood.expand_informed_frontier]) against full-rescan hops.

   Part 5 (wall clock + GC): the XL-tier kernels — the batched churn
   runner ([Poisson_model.run_rounds]) against the per-jump
   [step] loop, checked byte-identical through the checkpoint encoding,
   and the streaming snapshot statistics ([Stream_stats.collect])
   against the materialize-CSR-then-derive path, checked field-equal
   (floats bitwise).  The process's peak RSS (VmHWM) is reported next to
   the timings.

   Parts 3-5 write their numbers to KERNELS_<seed>_<scale>.json
   (override with CHURNET_KERNELS_JSON); [compare.exe] measures the same
   kernels through the same [Bench_refs] harness and gates them against
   the blessed baselines in bench/baseline/.

   Scale via CHURNET_BENCH_SCALE=smoke|standard|full (default standard)
   and CHURNET_BENCH_SEED (default 42). *)

open Bechamel
open Bechamel.Toolkit
module Dyngraph = Churnet_graph.Dyngraph
module Models = Churnet_core.Models
module Flood = Churnet_core.Flood
module Registry = Churnet_experiments.Registry
module Report = Churnet_experiments.Report
module Scale = Churnet_experiments.Scale
module Prng = Churnet_util.Prng
module Bitset = Churnet_util.Bitset
module Intvec = Churnet_util.Intvec
module Refs = Bench_refs

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

(* ------------------------------------------------------------------ *)
(* Part 1: old vs new expand_informed.                                 *)
(* ------------------------------------------------------------------ *)

let kernel_tests () =
  let n = 2000 and d = 8 in
  let m = Models.create ~rng:(Prng.create 9) Models.SDGR ~n ~d in
  Models.warm_up_batch m;
  let graph = Models.graph m in
  let alive = Dyngraph.alive_ids graph in
  (* Seed informed sets of two sizes: a sparse one (the early rounds of a
     flood, informed-side scan) and a half-covered one (the late rounds,
     uninformed-side scan). *)
  let seed_set k = Array.sub alive 0 (max 1 (Array.length alive / k)) in
  let sparse = seed_set 50 in
  let half = seed_set 2 in
  let informed_bs = Bitset.create n in
  let scratch = Intvec.create ~capacity:1024 () in
  let new_hop seed_ids () =
    Bitset.clear informed_bs;
    Array.iter
      (fun id ->
        Bitset.ensure_capacity informed_bs (id + 1);
        Bitset.add informed_bs id)
      seed_ids;
    Flood.expand_informed graph informed_bs scratch;
    ignore (Bitset.cardinal informed_bs)
  in
  let old_hop seed_ids () =
    let informed = Hashtbl.create 1024 in
    Array.iter (fun id -> Hashtbl.replace informed id ()) seed_ids;
    Refs.old_expand_informed graph informed;
    ignore (Hashtbl.length informed)
  in
  [
    Test.make ~name:"expand sparse old (hashtbl+lists)" (Staged.stage (old_hop sparse));
    Test.make ~name:"expand sparse new (bitset+iters)" (Staged.stage (new_hop sparse));
    Test.make ~name:"expand half old (hashtbl+lists)" (Staged.stage (old_hop half));
    Test.make ~name:"expand half new (bitset+iters)" (Staged.stage (new_hop half));
  ]

let run_bechamel () =
  print_endline "==================== KERNELS (Bechamel) ====================";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let grouped = Test.make_grouped ~name:"kernels" ~fmt:"%s %s" (kernel_tests ()) in
  let raw = Benchmark.all cfg instances grouped in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  let merged = Analyze.merge ols instances results in
  let table = Churnet_util.Table.create [ "benchmark"; "time per run" ] in
  (match Hashtbl.find_opt merged (Measure.label Instance.monotonic_clock) with
  | None -> ()
  | Some by_name ->
      let rows =
        Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc) by_name []
      in
      let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
      List.iter
        (fun (name, ols_result) ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) ->
                if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
                else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
                else Printf.sprintf "%.0f ns" t
            | _ -> "n/a"
          in
          Churnet_util.Table.add_row table [ name; estimate ])
        rows);
  Churnet_util.Table.print table

(* ------------------------------------------------------------------ *)
(* Part 2: serial vs parallel E10, bit-identical by construction.      *)
(* ------------------------------------------------------------------ *)

let run_e10 ~domains =
  Unix.putenv "CHURNET_DOMAINS" (string_of_int domains);
  let entry =
    match Registry.find "E10" with Some e -> e | None -> failwith "E10 not registered"
  in
  let t0 = Unix.gettimeofday () in
  let report = entry.Registry.run ~seed ~scale in
  let dt = Unix.gettimeofday () -. t0 in
  (Report.render report, dt)

let run_replication () =
  print_newline ();
  print_endline "==================== REPLICATION (E10 serial vs parallel) ====================";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "scale %s, seed %d, %d core(s) available\n%!" (Scale.to_string scale)
    seed cores;
  let serial_render, serial_dt = run_e10 ~domains:1 in
  Printf.printf "  CHURNET_DOMAINS=1: %.2fs\n%!" serial_dt;
  let par_render, par_dt = run_e10 ~domains:4 in
  Printf.printf "  CHURNET_DOMAINS=4: %.2fs\n%!" par_dt;
  Printf.printf "  speedup: %.2fx%s\n" (serial_dt /. par_dt)
    (if cores < 2 then " (single-core host: no wall-clock gain expected)" else "");
  if String.equal serial_render par_render then
    print_endline "  reports bit-identical across domain counts: OK"
  else begin
    print_endline "  MISMATCH: serial and parallel E10 reports differ!";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Parts 3 + 4: measured kernels, shared with compare.exe.             *)
(* ------------------------------------------------------------------ *)

module Json = Churnet_util.Json

let kernels_json_path =
  match Sys.getenv_opt "CHURNET_KERNELS_JSON" with
  | Some p -> p
  | None -> Printf.sprintf "KERNELS_%d_%s.json" seed (Scale.to_string scale)

let run_graph_core () =
  print_newline ();
  print_endline
    "==================== GRAPH CORE (slot arena vs hashtable) ====================";
  let c = Refs.measure_graph_core ~seed ~scale in
  Printf.printf "n=%d d=%d, %d churn jumps, %d snapshot builds\n%!" Refs.core_n
    Refs.core_d c.Refs.jumps c.Refs.builds;
  print_endline "  cores state-identical after the jump script: OK";
  let jump_speedup = c.Refs.churn_old_dt /. c.Refs.churn_new_dt in
  Printf.printf "  churn jump old (hashtbl core): %8.0f ns/jump, %7.1f words/jump\n"
    (Refs.per_jump_ns c c.Refs.churn_old_dt)
    (Refs.words_per_jump c c.Refs.churn_old_words);
  Printf.printf "  churn jump new (slot arena):   %8.0f ns/jump, %7.1f words/jump\n"
    (Refs.per_jump_ns c c.Refs.churn_new_dt)
    (Refs.words_per_jump c c.Refs.churn_new_words);
  Printf.printf "  churn-jump speedup: %.2fx%s\n" jump_speedup
    (if jump_speedup >= 2.0 then "" else "  (below the 2x target!)");
  let snap_speedup = c.Refs.snap_old_dt /. c.Refs.snap_new_dt in
  Printf.printf "  snapshot build old (adj arrays + id hashtable): %8.1f us\n"
    (Refs.per_build_us c c.Refs.snap_old_dt);
  Printf.printf "  snapshot build new (CSR, slot-indexed):         %8.1f us\n"
    (Refs.per_build_us c c.Refs.snap_new_dt);
  Printf.printf "  snapshot-build speedup: %.2fx  (directed half-edges seen: %d)\n"
    snap_speedup c.Refs.edge_sink;
  c

let run_scan_kernels () =
  print_newline ();
  print_endline
    "==================== BITSET SCAN (word-level vs byte-at-a-time) ====================";
  let s = Refs.measure_bitset_scan ~seed ~scale in
  Printf.printf "%d bits, sparse (1/64) + half-full populations, %d scans/side\n%!"
    s.Refs.bits s.Refs.scans;
  let speedup = s.Refs.scan_old_dt /. s.Refs.scan_new_dt in
  Printf.printf "  scan old (byte-at-a-time): %8.1f us/scan\n"
    (Refs.per_scan_us s s.Refs.scan_old_dt);
  Printf.printf "  scan new (word-level):     %8.1f us/scan\n"
    (Refs.per_scan_us s s.Refs.scan_new_dt);
  Printf.printf "  bitset-scan speedup: %.2fx  (visit-order checksum: %d)\n" speedup
    s.Refs.scan_sink;
  s

let run_flood_kernels () =
  print_newline ();
  print_endline
    "==================== FLOOD HOP (frontier vs full rescan) ====================";
  let f = Refs.measure_flood_hop ~seed ~scale in
  Printf.printf "SDG n=%d d=%d, %d complete floods under churn, %d rounds total\n%!"
    Refs.core_n Refs.flood_d f.Refs.floods f.Refs.total_hops;
  print_endline "  frontier and full-rescan floods informed identical sets: OK";
  let speedup = f.Refs.flood_old_dt /. f.Refs.flood_new_dt in
  Printf.printf "  flood hop old (full rescan): %8.0f ns/hop, %7.1f words/hop\n"
    (Refs.per_hop_ns f f.Refs.flood_old_dt)
    (Refs.words_per_hop f f.Refs.flood_old_words);
  Printf.printf "  flood hop new (frontier):    %8.0f ns/hop, %7.1f words/hop\n"
    (Refs.per_hop_ns f f.Refs.flood_new_dt)
    (Refs.words_per_hop f f.Refs.flood_new_words);
  Printf.printf "  flood-hop speedup: %.2fx\n" speedup;
  f

let run_batched_kernels () =
  print_newline ();
  print_endline
    "==================== BATCHED CHURN (bulk draws vs per-jump) ====================";
  let b = Refs.measure_churn_batched ~seed ~scale in
  Printf.printf "PDGR n=%d d=%d, %d churn jumps/side\n%!" Refs.batched_n Refs.batched_d
    b.Refs.bjumps;
  print_endline "  batched and per-jump models byte-identical (checkpoint encoding): OK";
  let speedup = b.Refs.batched_old_dt /. b.Refs.batched_new_dt in
  Printf.printf "  churn old (per-jump step):  %8.0f ns/jump, %7.1f words/jump\n"
    (Refs.per_bjump_ns b b.Refs.batched_old_dt)
    (Refs.words_per_bjump b b.Refs.batched_old_words);
  Printf.printf "  churn new (batched draws):  %8.0f ns/jump, %7.1f words/jump\n"
    (Refs.per_bjump_ns b b.Refs.batched_new_dt)
    (Refs.words_per_bjump b b.Refs.batched_new_words);
  Printf.printf "  batched-churn speedup: %.2fx\n" speedup;
  b

let run_stream_kernels () =
  print_newline ();
  print_endline
    "==================== STREAM STATS (arena pass vs CSR) ====================";
  let st = Refs.measure_stream_stats ~seed ~scale in
  Printf.printf "PDG n=%d d=%d, %d statistics passes/side\n%!" Refs.core_n Refs.batched_d
    st.Refs.stat_reps;
  print_endline "  streaming and CSR statistics field-identical (floats bitwise): OK";
  let speedup = st.Refs.stream_old_dt /. st.Refs.stream_new_dt in
  Printf.printf "  stats old (CSR snapshot + derive): %8.1f us/pass, %9.1f words/pass\n"
    (Refs.per_stat_us st st.Refs.stream_old_dt)
    (st.Refs.stream_old_words /. float_of_int st.Refs.stat_reps);
  Printf.printf "  stats new (streaming collect):     %8.1f us/pass, %9.1f words/pass\n"
    (Refs.per_stat_us st st.Refs.stream_new_dt)
    (st.Refs.stream_new_words /. float_of_int st.Refs.stat_reps);
  Printf.printf "  stream-stats speedup: %.2fx  (isolated-count checksum: %d)\n" speedup
    st.Refs.stat_sink;
  st

let write_json c s f b st =
  let fields =
      [
        ("schema", Json.String "churnet-kernels/1");
        ("seed", Json.Int seed);
        ("scale", Json.String (Scale.to_string scale));
        ( "graph_core",
          Json.Obj
            [
              ("n", Json.Int Refs.core_n);
              ("d", Json.Int Refs.core_d);
              ("jumps", Json.Int c.Refs.jumps);
              ("snapshot_builds", Json.Int c.Refs.builds);
              ("state_identical", Json.Bool true);
              ( "churn_jump",
                Json.Obj
                  [
                    ("old_ns_per_jump", Json.of_finite (Refs.per_jump_ns c c.Refs.churn_old_dt));
                    ("new_ns_per_jump", Json.of_finite (Refs.per_jump_ns c c.Refs.churn_new_dt));
                    ("speedup", Json.of_finite (c.Refs.churn_old_dt /. c.Refs.churn_new_dt));
                    ( "old_words_per_jump",
                      Json.of_finite (Refs.words_per_jump c c.Refs.churn_old_words) );
                    ( "new_words_per_jump",
                      Json.of_finite (Refs.words_per_jump c c.Refs.churn_new_words) );
                  ] );
              ( "snapshot_build",
                Json.Obj
                  [
                    ("old_us_per_build", Json.of_finite (Refs.per_build_us c c.Refs.snap_old_dt));
                    ("new_us_per_build", Json.of_finite (Refs.per_build_us c c.Refs.snap_new_dt));
                    ("speedup", Json.of_finite (c.Refs.snap_old_dt /. c.Refs.snap_new_dt));
                    ( "old_words_per_build",
                      Json.of_finite (c.Refs.snap_old_words /. float_of_int c.Refs.builds) );
                    ( "new_words_per_build",
                      Json.of_finite (c.Refs.snap_new_words /. float_of_int c.Refs.builds) );
                  ] );
            ] );
        ( "bitset_scan",
          Json.Obj
            [
              ("bits", Json.Int s.Refs.bits);
              ("scans_per_side", Json.Int s.Refs.scans);
              ("old_us_per_scan", Json.of_finite (Refs.per_scan_us s s.Refs.scan_old_dt));
              ("new_us_per_scan", Json.of_finite (Refs.per_scan_us s s.Refs.scan_new_dt));
              ("speedup", Json.of_finite (s.Refs.scan_old_dt /. s.Refs.scan_new_dt));
              ("visit_order_identical", Json.Bool true);
            ] );
        ( "flood_hop",
          Json.Obj
            [
              ("n", Json.Int Refs.core_n);
              ("d", Json.Int Refs.flood_d);
              ("floods", Json.Int f.Refs.floods);
              ("total_hops", Json.Int f.Refs.total_hops);
              ("old_ns_per_hop", Json.of_finite (Refs.per_hop_ns f f.Refs.flood_old_dt));
              ("new_ns_per_hop", Json.of_finite (Refs.per_hop_ns f f.Refs.flood_new_dt));
              ("speedup", Json.of_finite (f.Refs.flood_old_dt /. f.Refs.flood_new_dt));
              ( "old_words_per_hop",
                Json.of_finite (Refs.words_per_hop f f.Refs.flood_old_words) );
              ( "new_words_per_hop",
                Json.of_finite (Refs.words_per_hop f f.Refs.flood_new_words) );
              ("informed_sets_identical", Json.Bool true);
            ] );
        ( "churn_batched",
          Json.Obj
            [
              ("n", Json.Int Refs.batched_n);
              ("d", Json.Int Refs.batched_d);
              ("jumps", Json.Int b.Refs.bjumps);
              ("old_ns_per_jump", Json.of_finite (Refs.per_bjump_ns b b.Refs.batched_old_dt));
              ("new_ns_per_jump", Json.of_finite (Refs.per_bjump_ns b b.Refs.batched_new_dt));
              ("speedup", Json.of_finite (b.Refs.batched_old_dt /. b.Refs.batched_new_dt));
              ( "old_words_per_jump",
                Json.of_finite (Refs.words_per_bjump b b.Refs.batched_old_words) );
              ( "new_words_per_jump",
                Json.of_finite (Refs.words_per_bjump b b.Refs.batched_new_words) );
              ("state_identical", Json.Bool true);
            ] );
        ( "stream_stats",
          Json.Obj
            [
              ("n", Json.Int Refs.core_n);
              ("d", Json.Int Refs.batched_d);
              ("reps", Json.Int st.Refs.stat_reps);
              ("old_us_per_stat", Json.of_finite (Refs.per_stat_us st st.Refs.stream_old_dt));
              ("new_us_per_stat", Json.of_finite (Refs.per_stat_us st st.Refs.stream_new_dt));
              ("speedup", Json.of_finite (st.Refs.stream_old_dt /. st.Refs.stream_new_dt));
              ( "old_words_per_stat",
                Json.of_finite (st.Refs.stream_old_words /. float_of_int st.Refs.stat_reps) );
              ( "new_words_per_stat",
                Json.of_finite (st.Refs.stream_new_words /. float_of_int st.Refs.stat_reps) );
              ("stats_identical", Json.Bool true);
            ] );
      ]
      @
      match Churnet_experiments.Telemetry.peak_rss_kb () with
      | Some kb -> [ ("peak_rss_kb", Json.Int kb) ]
      | None -> []
  in
  let doc = Json.Obj fields in
  Json.write_file ~pretty:true kernels_json_path doc;
  Printf.printf "  wrote %s\n" kernels_json_path

let () =
  run_bechamel ();
  run_replication ();
  let c = run_graph_core () in
  let s = run_scan_kernels () in
  let f = run_flood_kernels () in
  let b = run_batched_kernels () in
  let st = run_stream_kernels () in
  write_json c s f b st
