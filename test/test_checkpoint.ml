(* Tests for the work-unit checkpoint journal: file round-trips, the
   meta identity guard, Parallel.map memoization (resumed runs take
   cache hits instead of recomputing), call-site numbering, invariance
   of both results and journal bytes under the domain count, and the
   crash_after fault-injection hook. *)

open Churnet_util

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let with_tmp f =
  let path = Filename.temp_file "churnet-ckpt-test" ".ckpt" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* Every test leaves the ambient journal slot empty, even on failure. *)
let with_installed j f =
  Checkpoint.install j;
  Fun.protect ~finally:Checkpoint.uninstall f

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let test_journal_roundtrip () =
  with_tmp (fun path ->
      let j = Checkpoint.create ~path ~every:1 ~meta:"test meta v1" in
      (* create writes an empty-but-valid journal immediately. *)
      let meta0, units0 = Checkpoint.inspect path in
      check_string "meta persisted at create" "test meta v1" meta0;
      check_int "no units yet" 0 units0;
      Checkpoint.record j ~site:0 ~index:0 [| 1; 2; 3 |];
      Checkpoint.record j ~site:0 ~index:1 [| 4 |];
      Checkpoint.record j ~site:1 ~index:0 "a string result";
      Checkpoint.flush j;
      let j' = Checkpoint.load ~path ~every:1 ~meta:"test meta v1" in
      check_int "units reloaded" 3 (Checkpoint.units j');
      check_bool "unit (0,0)" true
        (Checkpoint.find j' ~site:0 ~index:0 = Some [| 1; 2; 3 |]);
      check_bool "unit (0,1)" true (Checkpoint.find j' ~site:0 ~index:1 = Some [| 4 |]);
      check_bool "unit (1,0)" true
        (Checkpoint.find j' ~site:1 ~index:0 = Some "a string result");
      check_bool "absent unit" true
        (Checkpoint.find j' ~site:2 ~index:0 = (None : int option)))

let test_meta_mismatch () =
  with_tmp (fun path ->
      let j = Checkpoint.create ~path ~every:1 ~meta:"run A" in
      Checkpoint.record j ~site:0 ~index:0 42;
      Checkpoint.flush j;
      (match Checkpoint.load ~path ~every:1 ~meta:"run B" with
      | _ -> Alcotest.fail "load with wrong meta should raise Mismatch"
      | exception Checkpoint.Mismatch _ -> ());
      (* The file itself is fine: the right meta still loads. *)
      check_int "right meta loads" 1
        (Checkpoint.units (Checkpoint.load ~path ~every:1 ~meta:"run A")))

let test_corrupt_file_rejected () =
  with_tmp (fun path ->
      let j = Checkpoint.create ~path ~every:1 ~meta:"m" in
      Checkpoint.record j ~site:0 ~index:0 7;
      Checkpoint.flush j;
      let bytes = read_file path in
      let oc = open_out_bin path in
      output_string oc (String.sub bytes 0 (String.length bytes - 2));
      close_out oc;
      match Checkpoint.load ~path ~every:1 ~meta:"m" with
      | _ -> Alcotest.fail "truncated journal should raise Codec.Error"
      | exception Codec.Error _ -> ())

let test_parallel_memoizes () =
  with_tmp (fun path ->
      let input = Array.init 12 (fun i -> i) in
      let calls = Atomic.make 0 in
      let f x =
        Atomic.incr calls;
        (x * x) + 1
      in
      let j = Checkpoint.create ~path ~every:1 ~meta:"memo" in
      let first = with_installed j (fun () -> Parallel.map ~domains:1 f input) in
      Checkpoint.finalize j;
      check_int "computed every unit once" 12 (Atomic.get calls);
      (* Resume: same site (first map call after install), so every unit
         is a cache hit and [f] never runs again. *)
      let j' = Checkpoint.load ~path ~every:1 ~meta:"memo" in
      let again = with_installed j' (fun () -> Parallel.map ~domains:1 f input) in
      check_int "no recomputation on resume" 12 (Atomic.get calls);
      check_bool "identical results" true (first = again);
      check_int "restored count" 12 (Checkpoint.stats j').units_restored)

let test_site_numbering_counts_empty_calls () =
  (* Sites are allocated per map call in execution order, including calls
     over empty arrays — otherwise a crashed run that died before an
     empty call and a resumed run that skips it would number later sites
     differently and mispair cached results. *)
  with_tmp (fun path ->
      let j = Checkpoint.create ~path ~every:1 ~meta:"sites" in
      with_installed j (fun () ->
          ignore (Parallel.map ~domains:1 (fun x -> x + 1) [| 10 |]);
          ignore (Parallel.map ~domains:1 (fun x -> x) ([||] : int array));
          ignore (Parallel.map ~domains:1 (fun x -> x * 2) [| 5 |]));
      Checkpoint.finalize j;
      let j' = Checkpoint.load ~path ~every:1 ~meta:"sites" in
      check_bool "site 0 holds first call" true
        (Checkpoint.find j' ~site:0 ~index:0 = Some 11);
      check_bool "site 1 (the empty call) holds nothing" true
        (Checkpoint.find j' ~site:1 ~index:0 = (None : int option));
      check_bool "site 2 holds third call" true
        (Checkpoint.find j' ~site:2 ~index:0 = Some 10);
      (* A replay that performs the same three calls takes its hits at
         the right sites. *)
      let r =
        with_installed j' (fun () ->
            let a = Parallel.map ~domains:1 (fun _ -> 0) [| 10 |] in
            let b = Parallel.map ~domains:1 (fun x -> x) ([||] : int array) in
            let c = Parallel.map ~domains:1 (fun _ -> 0) [| 5 |] in
            (a.(0), Array.length b, c.(0)))
      in
      check_bool "replay hits, not the stub function" true (r = (11, 0, 10)))

let test_domains_invariance () =
  (* Same computation at 1 and 4 domains: identical results and
     byte-identical journal files (modulo field order, which the journal
     fixes by sorting on write). *)
  let compute path domains =
    let j = Checkpoint.create ~path ~every:1 ~meta:"domains" in
    let out =
      with_installed j (fun () ->
          Parallel.map ~domains
            (fun x ->
              let rng = Prng.create (1000 + x) in
              Array.init 8 (fun _ -> Prng.int rng 1_000_000))
            (Array.init 20 (fun i -> i)))
    in
    Checkpoint.finalize j;
    out
  in
  with_tmp (fun path1 ->
      with_tmp (fun path4 ->
          let r1 = compute path1 1 in
          let r4 = compute path4 4 in
          check_bool "results identical across domain counts" true (r1 = r4);
          check_string "journal files byte-identical"
            (Digest.to_hex (Digest.string (read_file path1)))
            (Digest.to_hex (Digest.string (read_file path4)))))

let test_parallel_stores_each_unit_once () =
  (* Three self-scheduling workers share one journal: every unit is
     claimed by exactly one of them, so one map stores exactly n units. *)
  with_tmp (fun path ->
      let n = 37 in
      let j = Checkpoint.create ~path ~every:4 ~meta:"once" in
      let out =
        with_installed j (fun () -> Parallel.map ~domains:3 (fun x -> x * x) (Array.init n Fun.id))
      in
      Checkpoint.finalize j;
      Alcotest.(check (array int)) "results" (Array.init n (fun x -> x * x)) out;
      check_int "units stored" n (Checkpoint.stats j).units_stored;
      check_int "units persisted" n (snd (Checkpoint.inspect path)))

let test_crash_after_fires_at_kth_tick () =
  let fired_at = ref 0 in
  let ticks = ref 0 in
  Checkpoint.crash_after 5 (fun () -> fired_at := !ticks + 1);
  for _ = 1 to 9 do
    Checkpoint.crash_tick ();
    incr ticks
  done;
  (* Disarm: a huge threshold this process will never reach. *)
  Checkpoint.crash_after max_int ignore;
  check_int "hook fired exactly at the 5th tick" 5 !fired_at

let test_cache_hits_do_not_tick () =
  (* Restored units must not advance the crash counter, or a resumed run
     armed with the same --crash-at would die at a different unit than
     the fresh run. *)
  with_tmp (fun path ->
      let input = Array.init 6 (fun i -> i) in
      let j = Checkpoint.create ~path ~every:1 ~meta:"tick" in
      ignore (with_installed j (fun () -> Parallel.map ~domains:1 (fun x -> x) input));
      Checkpoint.finalize j;
      let fired = ref false in
      Checkpoint.crash_after 1 (fun () -> fired := true);
      let j' = Checkpoint.load ~path ~every:1 ~meta:"tick" in
      ignore (with_installed j' (fun () -> Parallel.map ~domains:1 (fun x -> x) input));
      Checkpoint.finalize j';
      Checkpoint.crash_after max_int ignore;
      check_bool "no tick on an all-cache-hit replay" false !fired)

let suite =
  [
    ("journal round-trip", `Quick, test_journal_roundtrip);
    ("meta mismatch rejected", `Quick, test_meta_mismatch);
    ("corrupt file rejected", `Quick, test_corrupt_file_rejected);
    ("parallel map memoizes", `Quick, test_parallel_memoizes);
    ("site numbering counts empty calls", `Quick, test_site_numbering_counts_empty_calls);
    ("results and journal invariant in domains", `Quick, test_domains_invariance);
    ("parallel stores each unit once", `Quick, test_parallel_stores_each_unit_once);
    ("crash_after fires at kth tick", `Quick, test_crash_after_fires_at_kth_tick);
    ("cache hits do not tick", `Quick, test_cache_hits_do_not_tick);
  ]
