(* Exercises the exported API surface that no experiment driver happens
   to touch: the uniform model accessors (n / d / step / newest / ...),
   the frontier flooding kernel against the full-rescan reference, and
   the small utility entry points (codec reader introspection, JSON
   channel output, cross-entropy, union-find representatives).  Beyond
   the direct coverage, these tests are what keeps churnet-lint's
   dead-export rule honest: every val exported for callers outside the
   repo's own drivers is referenced here, so a *truly* dead export still
   fails the lint gate. *)

open Churnet_util
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Event_log = Churnet_graph.Event_log
module Flood = Churnet_core.Flood
module Burst_model = Churnet_core.Burst_model
module Capped_model = Churnet_core.Capped_model
module Lazy_regen_model = Churnet_core.Lazy_regen_model
module Bitcoin_like = Churnet_p2p.Bitcoin_like
module Cache_protocol = Churnet_p2p.Cache_protocol
module Local_update = Churnet_p2p.Local_update
module Rw_streaming = Churnet_p2p.Rw_streaming
module Report = Churnet_experiments.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let close ?(eps = 1e-9) msg a b = Alcotest.(check (float eps)) msg a b

(* --- model accessor surface ------------------------------------------ *)

let test_burst_model_accessors () =
  let m =
    Burst_model.create ~rng:(Prng.create 41) ~n:80 ~d:4 ~burst_every:7
      ~burst_size:5 ()
  in
  check_int "n" 80 (Burst_model.n m);
  check_int "d" 4 (Burst_model.d m);
  Burst_model.warm_up m;
  let r0 = Burst_model.round m in
  Burst_model.step m;
  check_int "round advances" (r0 + 1) (Burst_model.round m);
  check_bool "newest is alive" true
    (Dyngraph.is_alive (Burst_model.graph m) (Burst_model.newest m));
  let s = Burst_model.snapshot m in
  check_int "snapshot covers the alive population"
    (Dyngraph.alive_count (Burst_model.graph m))
    (Snapshot.n s)

let test_capped_model_accessors () =
  let m =
    Capped_model.create ~rng:(Prng.create 42) ~n:120 ~d:5 ~cap:10 ()
  in
  check_int "n" 120 (Capped_model.n m);
  check_int "d" 5 (Capped_model.d m);
  check_int "cap" 10 (Capped_model.cap m);
  let t0 = Capped_model.time m in
  Capped_model.step m;
  check_bool "step advances time" true (Capped_model.time m > t0);
  for _ = 1 to 20 do
    Capped_model.step m
  done;
  match Capped_model.newest m with
  | Some id ->
      check_bool "newest alive" true (Dyngraph.is_alive (Capped_model.graph m) id)
  | None -> Alcotest.fail "expected a newborn after churn steps"

let test_lazy_regen_accessors () =
  let m =
    Lazy_regen_model.create ~rng:(Prng.create 43) ~n:100 ~d:4 ~period:0.5 ()
  in
  check_int "n" 100 (Lazy_regen_model.n m);
  check_int "d" 4 (Lazy_regen_model.d m);
  close "period" 0.5 (Lazy_regen_model.period m);
  let t0 = Lazy_regen_model.time m in
  Lazy_regen_model.step m;
  check_bool "step advances time" true (Lazy_regen_model.time m > t0);
  match Lazy_regen_model.newest m with
  | Some id ->
      check_bool "newest alive" true
        (Dyngraph.is_alive (Lazy_regen_model.graph m) id)
  | None -> Alcotest.fail "expected a newborn after a churn step"

let test_p2p_accessors () =
  let btc = Bitcoin_like.create ~rng:(Prng.create 44) ~n:60 () in
  check_int "bitcoin n" 60 (Bitcoin_like.n btc);
  Bitcoin_like.step btc;
  (match Bitcoin_like.newest btc with
  | Some id ->
      check_bool "bitcoin newest alive" true
        (Dyngraph.is_alive (Bitcoin_like.graph btc) id)
  | None -> Alcotest.fail "expected a newborn after a churn step");
  let cp = Cache_protocol.create ~rng:(Prng.create 45) ~n:60 ~d:4 () in
  check_int "cache n" 60 (Cache_protocol.n cp);
  check_int "cache d" 4 (Cache_protocol.d cp);
  Cache_protocol.step cp;
  check_bool "cache newest alive" true
    (Dyngraph.is_alive (Cache_protocol.graph cp) (Cache_protocol.newest cp));
  let lu = Local_update.create ~rng:(Prng.create 46) ~n:60 ~d:4 () in
  check_int "local n" 60 (Local_update.n lu);
  check_int "local d" 4 (Local_update.d lu);
  Local_update.step lu;
  Local_update.run lu 5;
  check_bool "local newest alive" true
    (Dyngraph.is_alive (Local_update.graph lu) (Local_update.newest lu));
  let rw = Rw_streaming.create ~rng:(Prng.create 47) ~n:60 ~d:3 () in
  check_int "rw n" 60 (Rw_streaming.n rw);
  check_int "rw d" 3 (Rw_streaming.d rw);
  Rw_streaming.step rw;
  Rw_streaming.run rw 5;
  check_bool "rw newest alive" true
    (Dyngraph.is_alive (Rw_streaming.graph rw) (Rw_streaming.newest rw))

(* --- frontier kernel vs full rescan ---------------------------------- *)

(* On a static graph (no churn, so the frontier invariant is trivially
   maintained) the frontier hop must inform exactly the set the full
   rescan informs, round for round. *)
let test_frontier_matches_full_rescan () =
  let g = Dyngraph.create ~rng:(Prng.create 48) ~d:3 ~regenerate:false () in
  let n = 64 in
  for _ = 1 to n do
    ignore (Dyngraph.add_node g ~birth:0)
  done;
  let informed_a = Bitset.create n and informed_b = Bitset.create n in
  let frontier = Bitset.create n in
  let scratch = Intvec.create () in
  Bitset.add informed_a 0;
  Bitset.add informed_b 0;
  Bitset.add frontier 0;
  for round = 1 to 12 do
    Flood.expand_informed g informed_a scratch;
    Flood.expand_informed_frontier g informed_b frontier scratch;
    check_int
      (Printf.sprintf "round %d cardinal" round)
      (Bitset.cardinal informed_a)
      (Bitset.cardinal informed_b);
    for v = 0 to n - 1 do
      if Bitset.mem informed_a v <> Bitset.mem informed_b v then
        Alcotest.failf "round %d: node %d informed in one kernel only" round v
    done
  done;
  check_bool "flood made progress" true (Bitset.cardinal informed_a > 1)

(* --- graph-side accessors -------------------------------------------- *)

let test_graph_accessors () =
  let g = Dyngraph.create ~rng:(Prng.create 49) ~d:3 ~regenerate:false () in
  for _ = 1 to 10 do
    ignore (Dyngraph.add_node g ~birth:0)
  done;
  let raw = Dyngraph.out_slots_raw g 5 in
  check_int "raw slot array has d entries" 3 (Array.length raw);
  Array.iter
    (fun dst ->
      check_bool "raw slot is -1 or alive" true (dst = -1 || Dyngraph.is_alive g dst))
    raw;
  let snap = Dyngraph.snapshot g in
  let ages = Snapshot.indices_by_age snap in
  check_int "indices_by_age covers all indices" (Snapshot.n snap)
    (Array.length ages);
  Array.iteri (fun i idx -> check_int "oldest-first identity" i idx) ages;
  let total_out =
    let acc = ref 0 in
    for i = 0 to Snapshot.n snap - 1 do
      acc := !acc + Snapshot.out_degree snap i
    done;
    !acc
  in
  check_bool "out-degrees bounded by d per node" true
    (total_out <= 3 * Snapshot.n snap)

let test_event_log_record () =
  let log = Event_log.create () in
  Event_log.record log (Event_log.Birth { id = 0; birth = 0; targets = [||] });
  Event_log.record log (Event_log.Death { id = 0 });
  check_int "two synthetic events recorded" 2 (Event_log.length log);
  match (Event_log.events log).(1) with
  | Event_log.Death { id } -> check_int "death id" 0 id
  | _ -> Alcotest.fail "expected the death event last"

(* --- utility odds and ends ------------------------------------------- *)

let test_codec_reader_introspection () =
  let r = Codec.reader "abc" in
  check_int "remaining before reads" 3 (Codec.remaining r);
  check_bool "not at end" false (Codec.at_end r);
  ignore (Codec.read_u8 r);
  ignore (Codec.read_u8 r);
  check_int "remaining mid-stream" 1 (Codec.remaining r);
  ignore (Codec.read_u8 r);
  check_bool "at end after consuming" true (Codec.at_end r);
  check_int "nothing remaining" 0 (Codec.remaining r)

let test_json_to_channel () =
  let doc = Json.Obj [ ("a", Json.Int 1); ("b", Json.String "x") ] in
  let path = Filename.temp_file "churnet_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Json.to_channel oc doc;
      close_out oc;
      let ic = open_in_bin path in
      let len = in_channel_length ic in
      let got = really_input_string ic len in
      close_in ic;
      Alcotest.(check string)
        "channel output matches to_string" (Json.to_string doc) got)

let test_cross_entropy () =
  let p = [| 0.5; 0.5 |] in
  close "H(p,p) = ln 2" (log 2.) (Kl.cross_entropy p p);
  let q = [| 0.25; 0.75 |] in
  check_bool "Gibbs: H(p,q) >= H(p,p)" true
    (Kl.cross_entropy p q >= Kl.cross_entropy p p)

let test_acc_interval () =
  let acc = Stats.Acc.create () in
  List.iter (Stats.Acc.add acc) [ 1.; 2.; 3.; 4.; 5. ];
  close "stderr of the mean" (Stats.Acc.stddev acc /. sqrt 5.)
    (Stats.Acc.stderr_mean acc);
  let lo, hi = Stats.Acc.ci95 acc in
  check_bool "ci95 brackets the mean" true
    (lo < Stats.Acc.mean acc && Stats.Acc.mean acc < hi)

let test_union_find_find () =
  let uf = Union_find.create 4 in
  check_int "singleton is its own representative" 2 (Union_find.find uf 2);
  ignore (Union_find.union uf 0 1);
  check_int "merged elements share a representative"
    (Union_find.find uf 0) (Union_find.find uf 1)

let test_prng_float () =
  let rng = Prng.create 50 in
  for _ = 1 to 100 do
    let x = Prng.float rng 10. in
    check_bool "float in [0, bound)" true (x >= 0. && x < 10.)
  done

let test_report_check_to_json () =
  let c =
    Report.check ~claim:"coverage is total" ~expected:"1.0" ~measured:"1.0"
      ~holds:true
  in
  let s = Json.to_string (Report.check_to_json c) in
  check_bool "claim serialized" true
    (String.length s > 0
    &&
    let re = "coverage is total" in
    let rec contains i =
      i + String.length re <= String.length s
      && (String.sub s i (String.length re) = re || contains (i + 1))
    in
    contains 0)

let suite =
  [
    Alcotest.test_case "burst model accessors" `Quick test_burst_model_accessors;
    Alcotest.test_case "capped model accessors" `Quick test_capped_model_accessors;
    Alcotest.test_case "lazy-regen accessors" `Quick test_lazy_regen_accessors;
    Alcotest.test_case "p2p accessors" `Quick test_p2p_accessors;
    Alcotest.test_case "frontier kernel = full rescan" `Quick
      test_frontier_matches_full_rescan;
    Alcotest.test_case "graph accessors" `Quick test_graph_accessors;
    Alcotest.test_case "event log record" `Quick test_event_log_record;
    Alcotest.test_case "codec reader introspection" `Quick
      test_codec_reader_introspection;
    Alcotest.test_case "json to_channel" `Quick test_json_to_channel;
    Alcotest.test_case "cross entropy" `Quick test_cross_entropy;
    Alcotest.test_case "acc stderr and ci95" `Quick test_acc_interval;
    Alcotest.test_case "union-find representatives" `Quick test_union_find_find;
    Alcotest.test_case "prng float" `Quick test_prng_float;
    Alcotest.test_case "report check_to_json" `Quick test_report_check_to_json;
  ]
