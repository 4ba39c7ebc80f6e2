(* Small contract checks that fit no other suite: the extension models'
   graph accessors after warm-up, the frontier flooding kernel against
   the full-rescan reference, out-slot and snapshot ordering, event
   capture through the hooks, codec reader bounds, JSON file output,
   Prng.float's range and a check's JSON serialization. *)

open Churnet_util
module Dyngraph = Churnet_graph.Dyngraph
module Snapshot = Churnet_graph.Snapshot
module Event_log = Churnet_graph.Event_log
module Flood = Churnet_core.Flood
module Capped_model = Churnet_core.Capped_model
module Lazy_regen_model = Churnet_core.Lazy_regen_model
module Report = Churnet_experiments.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- extension-model accessors --------------------------------------- *)

(* A warmed-up extension model holds about n nodes in a consistent graph. *)
let check_warm_graph name ~n graph =
  let pop = Dyngraph.alive_count graph in
  check_bool (name ^ ": population near n") true (pop > n / 2 && pop < 2 * n);
  match Dyngraph.check_invariants graph with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s invariants: %s" name e

let test_capped_model_accessors () =
  let m = Capped_model.create ~rng:(Prng.create 42) ~n:120 ~d:5 ~cap:10 () in
  Capped_model.warm_up m;
  check_warm_graph "capped" ~n:120 (Capped_model.graph m);
  check_bool "in-degree capped" true (Capped_model.max_in_degree m <= 10)

let test_lazy_regen_accessors () =
  let m = Lazy_regen_model.create ~rng:(Prng.create 43) ~n:100 ~d:4 ~period:0.5 () in
  Lazy_regen_model.warm_up m;
  check_warm_graph "lazy" ~n:100 (Lazy_regen_model.graph m)

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
  for slot = 0 to 2 do
    let dst = Dyngraph.out_slot g 5 slot in
    check_bool "raw slot is -1 or alive" true (dst = -1 || Dyngraph.is_alive g dst)
  done;
  let snap = Dyngraph.snapshot g in
  for i = 1 to Snapshot.n snap - 1 do
    check_bool "indices are oldest first" true
      (Snapshot.birth_of_index snap (i - 1) <= Snapshot.birth_of_index snap i)
  done;
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
  let g = Dyngraph.create ~rng:(Prng.create 51) ~d:2 ~regenerate:false () in
  let log = Event_log.create () in
  Event_log.attach log g;
  let id = Dyngraph.add_node g ~birth:0 in
  Dyngraph.kill g id;
  Event_log.detach log g;
  check_int "a birth and a death recorded" 2 (Event_log.length log);
  match (Event_log.events log).(1) with
  | Event_log.Death { id = dead } -> check_int "death id" id dead
  | _ -> Alcotest.fail "expected the death event last"

(* --- utility odds and ends ------------------------------------------- *)

let raises_codec_error f =
  match f () with _ -> false | exception Codec.Error _ -> true

let test_codec_reader_introspection () =
  let r = Codec.reader "abc" in
  check_bool "unread input is not the end" true
    (raises_codec_error (fun () -> Codec.expect_end r));
  check_int "first byte" (Char.code 'a') (Codec.read_u8 r);
  ignore (Codec.read_u8 r);
  ignore (Codec.read_u8 r);
  Codec.expect_end r;
  check_bool "reading past the end" true
    (raises_codec_error (fun () -> Codec.read_u8 r));
  let window = Codec.reader ~pos:1 ~limit:2 "abc" in
  check_int "windowed read" (Char.code 'b') (Codec.read_u8 window);
  Codec.expect_end window

(* [write_file] streams the document through the channel writer. *)
let test_json_to_channel () =
  let doc = Json.Obj [ ("a", Json.Int 1); ("b", Json.String "x") ] in
  let path = Filename.temp_file "churnet_json" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Json.write_file path doc;
      let got = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check string)
        "channel output matches to_string" (Json.to_string doc ^ "\n") got)

let test_report_check_to_json () =
  let c =
    Report.check ~claim:"coverage is total" ~expected:"1.0" ~measured:"1.0"
      ~holds:true
  in
  let s = Json.to_string (Report.to_json (Report.make ~id:"Z" ~title:"z" [ c ])) in
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
    Alcotest.test_case "capped model accessors" `Quick test_capped_model_accessors;
    Alcotest.test_case "lazy-regen accessors" `Quick test_lazy_regen_accessors;
    Alcotest.test_case "frontier kernel = full rescan" `Quick
      test_frontier_matches_full_rescan;
    Alcotest.test_case "graph accessors" `Quick test_graph_accessors;
    Alcotest.test_case "event log record" `Quick test_event_log_record;
    Alcotest.test_case "codec reader introspection" `Quick
      test_codec_reader_introspection;
    Alcotest.test_case "json to_channel" `Quick test_json_to_channel;
    Alcotest.test_case "report check_to_json" `Quick test_report_check_to_json;
  ]
