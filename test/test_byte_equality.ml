(* Byte-equality harness for the graph-core swap.

   The golden files under test/golden/ were rendered by the
   hashtable-backed Dyngraph *before* the slot-arena rewrite, with the
   regeneration draw order already canonicalized (in-neighbors ascending,
   slots in index order — see Dyngraph.kill's doc).  The arena core must
   consume the PRNG in exactly the same sequence, so every experiment
   report and the full record/replay event stream must match those files
   byte for byte.  Any drift here means the graph rewrite changed the
   simulated trajectories, not just their cost.

   Regenerating (only after an *intentional* behavior change):
     CHURNET_GOLDEN_OUT=$PWD/test/golden dune exec test/test_main.exe -- \
       test byte-equality *)

open Churnet_graph
module Registry = Churnet_experiments.Registry
module Report = Churnet_experiments.Report
module Scale = Churnet_experiments.Scale
module Prng = Churnet_util.Prng

let golden_seed = 42
(* E1/E10/F4/F6/F8/F14 pin the paper's core cells.  The rest pin the
   cells that drive each churn-advance and flood path outside them:
   Capped_model (X1), Lazy_regen_model (A1), the p2p overlays + PDGR (F10),
   Flood.Async + discretized flooding (F11), Gossip (X2), the arrival-rate
   sweep (S1), the isolated-node census (E2), the p2p overlay snapshots
   (F12) and Burst_model (X3).  F2, F3 and F5 pin the cells that print a
   paper bound next to the measurement (Theorem 3.8, Lemma 3.5 / 4.10 and
   Lemma 3.9), so the bound's single home in Bounds is checked end to end. *)
let experiment_ids =
  [ "E1"; "E10"; "F4"; "F6"; "F8"; "F14"; "X1"; "A1"; "F10"; "F11"; "X2"; "S1"; "E2";
    "F12"; "X3"; "F2"; "F3"; "F5" ]

let experiment_render id =
  match Registry.find id with
  | Some e -> Report.render (e.Registry.run ~seed:golden_seed ~scale:Scale.Smoke)
  | None -> Alcotest.failf "unknown experiment %s" id

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

(* A full record/replay cycle on a regenerating graph under scripted
   churn: the event-log text captures the exact hook sequence (births
   with their sampled targets, every regeneration edge, deaths), i.e.
   the complete observable draw history of the run. *)
let record_replay_text () =
  let g = Dyngraph.create ~rng:(Prng.create 4242) ~d:3 ~regenerate:true () in
  let log = Event_log.create () in
  Event_log.attach log g;
  let rng = Prng.create 999 in
  for i = 1 to 150 do
    if Dyngraph.alive_count g > 3 && Prng.bernoulli rng 0.4 then
      Dyngraph.kill g (Dyngraph.random_alive g)
    else ignore (Dyngraph.add_node g ~birth:i)
  done;
  Event_log.detach log g;
  let live = Dyngraph.snapshot g in
  let replayed = Event_log.replay log in
  Alcotest.(check bool) "replay reconstructs the live topology" true
    (snapshots_equal live replayed);
  Event_log.to_string log ^ "-- replay --\n" ^ Snapshot.to_dot ~name:"replay" replayed

let cases = List.map (fun id -> (id, fun () -> experiment_render id)) experiment_ids

let all_cases = cases @ [ ("record_replay", record_replay_text) ]

let golden_path name = Filename.concat "golden" (name ^ ".txt")

let read_file path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let check_case (name, produce) () =
  match Sys.getenv_opt "CHURNET_GOLDEN_OUT" with
  | Some dir ->
      write_file (Filename.concat dir (name ^ ".txt")) (produce ());
      Printf.printf "wrote %s/%s.txt\n%!" dir name
  | None ->
      let expected =
        try read_file (golden_path name)
        with Sys_error e -> Alcotest.failf "missing golden file for %s: %s" name e
      in
      let actual = produce () in
      if not (String.equal expected actual) then
        Alcotest.failf
          "%s output drifted from its golden file (%d bytes vs %d): the graph \
           core changed the PRNG draw sequence"
          name (String.length expected) (String.length actual)

let suite =
  List.map (fun case -> (fst case, `Quick, check_case case)) all_cases
