type entry = {
  id : string;
  title : string;
  group : string;
  run : seed:int -> scale:Scale.t -> Report.t;
}

let entry id title group run = { id; title; group; run }

let all =
  [
    entry "E1" "Isolated nodes in SDG (Lemma 3.5)" "table1" (fun ~seed ~scale ->
        Exp_isolated.e1 ~seed ~scale);
    entry "E2" "Isolated nodes in PDG (Lemma 4.10)" "table1" (fun ~seed ~scale ->
        Exp_isolated.e2 ~seed ~scale);
    entry "E3" "Large-set expansion of SDG (Lemma 3.6)" "table1" (fun ~seed ~scale ->
        Exp_expansion.e3 ~seed ~scale);
    entry "E4" "Large-set expansion of PDG (Lemma 4.11)" "table1" (fun ~seed ~scale ->
        Exp_expansion.e4 ~seed ~scale);
    entry "E5" "Vertex expansion of SDGR (Theorem 3.15)" "table1" (fun ~seed ~scale ->
        Exp_expansion.e5 ~seed ~scale);
    entry "E6" "Vertex expansion of PDGR (Theorem 4.16)" "table1" (fun ~seed ~scale ->
        Exp_expansion.e6 ~seed ~scale);
    entry "E7" "SDG flooding failure (Theorem 3.7)" "table1" (fun ~seed ~scale ->
        Exp_flooding.e7 ~seed ~scale);
    entry "E8" "SDG flooding coverage (Theorem 3.8)" "table1" (fun ~seed ~scale ->
        Exp_flooding.e8 ~seed ~scale);
    entry "E9" "PDG flooding (Theorems 4.12/4.13)" "table1" (fun ~seed ~scale ->
        Exp_flooding.e9 ~seed ~scale);
    entry "E10" "SDGR flooding time (Theorem 3.16)" "table1" (fun ~seed ~scale ->
        Exp_flooding.e10 ~seed ~scale);
    entry "E11" "PDGR flooding time (Theorem 4.20)" "table1" (fun ~seed ~scale ->
        Exp_flooding.e11 ~seed ~scale);
    entry "E12" "Poisson churn statistics (Lemmas 4.4/4.7/4.8)" "table1"
      (fun ~seed ~scale -> Exp_churn.e12 ~seed ~scale);
    entry "F1" "Flooding time vs n (all models)" "figures" (fun ~seed ~scale ->
        Exp_flooding.f1 ~seed ~scale);
    entry "F2" "Coverage vs d (SDG/PDG)" "figures" (fun ~seed ~scale ->
        Exp_flooding.f2 ~seed ~scale);
    entry "F3" "Isolated fraction vs d" "figures" (fun ~seed ~scale ->
        Exp_isolated.f3 ~seed ~scale);
    entry "F4" "Degree structure (SDGR/PDGR)" "figures" (fun ~seed ~scale ->
        Exp_degree.f4 ~seed ~scale);
    entry "F5" "Onion-skin layer growth" "figures" (fun ~seed ~scale ->
        Exp_onion.f5 ~seed ~scale);
    entry "F6" "Expansion profile vs set size" "figures" (fun ~seed ~scale ->
        Exp_expansion.f6 ~seed ~scale);
    entry "F7" "Static d-out baseline (Lemma B.1)" "figures" (fun ~seed ~scale ->
        Exp_expansion.f7 ~seed ~scale);
    entry "F8" "Edge-destination probabilities" "figures" (fun ~seed ~scale ->
        Exp_edgeprob.f8 ~seed ~scale);
    entry "F9" "Age demographics / KL divergence" "figures" (fun ~seed ~scale ->
        Exp_churn.f9 ~seed ~scale);
    entry "F10" "PDGR vs P2P protocol baselines" "figures" (fun ~seed ~scale ->
        Exp_p2p.f10 ~seed ~scale);
    entry "F11" "Async vs discretized flooding" "figures" (fun ~seed ~scale ->
        Exp_flooding.f11 ~seed ~scale);
    entry "F12" "Topology fingerprints (models vs P2P protocols)" "figures"
      (fun ~seed ~scale -> Exp_fingerprint.f12 ~seed ~scale);
    entry "F13" "Streaming predicts Poisson (Section 1.1)" "figures"
      (fun ~seed ~scale -> Exp_coupling.f13 ~seed ~scale);
    entry "F14" "In-degree law (Poisson(d a / n))" "figures" (fun ~seed ~scale ->
        Exp_degree_law.f14 ~seed ~scale);
    entry "E13" "XL tier: million-node PDG under live churn" "extensions"
      (fun ~seed ~scale -> Exp_xl.e13 ~seed ~scale);
    entry "X1" "Bounded-degree dynamics (Section 5 open question)" "extensions"
      (fun ~seed ~scale -> Exp_extensions.x1 ~seed ~scale);
    entry "X2" "Gossip instead of flooding" "extensions" (fun ~seed ~scale ->
        Exp_extensions.x2 ~seed ~scale);
    entry "X3" "Adversarial burst churn" "extensions" (fun ~seed ~scale ->
        Exp_extensions.x3 ~seed ~scale);
    entry "A1" "Ablation: regeneration latency" "extensions" (fun ~seed ~scale ->
        Exp_extensions.a1 ~seed ~scale);
    entry "T1" "Numeric verification of the paper's calculus claims" "theory"
      (fun ~seed ~scale -> Exp_theory.t1 ~seed ~scale);
    entry "R1" "Seed-sweep robustness of the w.h.p. claims" "theory"
      (fun ~seed ~scale -> Exp_coupling.r1 ~seed ~scale);
    entry "S1" "Lambda-normalization invariance (Section 1.1)" "theory"
      (fun ~seed ~scale -> Exp_lambda.s1 ~seed ~scale);
  ]

let find id =
  let target = String.uppercase_ascii id in
  List.find_opt (fun e -> String.uppercase_ascii e.id = target) all

let table1 = List.filter (fun e -> e.group = "table1") all
let figures = List.filter (fun e -> e.group = "figures") all
let extensions = List.filter (fun e -> e.group = "extensions") all
let theory = List.filter (fun e -> e.group = "theory") all

(* One cell by id, with the run parameters supplied by the caller (the
   sweep planner hands every cell its own seed and scale from the grid
   config) instead of the CLI's single baked-in --seed/--scale pair. *)
let run_cell ~id ~seed ~scale =
  match find id with
  | Some e -> e.run ~seed ~scale
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.run_cell: unknown experiment id %S (valid ids: %s)"
           id
           (String.concat ", " (List.map (fun e -> e.id) all)))

let summary reports =
  let table = Churnet_util.Table.create [ "id"; "experiment"; "result" ] in
  List.iter (fun r -> Churnet_util.Table.add_row table (Report.summary_row r)) reports;
  table

let reports_to_json ~seed ~scale ~domains timed =
  let module Json = Churnet_util.Json in
  Json.Obj
    [
      ("schema", Json.String "churnet-report/1");
      ("seed", Json.Int seed);
      ("scale", Json.String (Scale.to_string scale));
      ("domains", Json.Int domains);
      ( "reports",
        Json.Arr (List.map (fun (r, tm) -> Report.to_json ~telemetry:tm r) timed) );
    ]
