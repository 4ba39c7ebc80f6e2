(* E1 (Lemma 3.5), E2 (Lemma 4.10), F3 (isolated fraction vs d). *)

open Churnet_core
module Prng = Churnet_util.Prng
module Table = Churnet_util.Table

let census_for ?(watch = true) kind ~rng ~n ~d =
  match kind with
  | `SDG ->
      let m = Streaming_model.create ~rng ~n ~d ~regenerate:false () in
      Streaming_model.warm_up m;
      Isolated.census_streaming ~max_track:1000 ~watch m
  | `PDG ->
      let m = Poisson_model.create ~rng ~n ~d ~regenerate:false () in
      Poisson_model.warm_up m;
      Isolated.census_poisson ~max_track:500 ~watch m

let run_isolated ~id ~title kind ~seed ~scale =
  let n = Scale.pick scale ~smoke:800 ~standard:4000 ~full:20000 in
  let trials = Scale.pick scale ~smoke:1 ~standard:3 ~full:10 in
  let rng = Prng.create seed in
  let table =
    Table.create
      [ "d"; "population"; "isolated"; "frac"; "paper bound"; "bound/n"; "forever frac" ]
  in
  let checks = ref [] in
  List.iter
    (fun d ->
      let bound =
        match kind with
        | `SDG -> Isolated.paper_bound_sdg ~n ~d
        | `PDG -> Isolated.paper_bound_pdg ~n ~d
      in
      let isolated_total = ref 0 and pop_total = ref 0 in
      let forever_fracs = ref [] in
      let censuses =
        Churnet_util.Parallel.replicate ~rng ~trials (fun rng ->
            census_for kind ~rng ~n ~d)
      in
      Array.iter
        (fun (c : Isolated.census) ->
          isolated_total := !isolated_total + c.isolated_now;
          pop_total := !pop_total + c.population;
          if not (Float.is_nan c.forever_frac_of_tracked) then
            forever_fracs := c.forever_frac_of_tracked :: !forever_fracs)
        censuses;
      let mean_isolated = float_of_int !isolated_total /. float_of_int trials in
      let mean_pop = float_of_int !pop_total /. float_of_int trials in
      let forever =
        match !forever_fracs with
        | [] -> nan
        | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
      in
      Table.add_row table
        [
          string_of_int d;
          Table.fmt_float ~digits:0 mean_pop;
          Table.fmt_float ~digits:1 mean_isolated;
          Table.fmt_pct (mean_isolated /. mean_pop);
          Table.fmt_float ~digits:1 bound;
          Table.fmt_sci (bound /. float_of_int n);
          Table.fmt_pct forever;
        ];
      if d = 2 then begin
        checks :=
          Report.check_values
            ~claim:
              (Printf.sprintf
                 "%s snapshots contain Omega(n e^{-2d}) isolated nodes (d = %d)"
                 (match kind with `SDG -> "SDG" | `PDG -> "PDG")
                 d)
            ~expected:(Printf.sprintf ">= %.1f isolated nodes" bound)
            ~measured:(Printf.sprintf "%.1f isolated nodes on average" mean_isolated)
            ~expected_value:bound ~measured_value:mean_isolated
            ~holds:(mean_isolated >= bound)
          :: !checks;
        checks :=
          Report.check_values
            ~claim:"isolated nodes remain isolated for the rest of their lifetime"
            ~expected:"a constant fraction of them stay isolated until death"
            ~measured:(Printf.sprintf "%.1f%% of tracked isolated nodes stayed isolated" (100. *. forever))
            ~expected_value:0.25 ~measured_value:forever
            ~holds:(forever > 0.25)
          :: !checks
      end)
    [ 1; 2; 3; 4 ];
  Report.make ~id ~title ~tables:[ table ] (List.rev !checks)

let e1 ~seed ~scale =
  run_isolated ~id:"E1" ~title:"Isolated nodes in SDG (Lemma 3.5)" `SDG ~seed ~scale

let e2 ~seed ~scale =
  run_isolated ~id:"E2" ~title:"Isolated nodes in PDG (Lemma 4.10)" `PDG ~seed ~scale

(* F3: isolated fraction as a function of d, against the e^{-2d} law. *)
let f3 ~seed ~scale =
  let n = Scale.pick scale ~smoke:800 ~standard:4000 ~full:20000 in
  let ds = [ 1; 2; 3; 4; 5; 6 ] in
  let rng = Prng.create seed in
  let table = Table.create [ "d"; "SDG frac"; "PDG frac"; "(1/6)e^-2d"; "(1/18)e^-2d" ] in
  let sdg_series = ref [] and pdg_series = ref [] and law = ref [] in
  (* Pre-split in the historical order (SDG then PDG per d), then run all
     censuses in parallel. *)
  let jobs = ref [] in
  List.iter
    (fun d ->
      let r_sdg = Prng.split rng in
      let r_pdg = Prng.split rng in
      jobs := (`PDG, d, r_pdg) :: (`SDG, d, r_sdg) :: !jobs)
    ds;
  let censuses =
    Churnet_util.Parallel.map
      (fun (kind, d, rng) -> census_for ~watch:false kind ~rng ~n ~d)
      (Array.of_list (List.rev !jobs))
  in
  List.iteri
    (fun i d ->
      let c_sdg = censuses.(2 * i) in
      let c_pdg = censuses.((2 * i) + 1) in
      let b_sdg = Bounds.isolated_lower_sdg ~d in
      let b_pdg = Bounds.isolated_lower_pdg ~d in
      Table.add_row table
        [
          string_of_int d;
          Table.fmt_sci c_sdg.isolated_frac;
          Table.fmt_sci c_pdg.isolated_frac;
          Table.fmt_sci b_sdg;
          Table.fmt_sci b_pdg;
        ];
      sdg_series := (float_of_int d, c_sdg.isolated_frac) :: !sdg_series;
      pdg_series := (float_of_int d, c_pdg.isolated_frac) :: !pdg_series;
      law := (float_of_int d, b_sdg) :: !law)
    ds;
  let fig =
    Churnet_util.Asciiplot.plot ~logy:true ~title:"F3: isolated fraction vs d"
      ~xlabel:"d" ~ylabel:"isolated fraction"
      [
        { label = "SDG measured"; points = Array.of_list (List.rev !sdg_series) };
        { label = "PDG measured"; points = Array.of_list (List.rev !pdg_series) };
        { label = "(1/6) e^{-2d} bound"; points = Array.of_list (List.rev !law) };
      ]
  in
  (* The decay rate: log of the fraction should drop by ~1-2 per unit d.
     Only fit points with enough isolated nodes to be statistically
     meaningful (expected count >= 5), otherwise the tail is pure noise. *)
  let pts =
    List.rev_map (fun (dd, f) -> (dd, f)) !sdg_series
    |> List.filter (fun (_, f) -> f *. float_of_int n >= 5.)
    |> List.map (fun (dd, f) -> (dd, log f))
    |> Array.of_list
  in
  let fit = Churnet_util.Stats.linear_fit pts in
  Report.make ~id:"F3" ~title:"Isolated fraction decays exponentially in d"
    ~tables:[ table ] ~figures:[ fig ]
    [
      Report.check ~claim:"isolated fraction decays as e^{-Theta(d)}"
        ~expected:"log-fraction slope vs d clearly negative (between -3 and -0.7)"
        ~measured:(Printf.sprintf "slope %.2f (R2 %.3f) over %d points" fit.slope fit.r2 (Array.length pts))
        ~holds:(fit.slope < -0.7 && fit.slope > -3.0);
      Report.check ~claim:"measured fraction dominates the paper's lower bound"
        ~expected:"SDG fraction >= (1/6) e^{-2d} for every d"
        ~measured:"see table"
        ~holds:
          (List.for_all2
             (fun (_, f) (_, b) -> f >= b || f = 0.)
             (List.rev !sdg_series) (List.rev !law));
    ]
