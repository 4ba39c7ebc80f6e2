module Dyngraph = Churnet_graph.Dyngraph

type t = {
  base : Poisson_model.t;
  period : float;
  broken : (int, unit) Hashtbl.t; (* nodes with empty slots awaiting repair *)
  mutable next_tick : float;
}

let create ~rng ~n ~d ~period () =
  if period <= 0. then invalid_arg "Lazy_regen_model.create: period must be positive";
  {
    base = Poisson_model.create ~rng ~n ~d ~regenerate:false ();
    period;
    broken = Hashtbl.create 256;
    next_tick = period;
  }

let graph t = Poisson_model.graph t.base

let repair t id =
  let g = graph t in
  if Dyngraph.is_alive g id then begin
    let missing () = Poisson_model.d t.base - Dyngraph.out_degree g id in
    let progress = ref true in
    while missing () > 0 && !progress do
      if Dyngraph.alive_count g < 2 then progress := false
      else begin
        let rec pick tries =
          if tries = 0 then None
          else begin
            let cand = Dyngraph.random_alive g in
            if cand <> id then Some cand else pick (tries - 1)
          end
        in
        match pick 8 with
        | Some cand -> if not (Dyngraph.connect g ~src:id ~dst:cand) then progress := false
        | None -> progress := false
      end
    done
  end

let maintenance t =
  (* lint: allow no-hashtbl-order — repair order follows the table's
     insertion history, itself a pure function of the seed; replays are
     bit-identical. *)
  let pending = Hashtbl.fold (fun id () acc -> id :: acc) t.broken [] in
  Hashtbl.reset t.broken;
  List.iter (repair t) pending

(* The churn rule's death half: PDG's plain removal, except that each
   in-neighbor's lost slot is logged for the next maintenance tick.
   Births are PDG's uniform requests. *)
let add_uniform t round = ignore (Dyngraph.add_node (graph t) ~birth:round)

let death t victim =
  let g = graph t in
  let orphans = Dyngraph.in_neighbors g victim in
  Dyngraph.kill g victim;
  Hashtbl.remove t.broken victim;
  List.iter (fun u -> if Dyngraph.is_alive g u then Hashtbl.replace t.broken u ()) orphans

let step t =
  Poisson_model.step_with t.base ~birth:add_uniform ~death t;
  while Poisson_model.time t.base >= t.next_tick do
    maintenance t;
    t.next_tick <- t.next_tick +. t.period
  done

let advance_time t span =
  let deadline = Poisson_model.time t.base +. span in
  while Poisson_model.time t.base < deadline do
    step t
  done

let warm_up t =
  for _ = 1 to 12 * Poisson_model.n t.base do
    step t
  done

let snapshot t = Dyngraph.snapshot (graph t)
let flood ?max_rounds t = Flood.run_unit_time ?max_rounds ~step:(fun () -> step t) t.base

let broken_slots t =
  let g = graph t in
  let acc = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun id () ->
      if Dyngraph.is_alive g id then
        acc := !acc + (Poisson_model.d t.base - Dyngraph.out_degree g id))
    t.broken;
  !acc
