module Dyngraph = Churnet_graph.Dyngraph

type t = {
  base : Poisson_model.t;
  period : float;
  broken : (int, unit) Hashtbl.t; (* nodes with empty slots awaiting repair *)
  pending : Worklist.t; (* scratch for the maintenance tick and the death rule *)
  mutable next_tick : float;
}

let create ~rng ~n ~d ~period () =
  if period <= 0. then invalid_arg "Lazy_regen_model.create: period must be positive";
  {
    base = Poisson_model.create ~rng ~n ~d ~regenerate:false ();
    period;
    broken = Hashtbl.create 256;
    pending = Worklist.create ();
    next_tick = period;
  }

let graph t = Poisson_model.graph t.base

(* A uniform alive node other than [id] within 8 draws; -1 otherwise. *)
let pick_other g id =
  let cand = ref (-1) and tries = ref 8 in
  while !cand < 0 && !tries > 0 do
    decr tries;
    let c = Dyngraph.random_alive g in
    if c <> id then cand := c
  done;
  !cand

let missing t id = Poisson_model.d t.base - Dyngraph.out_degree (graph t) id

let repair t id =
  let g = graph t in
  if Dyngraph.is_alive g id then begin
    let progress = ref true in
    while missing t id > 0 && !progress do
      if Dyngraph.alive_count g < 2 then progress := false
      else begin
        let cand = pick_other g id in
        if cand < 0 || not (Dyngraph.connect g ~src:id ~dst:cand) then progress := false
      end
    done
  end

let maintenance t =
  Worklist.load t.pending t.broken;
  Hashtbl.reset t.broken;
  Worklist.iter t.pending (repair t)

(* The churn rule's death half: PDG's plain removal, except that each
   in-neighbor's lost slot is logged for the next maintenance tick.
   Births are PDG's uniform requests. *)
let add_uniform t round = ignore (Dyngraph.add_node (graph t) ~birth:round)

let death t victim = Worklist.kill_and_mark t.pending (graph t) t.broken victim

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
      if Dyngraph.is_alive g id then acc := !acc + missing t id)
    t.broken;
  !acc
