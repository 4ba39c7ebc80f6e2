module Dyngraph = Churnet_graph.Dyngraph

type t = {
  base : Poisson_model.t;
  cap : int;
  retries : int;
  deficient : (int, unit) Hashtbl.t; (* nodes with empty slots to repair *)
  pending : Worklist.t; (* scratch for the repair pass and the death rule *)
}

let create ~rng ?(retries = 16) ~n ~d ~cap () =
  if cap < 1 then invalid_arg "Capped_model.create: cap must be >= 1";
  {
    base = Poisson_model.create ~rng ~n ~d ~regenerate:false ();
    cap;
    retries;
    deficient = Hashtbl.create 256;
    pending = Worklist.create ();
  }

let graph t = Poisson_model.graph t.base

(* Sample a uniform alive candidate below the in-degree cap; -1 when
   the retry budget runs out. *)
let sample_below_cap t ~self =
  let g = graph t in
  if Dyngraph.alive_count g < 2 then -1
  else begin
    let found = ref (-1) and tries = ref t.retries in
    while !found < 0 && !tries > 0 do
      decr tries;
      let cand = Dyngraph.random_alive g in
      if cand <> self && Dyngraph.in_degree_below g cand t.cap then found := cand
    done;
    !found
  end

let missing t id = Poisson_model.d t.base - Dyngraph.out_degree (graph t) id

let try_fill t id =
  let g = graph t in
  if Dyngraph.is_alive g id then begin
    let progress = ref true in
    while missing t id > 0 && !progress do
      let cand = sample_below_cap t ~self:id in
      if cand < 0 || not (Dyngraph.connect g ~src:id ~dst:cand) then progress := false
    done;
    if missing t id > 0 then Hashtbl.replace t.deficient id ()
    else Hashtbl.remove t.deficient id
  end
  else Hashtbl.remove t.deficient id

(* The churn rule: a newborn issues no requests of its own (the repair
   pass fills its slots below the cap); a death parks a slot at each of
   the victim's in-neighbors. *)
let birth t round =
  let id = Dyngraph.add_node_with_targets (graph t) ~birth:round ~targets:[||] in
  Hashtbl.replace t.deficient id ()

let death t victim = Worklist.kill_and_mark t.pending (graph t) t.deficient victim

let step t =
  Poisson_model.step_with t.base ~birth ~death t;
  (* Repair pass. *)
  Worklist.load t.pending t.deficient;
  Worklist.iter t.pending (try_fill t)

let warm_up t =
  for _ = 1 to 12 * Poisson_model.n t.base do
    step t
  done

let snapshot t = Dyngraph.snapshot (graph t)
let flood ?max_rounds t = Flood.run_unit_time ?max_rounds ~step:(fun () -> step t) t.base

let max_in_degree t =
  let g = graph t in
  let worst = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      let x = Dyngraph.in_degree g id in
      if x > !worst then worst := x);
  !worst

let mean_out_degree t =
  let g = graph t in
  let acc = ref 0 and count = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      acc := !acc + Dyngraph.out_degree g id;
      incr count);
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count

let parked_slots t =
  let g = graph t in
  let acc = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun id () ->
      if Dyngraph.is_alive g id then acc := !acc + missing t id)
    t.deficient;
  !acc
