module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng

type t = {
  n : int;
  d : int;
  period : float;
  rng : Prng.t;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  broken : (int, unit) Hashtbl.t; (* nodes with empty slots awaiting repair *)
  mutable next_tick : float;
  mutable time : float;
}

let create ~rng ~n ~d ~period () =
  if period <= 0. then invalid_arg "Lazy_regen_model.create: period must be positive";
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  {
    n;
    d;
    period;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d ~regenerate:false ();
    churn = Poisson_churn.create ~rng:churn_rng ~n ();
    broken = Hashtbl.create 256;
    next_tick = period;
    time = 0.;
  }

let n t = t.n
let d t = t.d
let period t = t.period
let graph t = t.graph
let time t = t.time

let repair t id =
  if Dyngraph.is_alive t.graph id then begin
    let missing () = t.d - Dyngraph.out_degree t.graph id in
    let progress = ref true in
    while missing () > 0 && !progress do
      if Dyngraph.alive_count t.graph < 2 then progress := false
      else begin
        let rec pick tries =
          if tries = 0 then None
          else begin
            let cand = Dyngraph.random_alive t.graph in
            if cand <> id then Some cand else pick (tries - 1)
          end
        in
        match pick 8 with
        | Some cand -> if not (Dyngraph.connect t.graph ~src:id ~dst:cand) then progress := false
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

let step t =
  let alive = Dyngraph.alive_count t.graph in
  let decision, dt = Poisson_churn.decide t.churn ~alive in
  t.time <- t.time +. dt;
  (match decision with
  | Poisson_churn.Birth ->
      ignore (Dyngraph.add_node t.graph ~birth:(Poisson_churn.round t.churn))
  | Poisson_churn.Death ->
      let victim = Dyngraph.random_alive t.graph in
      let orphans = Dyngraph.in_neighbors t.graph victim in
      Dyngraph.kill t.graph victim;
      Hashtbl.remove t.broken victim;
      List.iter
        (fun u -> if Dyngraph.is_alive t.graph u then Hashtbl.replace t.broken u ())
        orphans);
  while t.time >= t.next_tick do
    maintenance t;
    t.next_tick <- t.next_tick +. t.period
  done

let advance_time t span =
  let deadline = t.time +. span in
  while t.time < deadline do
    step t
  done

let warm_up t =
  for _ = 1 to 12 * t.n do
    step t
  done

let snapshot t = Dyngraph.snapshot t.graph

(* Ids are monotone with birth, so the arena's birth-list tail is the
   youngest alive node — O(1), no cached id to invalidate. *)
let newest t = Dyngraph.newest_alive t.graph

let flood ?max_rounds t =
  Flood.run_unit_time ?max_rounds ~n:t.n ~graph:t.graph
    ~step:(fun () -> step t)
    ~time:(fun () -> t.time)
    ~newest:(fun () -> newest t)
    ()

let broken_slots t =
  let acc = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun id () ->
      if Dyngraph.is_alive t.graph id then
        acc := !acc + (t.d - Dyngraph.out_degree t.graph id))
    t.broken;
  !acc
