module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng

type t = {
  n : int;
  d : int;
  cap : int;
  retries : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  deficient : (int, unit) Hashtbl.t; (* nodes with empty slots to repair *)
  mutable time : float;
}

let create ~rng ?(retries = 16) ~n ~d ~cap () =
  if cap < 1 then invalid_arg "Capped_model.create: cap must be >= 1";
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  {
    n;
    d;
    cap;
    retries;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d ~regenerate:false ();
    churn = Poisson_churn.create ~rng:churn_rng ~n ();
    deficient = Hashtbl.create 256;
    time = 0.;
  }

let n t = t.n
let d t = t.d
let cap t = t.cap
let graph t = t.graph
let time t = t.time

(* Sample a uniform alive candidate below the in-degree cap. *)
let sample_below_cap t ~self =
  let alive = Dyngraph.alive_count t.graph in
  if alive < 2 then None
  else begin
    let rec go tries =
      if tries = 0 then None
      else begin
        let cand = Dyngraph.random_alive t.graph in
        if cand <> self && Dyngraph.in_degree t.graph cand < t.cap then Some cand
        else go (tries - 1)
      end
    in
    go t.retries
  end

let try_fill t id =
  if Dyngraph.is_alive t.graph id then begin
    let missing () = t.d - Dyngraph.out_degree t.graph id in
    let progress = ref true in
    while missing () > 0 && !progress do
      match sample_below_cap t ~self:id with
      | Some cand -> if not (Dyngraph.connect t.graph ~src:id ~dst:cand) then progress := false
      | None -> progress := false
    done;
    if missing () > 0 then Hashtbl.replace t.deficient id ()
    else Hashtbl.remove t.deficient id
  end
  else Hashtbl.remove t.deficient id

let step t =
  let alive = Dyngraph.alive_count t.graph in
  let decision, dt = Poisson_churn.decide t.churn ~alive in
  t.time <- t.time +. dt;
  (match decision with
  | Poisson_churn.Birth ->
      let id =
        Dyngraph.add_node_with_targets t.graph ~birth:(Poisson_churn.round t.churn)
          ~targets:[||]
      in
      Hashtbl.replace t.deficient id ()
  | Poisson_churn.Death ->
      let victim = Dyngraph.random_alive t.graph in
      let orphans = Dyngraph.in_neighbors t.graph victim in
      Dyngraph.kill t.graph victim;
      Hashtbl.remove t.deficient victim;
      List.iter
        (fun u -> if Dyngraph.is_alive t.graph u then Hashtbl.replace t.deficient u ())
        orphans);
  (* Repair pass. *)
  (* lint: allow no-hashtbl-order — repair order follows the table's
     insertion history, itself a pure function of the seed; replays are
     bit-identical. *)
  let pending = Hashtbl.fold (fun id () acc -> id :: acc) t.deficient [] in
  List.iter (try_fill t) pending

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

let max_in_degree t =
  let worst = ref 0 in
  Dyngraph.iter_alive t.graph (fun id ->
      let x = Dyngraph.in_degree t.graph id in
      if x > !worst then worst := x);
  !worst

let mean_out_degree t =
  let acc = ref 0 and count = ref 0 in
  Dyngraph.iter_alive t.graph (fun id ->
      acc := !acc + Dyngraph.out_degree t.graph id;
      incr count);
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count

let parked_slots t =
  let acc = ref 0 in
  (* lint: allow no-hashtbl-order — pure sum over entries; addition commutes. *)
  Hashtbl.iter
    (fun id () ->
      if Dyngraph.is_alive t.graph id then
        acc := !acc + (t.d - Dyngraph.out_degree t.graph id))
    t.deficient;
  !acc
