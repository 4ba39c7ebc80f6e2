module Dyngraph = Churnet_graph.Dyngraph
module Poisson_churn = Churnet_churn.Poisson_churn
module Prng = Churnet_util.Prng

type peer_state = {
  table : int array; (* known addresses; -1 = empty entry *)
  mutable fill : int;
}

type t = {
  n : int;
  target_out : int;
  max_in : int;
  table_size : int;
  seed_size : int;
  gossip_size : int;
  rng : Prng.t;
  graph : Dyngraph.t;
  churn : Poisson_churn.t;
  peers : (int, peer_state) Hashtbl.t;
  deficient : (int, unit) Hashtbl.t; (* nodes below target out-degree *)
  mutable time : float;
}

let create ~rng ?(target_out = 8) ?(max_in = 125) ?(table_size = 64) ?(seed_size = 16)
    ?(gossip_size = 8) ~n () =
  let graph_rng = Prng.split rng in
  let churn_rng = Prng.split rng in
  {
    n;
    target_out;
    max_in;
    table_size;
    seed_size;
    gossip_size;
    rng;
    graph = Dyngraph.create ~rng:graph_rng ~d:target_out ~regenerate:false ();
    churn = Poisson_churn.create ~rng:churn_rng ~n ();
    peers = Hashtbl.create 1024;
    deficient = Hashtbl.create 256;
    time = 0.;
  }

let n t = t.n
let graph t = t.graph
let time t = t.time

let table_insert t peer addr =
  if addr >= 0 then begin
    let exists = Array.exists (fun a -> a = addr) peer.table in
    if not exists then
      if peer.fill < t.table_size then begin
        peer.table.(peer.fill) <- addr;
        peer.fill <- peer.fill + 1
      end
      else begin
        (* Random replacement keeps the table a moving sample. *)
        let i = Prng.int t.rng t.table_size in
        peer.table.(i) <- addr
      end
  end

let table_random t peer =
  if peer.fill = 0 then None else Some peer.table.(Prng.int t.rng peer.fill)

let peer_of t id = Hashtbl.find_opt t.peers id

(* Connected peers advertise a few random table entries to each other. *)
let gossip t a b =
  match (peer_of t a, peer_of t b) with
  | Some pa, Some pb ->
      for _ = 1 to t.gossip_size do
        (match table_random t pa with Some addr -> table_insert t pb addr | None -> ());
        match table_random t pb with Some addr -> table_insert t pa addr | None -> ()
      done;
      table_insert t pa b;
      table_insert t pb a
  | _ -> ()

let try_fill t id =
  match peer_of t id with
  | None -> ()
  | Some peer ->
      let missing () = t.target_out - Dyngraph.out_degree t.graph id in
      let attempts = ref (4 * t.target_out) in
      while missing () > 0 && !attempts > 0 do
        decr attempts;
        match table_random t peer with
        | None -> attempts := 0
        | Some cand ->
            if
              cand <> id
              && Dyngraph.is_alive t.graph cand
              && Dyngraph.in_degree t.graph cand < t.max_in
              && not (List.mem cand (Dyngraph.out_targets t.graph id))
            then begin
              if Dyngraph.connect t.graph ~src:id ~dst:cand then gossip t id cand
            end
            else if not (Dyngraph.is_alive t.graph cand) then begin
              (* Forget a dead address. *)
              let idx = ref (-1) in
              Array.iteri (fun i a -> if a = cand then idx := i) peer.table;
              if !idx >= 0 then begin
                peer.table.(!idx) <- peer.table.(peer.fill - 1);
                peer.table.(peer.fill - 1) <- -1;
                peer.fill <- peer.fill - 1
              end
            end
      done;
      if missing () > 0 then Hashtbl.replace t.deficient id ()
      else Hashtbl.remove t.deficient id

let birth t =
  let id = Dyngraph.add_node_with_targets t.graph ~birth:(Poisson_churn.round t.churn) ~targets:[||] in
  let peer = { table = Array.make t.table_size (-1); fill = 0 } in
  Hashtbl.replace t.peers id peer;
  (* DNS-seed bootstrap: a uniform sample of alive nodes. *)
  let alive = Dyngraph.alive_count t.graph in
  for _ = 1 to min t.seed_size (alive - 1) do
    let cand = Dyngraph.random_alive t.graph in
    if cand <> id then table_insert t peer cand
  done;
  Hashtbl.replace t.deficient id ()

let death t =
  let victim = Dyngraph.random_alive t.graph in
  (* Whoever pointed at the victim becomes deficient. *)
  let orphans = Dyngraph.in_neighbors t.graph victim in
  Dyngraph.kill t.graph victim;
  Hashtbl.remove t.peers victim;
  Hashtbl.remove t.deficient victim;
  List.iter (fun u -> if Dyngraph.is_alive t.graph u then Hashtbl.replace t.deficient u ())
    orphans

let maintenance t =
  let pending = Hashtbl.fold (fun id () acc -> id :: acc) t.deficient [] in
  List.iter
    (fun id -> if Dyngraph.is_alive t.graph id then try_fill t id else Hashtbl.remove t.deficient id)
    pending

let step t =
  let alive = Dyngraph.alive_count t.graph in
  let decision, dt = Poisson_churn.decide t.churn ~alive in
  t.time <- t.time +. dt;
  (match decision with
  | Poisson_churn.Birth -> birth t
  | Poisson_churn.Death -> death t);
  maintenance t

let warm_up t =
  for _ = 1 to 12 * t.n do
    step t
  done

let snapshot t = Dyngraph.snapshot t.graph

(* Ids are monotone with birth, so the arena's birth-list tail is the
   youngest alive node — O(1), no cached id to invalidate. *)
let newest t = Dyngraph.newest_alive t.graph

let flood ?max_rounds t =
  Churnet_core.Flood.run_unit_time ?max_rounds ~n:t.n ~graph:t.graph
    ~step:(fun () -> step t)
    ~time:(fun () -> t.time)
    ~newest:(fun () -> newest t)
    ()

let mean_out_degree t =
  let acc = ref 0 and count = ref 0 in
  Dyngraph.iter_alive t.graph (fun id ->
      acc := !acc + Dyngraph.out_degree t.graph id;
      incr count);
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count

let mean_table_fill t =
  let acc = ref 0 and count = ref 0 in
  Hashtbl.iter
    (fun _ peer ->
      acc := !acc + peer.fill;
      incr count)
    t.peers;
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count
