module Dyngraph = Churnet_graph.Dyngraph
module Poisson_model = Churnet_core.Poisson_model
module Prng = Churnet_util.Prng

type peer_state = {
  table : int array; (* known addresses; -1 = empty entry *)
  mutable fill : int;
}

(* Bitcoin Core's outbound target, and the address-table sizes of the
   bootstrap and gossip rules. *)
let target_out = 8
let table_size = 64
let seed_size = 16
let gossip_size = 8

type t = {
  base : Poisson_model.t;
  max_in : int;
  rng : Prng.t;
  peers : (int, peer_state) Hashtbl.t;
  deficient : (int, unit) Hashtbl.t; (* nodes below target out-degree *)
}

let create ~rng ?(max_in = 125) ~n () =
  {
    base = Poisson_model.create ~rng ~n ~d:target_out ~regenerate:false ();
    max_in;
    rng;
    peers = Hashtbl.create 1024;
    deficient = Hashtbl.create 256;
  }

let graph t = Poisson_model.graph t.base

let table_insert t peer addr =
  if addr >= 0 then begin
    let exists = Array.exists (fun a -> a = addr) peer.table in
    if not exists then
      if peer.fill < table_size then begin
        peer.table.(peer.fill) <- addr;
        peer.fill <- peer.fill + 1
      end
      else begin
        (* Random replacement keeps the table a moving sample. *)
        let i = Prng.int t.rng table_size in
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
      for _ = 1 to gossip_size do
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
      let g = graph t in
      let missing () = target_out - Dyngraph.out_degree g id in
      let attempts = ref (4 * target_out) in
      while missing () > 0 && !attempts > 0 do
        decr attempts;
        match table_random t peer with
        | None -> attempts := 0
        | Some cand ->
            if
              cand <> id
              && Dyngraph.is_alive g cand
              && Dyngraph.in_degree g cand < t.max_in
              && not (List.mem cand (Dyngraph.out_targets g id))
            then begin
              if Dyngraph.connect g ~src:id ~dst:cand then gossip t id cand
            end
            else if not (Dyngraph.is_alive g cand) then begin
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

let birth t round =
  let g = graph t in
  let id = Dyngraph.add_node_with_targets g ~birth:round ~targets:[||] in
  let peer = { table = Array.make table_size (-1); fill = 0 } in
  Hashtbl.replace t.peers id peer;
  (* DNS-seed bootstrap: a uniform sample of alive nodes. *)
  let alive = Dyngraph.alive_count g in
  for _ = 1 to min seed_size (alive - 1) do
    let cand = Dyngraph.random_alive g in
    if cand <> id then table_insert t peer cand
  done;
  Hashtbl.replace t.deficient id ()

let death t victim =
  let g = graph t in
  (* Whoever pointed at the victim becomes deficient. *)
  let orphans = Dyngraph.in_neighbors g victim in
  Dyngraph.kill g victim;
  Hashtbl.remove t.peers victim;
  Hashtbl.remove t.deficient victim;
  List.iter (fun u -> if Dyngraph.is_alive g u then Hashtbl.replace t.deficient u ()) orphans

let maintenance t =
  let pending = Hashtbl.fold (fun id () acc -> id :: acc) t.deficient [] in
  List.iter
    (fun id -> if Dyngraph.is_alive (graph t) id then try_fill t id else Hashtbl.remove t.deficient id)
    pending

let step t =
  Poisson_model.step_with t.base ~birth ~death t;
  maintenance t

let warm_up t =
  for _ = 1 to 12 * Poisson_model.n t.base do
    step t
  done

let snapshot t = Dyngraph.snapshot (graph t)

let flood ?max_rounds t =
  Churnet_core.Flood.run_unit_time ?max_rounds ~step:(fun () -> step t) t.base

let mean_out_degree t =
  let g = graph t in
  let acc = ref 0 and count = ref 0 in
  Dyngraph.iter_alive g (fun id ->
      acc := !acc + Dyngraph.out_degree g id;
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
