module Dyngraph = Churnet_graph.Dyngraph
module Poisson_model = Churnet_core.Poisson_model
module Prng = Churnet_util.Prng
module Worklist = Churnet_core.Worklist

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
  pending : Worklist.t; (* scratch for the maintenance pass and the death rule *)
}

let create ~rng ?(max_in = 125) ~n () =
  {
    base = Poisson_model.create ~rng ~n ~d:target_out ~regenerate:false ();
    max_in;
    rng;
    peers = Hashtbl.create 1024;
    deficient = Hashtbl.create 256;
    pending = Worklist.create ();
  }

let graph t = Poisson_model.graph t.base

(* Position of [addr] in the filled prefix of the table, -1 if absent.
   Entries past [fill] are always -1, and addresses are node ids >= 0. *)
let table_index peer addr =
  let idx = ref (-1) in
  for i = 0 to peer.fill - 1 do
    if peer.table.(i) = addr then idx := i
  done;
  !idx

let table_insert t peer addr =
  if addr >= 0 && table_index peer addr < 0 then
    if peer.fill < table_size then begin
      peer.table.(peer.fill) <- addr;
      peer.fill <- peer.fill + 1
    end
    else begin
      (* Random replacement keeps the table a moving sample. *)
      let i = Prng.int t.rng table_size in
      peer.table.(i) <- addr
    end

(* A uniform table entry, -1 for an empty table. *)
let table_random t peer = if peer.fill = 0 then -1 else peer.table.(Prng.int t.rng peer.fill)

(* Connected peers advertise a few random table entries to each other. *)
let gossip t a b =
  match Hashtbl.find t.peers a with
  | exception Not_found -> ()
  | pa -> (
      match Hashtbl.find t.peers b with
      | exception Not_found -> ()
      | pb ->
          for _ = 1 to gossip_size do
            table_insert t pb (table_random t pa);
            table_insert t pa (table_random t pb)
          done;
          table_insert t pa b;
          table_insert t pb a)

(* Whether an out-slot of [id] already points at [cand]. *)
let links_to g id cand =
  let found = ref false in
  for i = 0 to target_out - 1 do
    if Dyngraph.out_slot g id i = cand then found := true
  done;
  !found

let missing t id = target_out - Dyngraph.out_degree (graph t) id

let try_fill t id =
  match Hashtbl.find t.peers id with
  | exception Not_found -> ()
  | peer ->
      let g = graph t in
      let attempts = ref (4 * target_out) in
      while missing t id > 0 && !attempts > 0 do
        decr attempts;
        let cand = table_random t peer in
        if cand < 0 then attempts := 0
        else if
          cand <> id
          && Dyngraph.is_alive g cand
          && Dyngraph.in_degree_below g cand t.max_in
          && not (links_to g id cand)
        then begin
          if Dyngraph.connect g ~src:id ~dst:cand then gossip t id cand
        end
        else if not (Dyngraph.is_alive g cand) then begin
          (* Forget a dead address. *)
          let idx = table_index peer cand in
          if idx >= 0 then begin
            peer.table.(idx) <- peer.table.(peer.fill - 1);
            peer.table.(peer.fill - 1) <- -1;
            peer.fill <- peer.fill - 1
          end
        end
      done;
      if missing t id > 0 then Hashtbl.replace t.deficient id ()
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

(* Whoever pointed at the victim becomes deficient. *)
let death t victim =
  Worklist.kill_and_mark t.pending (graph t) t.deficient victim;
  Hashtbl.remove t.peers victim

let repair t id =
  if Dyngraph.is_alive (graph t) id then try_fill t id else Hashtbl.remove t.deficient id

let maintenance t =
  Worklist.load t.pending t.deficient;
  Worklist.iter t.pending (repair t)

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
  (* lint: allow no-hashtbl-order — pure integer sums over entries;
     addition commutes. *)
  Hashtbl.iter
    (fun _ peer ->
      acc := !acc + peer.fill;
      incr count)
    t.peers;
  if !count = 0 then nan else float_of_int !acc /. float_of_int !count
