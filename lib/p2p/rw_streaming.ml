module Dyngraph = Churnet_graph.Dyngraph
module Streaming_model = Churnet_core.Streaming_model
module Prng = Churnet_util.Prng

type t = { base : Streaming_model.t; rng : Prng.t; walk_length : int }

let create ~rng ~n ~d () =
  {
    base = Streaming_model.create ~rng:(Prng.split rng) ~n ~d ~regenerate:false ();
    rng;
    walk_length = 2 * int_of_float (Float.ceil (log (float_of_int n) /. log 2.));
  }

let graph t = Streaming_model.graph t.base

(* One token walk: start uniform, take [walk_length] uniform-neighbor
   steps (restarting from a uniform node when stuck on a degree-0 node). *)
let walk t =
  let g = graph t in
  if Dyngraph.alive_count g = 0 then -1
  else begin
    let pos = ref (Dyngraph.random_alive g) in
    for _ = 1 to t.walk_length do
      let next = Dyngraph.random_neighbor g t.rng !pos in
      pos := if next >= 0 then next else Dyngraph.random_alive g
    done;
    !pos
  end

(* The attachment rule: the newborn links to the endpoints of [d] walks. *)
let born t round =
  let targets = Array.init (Streaming_model.d t.base) (fun _ -> walk t) in
  Dyngraph.add_node_with_targets (graph t) ~birth:round ~targets

let kill t v = Dyngraph.kill (graph t) v
let step t = Streaming_model.step_with t.base ~die:kill ~born t

let warm_up t =
  for _ = 1 to 2 * Streaming_model.n t.base do
    step t
  done

let snapshot t = Dyngraph.snapshot (graph t)

let flood ?max_rounds t =
  Churnet_core.Flood.run_custom ?max_rounds ~graph:(graph t)
    ~step:(fun () -> step t)
    ~newest:(fun () -> Streaming_model.newest t.base)
    ~default_max_rounds:(4 * Streaming_model.n t.base) ()
