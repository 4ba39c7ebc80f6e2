module Dyngraph = Churnet_graph.Dyngraph
module Streaming_model = Churnet_core.Streaming_model
module Prng = Churnet_util.Prng

(* Probability that a newborn enters the cache. *)
let join_probability = 0.5

type t = {
  base : Streaming_model.t;
  rng : Prng.t;
  cache_size : int;
  cache : int array; (* -1 = empty entry *)
}

let create ~rng ?(cache_size = 32) ~n ~d () =
  {
    base = Streaming_model.create ~rng:(Prng.split rng) ~n ~d ~regenerate:false ();
    rng;
    cache_size;
    cache = Array.make cache_size (-1);
  }

let graph t = Streaming_model.graph t.base

let refresh_cache t =
  (* Replace dead (or empty) entries with uniform alive nodes. *)
  let g = graph t in
  if Dyngraph.alive_count g > 0 then
    Array.iteri
      (fun i entry ->
        if entry < 0 || not (Dyngraph.is_alive g entry) then
          t.cache.(i) <- Dyngraph.random_alive g)
      t.cache

(* The attachment rule: the newborn links to [d] cache entries and then
   joins the cache with probability [join_probability]. *)
let born t round =
  refresh_cache t;
  let targets =
    Array.init (Streaming_model.d t.base) (fun _ -> t.cache.(Prng.int t.rng t.cache_size))
  in
  let id = Dyngraph.add_node_with_targets (graph t) ~birth:round ~targets in
  if Prng.bernoulli t.rng join_probability then
    t.cache.(Prng.int t.rng t.cache_size) <- id;
  id

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
