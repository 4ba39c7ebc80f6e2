module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type t = { burst_every : int; burst_size : int; base : Streaming_model.t; mutable bursts : int }

let create ~rng ~n ~d ~burst_every ~burst_size () =
  if burst_every < 1 then invalid_arg "Burst_model.create: burst_every must be >= 1";
  if burst_size < 0 || burst_size >= n then
    invalid_arg "Burst_model.create: burst_size must be in [0, n)";
  {
    burst_every;
    burst_size;
    base = Streaming_model.create ~rng:(Prng.split rng) ~n ~d ~regenerate:true ();
    bursts = 0;
  }

let graph t = Streaming_model.graph t.base

(* The adversary removes [burst_size] uniformly random alive nodes
   (excluding this round's newborn so a flooding source cannot be erased
   by the burst that coincides with its birth) and inserts the same
   number of fresh nodes, each creating its d uniform requests. *)
let fire_burst t =
  t.bursts <- t.bursts + 1;
  let g = graph t in
  let newborn = Streaming_model.newest t.base in
  for _ = 1 to t.burst_size do
    if Dyngraph.alive_count g > 2 then begin
      let rec victim tries =
        let v = Dyngraph.random_alive g in
        if v <> newborn || tries = 0 then v else victim (tries - 1)
      in
      Dyngraph.kill g (victim 8)
    end
  done;
  for _ = 1 to t.burst_size do
    ignore (Dyngraph.add_node g ~birth:(Streaming_model.round t.base))
  done

let step t =
  Streaming_model.step t.base;
  (* A node killed early by a burst leaves a hole in the deterministic
     death schedule (its scheduled round kills nobody); compensate with a
     uniformly random death so the population stays pinned at n. *)
  let g = graph t in
  let newborn = Streaming_model.newest t.base in
  while Dyngraph.alive_count g > Streaming_model.n t.base do
    let rec victim tries =
      let v = Dyngraph.random_alive g in
      if v <> newborn || tries = 0 then v else victim (tries - 1)
    in
    Dyngraph.kill g (victim 8)
  done;
  if Streaming_model.round t.base mod t.burst_every = 0 && t.burst_size > 0 then
    fire_burst t

let warm_up t =
  for _ = 1 to 2 * Streaming_model.n t.base do
    step t
  done

let flood ?max_rounds t =
  Flood.run_custom ?max_rounds ~graph:(graph t)
    ~step:(fun () -> step t)
    ~newest:(fun () -> Streaming_model.newest t.base)
    ~default_max_rounds:(4 * Streaming_model.n t.base) ()

let bursts_fired t = t.bursts
