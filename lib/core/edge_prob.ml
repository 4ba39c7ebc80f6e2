module Dyngraph = Churnet_graph.Dyngraph
module Prng = Churnet_util.Prng

type bucket = {
  age_lo : int;
  age_hi : int;
  p_older : float;
  p_younger : float;
  predicted_older : float;
  bound_younger : float;
  samples : int;
}

type raw = {
  mutable slots_to_older : int;
  mutable slots_to_younger : int;
  mutable pair_slots_older : float; (* sum over sampled u of d * #older(u) *)
  mutable pair_slots_younger : float;
  mutable count : int;
}

let new_raw () =
  { slots_to_older = 0; slots_to_younger = 0; pair_slots_older = 0.;
    pair_slots_younger = 0.; count = 0 }

(* Aggregate one snapshot of [graph] into [raws], bucketing node ages with
   [bucket_of].  [age_of] gives a node's age; [older_count age] the number
   of alive nodes strictly older. *)
let aggregate graph ~bucket_of ~age_of =
  let ids = Dyngraph.alive_ids graph in
  Array.sort Int.compare ids;
  let total = Array.length ids in
  (* ids sorted ascending = youngest last; index i has (total - 1 - i)
     younger nodes?  ids ascend with birth order, so smaller id = older.
     For node at sorted position p (0 = oldest), #older = p. *)
  Array.iteri
    (fun pos id ->
      let age = age_of id in
      match bucket_of age with
      | None -> ()
      | Some raw ->
          let older = pos and younger = total - 1 - pos in
          let d = Dyngraph.d graph in
          raw.pair_slots_older <- raw.pair_slots_older +. float_of_int (d * older);
          raw.pair_slots_younger <- raw.pair_slots_younger +. float_of_int (d * younger);
          raw.count <- raw.count + 1;
          List.iter
            (fun target ->
              if target < id then raw.slots_to_older <- raw.slots_to_older + 1
              else raw.slots_to_younger <- raw.slots_to_younger + 1)
            (Dyngraph.out_targets graph id))
    ids

let finalize raws ~bounds ~predicted_older ~bound_younger =
  Array.mapi
    (fun i raw ->
      let lo, hi = bounds i in
      let mid = (lo + hi) / 2 in
      {
        age_lo = lo;
        age_hi = hi;
        p_older =
          (if raw.pair_slots_older > 0. then
             float_of_int raw.slots_to_older /. raw.pair_slots_older
           else nan);
        p_younger =
          (if raw.pair_slots_younger > 0. then
             float_of_int raw.slots_to_younger /. raw.pair_slots_younger
           else nan);
        predicted_older = predicted_older mid;
        bound_younger;
        samples = raw.count;
      })
    raws

let measure_streaming ~rng ~n ~d ~regenerate ~snapshots ~buckets () =
  let model = Streaming_model.create ~rng ~n ~d ~regenerate () in
  Streaming_model.warm_up model;
  let width = max 1 (n / buckets) in
  let raws = Array.init buckets (fun _ -> new_raw ()) in
  let bucket_of age =
    if age < 1 || age > n then None
    else begin
      let b = min (buckets - 1) ((age - 1) / width) in
      Some raws.(b)
    end
  in
  for _ = 1 to snapshots do
    let graph = Streaming_model.graph model in
    aggregate graph ~bucket_of ~age_of:(fun id -> Streaming_model.age_of model id);
    Streaming_model.run model (n / 2)
  done;
  let fn = float_of_int n in
  finalize raws
    ~bounds:(fun i -> ((i * width) + 1, min n ((i + 1) * width)))
    ~predicted_older:(fun mid ->
      if regenerate then Bounds.edge_prob_older_sdgr ~n ~age:mid else 1. /. (fn -. 1.))
    ~bound_younger:(1. /. (fn -. 1.))

let measure_poisson ~rng ~n ~d ~regenerate ~snapshots ~buckets () =
  let model = Poisson_model.create ~rng ~n ~d ~regenerate () in
  Poisson_model.warm_up model;
  let max_age = 4 * n in
  let width = max 1 (max_age / buckets) in
  let raws = Array.init buckets (fun _ -> new_raw ()) in
  let bucket_of age =
    if age < 0 || age >= max_age then None
    else Some raws.(min (buckets - 1) (age / width))
  in
  for _ = 1 to snapshots do
    let graph = Poisson_model.graph model in
    let now = Poisson_model.round model in
    aggregate graph ~bucket_of
      ~age_of:(fun id -> now - Dyngraph.birth_of graph id);
    Poisson_model.run_rounds model n
  done;
  let fn = float_of_int n in
  finalize raws
    ~bounds:(fun i -> (i * width, min max_age ((i + 1) * width)))
    ~predicted_older:(fun mid ->
      if regenerate then Bounds.edge_prob_older_pdgr_bound ~n ~age_rounds:mid
      else 1. /. fn)
    ~bound_younger:(1. /. (0.8 *. fn))
