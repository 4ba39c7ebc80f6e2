module Dyngraph = Churnet_graph.Dyngraph
module Streaming_model = Churnet_core.Streaming_model
module Prng = Churnet_util.Prng

type t = { base : Streaming_model.t; rng : Prng.t }

let create ~rng ~n ~d () =
  { base = Streaming_model.create ~rng:(Prng.split rng) ~n ~d ~regenerate:false (); rng }

let graph t = Streaming_model.graph t.base

(* Birth by takeover: each donor picks one of its out-links, disconnects
   it, redirects it to the newborn; the newborn adopts the donor's old
   target.  Out-degrees are conserved exactly (the donor keeps d links,
   the newborn ends with up to d).  Deletion hands the dying node's
   out-targets over to its orphaned in-neighbors. *)

let random_alive_other t self =
  let g = graph t in
  if Dyngraph.alive_count g < 2 then None
  else begin
    let rec go tries =
      if tries = 0 then None
      else begin
        let cand = Dyngraph.random_alive g in
        if cand = self then go (tries - 1) else Some cand
      end
    in
    go 16
  end

(* Death with edge takeover: pair orphaned in-neighbors with the dead
   node's former targets. *)
let die t dying =
  let g = graph t in
  let inherited = Dyngraph.out_targets g dying in
  let orphans = Dyngraph.in_neighbors g dying in
  Dyngraph.kill g dying;
  let rec pair orphans targets =
    match (orphans, targets) with
    | [], _ -> ()
    | w :: ws, t0 :: ts ->
        if Dyngraph.is_alive g w && Dyngraph.is_alive g t0 && w <> t0 then
          ignore (Dyngraph.connect g ~src:w ~dst:t0);
        pair ws ts
    | w :: ws, [] ->
        (match random_alive_other t w with
        | Some cand when Dyngraph.is_alive g w -> ignore (Dyngraph.connect g ~src:w ~dst:cand)
        | _ -> ());
        pair ws []
  in
  pair orphans inherited

(* Birth by takeover. *)
let born t round =
  let g = graph t in
  let newborn_id = Dyngraph.peek_next_id g in
  let alive = Dyngraph.alive_count g in
  let adopt = ref [] in
  let donors = ref [] in
  if alive > 0 then
    for _ = 1 to Streaming_model.d t.base do
      let donor = Dyngraph.random_alive g in
      match Dyngraph.out_targets g donor with
      | [] -> adopt := donor :: !adopt (* donor has nothing to give: link to it *)
      | targets ->
          let target = Prng.choose t.rng (Array.of_list targets) in
          if Dyngraph.disconnect g ~src:donor ~dst:target then begin
            adopt := target :: !adopt;
            donors := donor :: !donors
          end
    done;
  let id =
    Dyngraph.add_node_with_targets g ~birth:round
      ~targets:(Array.of_list (List.filter (fun x -> x <> newborn_id) !adopt))
  in
  assert (id = newborn_id);
  List.iter
    (fun donor ->
      if Dyngraph.is_alive g donor && donor <> id then
        ignore (Dyngraph.connect g ~src:donor ~dst:id))
    !donors;
  id

let step t = Streaming_model.step_with t.base ~die ~born t

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
