(* Reference implementations and shared measurement harness for the
   kernel benchmarks ([kernels.exe]) and the regression gate
   ([compare.exe]).

   The "old" sides of every head-to-head live here, kept verbatim from
   the pre-optimization tree so the speedup ratios mean what they say:

   - [Hashtbl_core]: the hashtable graph core as it was before the slot
     arena rewrite.
   - [old_expand_informed]: the hashtable + list-returning-neighbors
     flooding hop.
   - [Byte_bitset]: the byte-at-a-time bitset with the per-bit [iter]
     that predates the word-level scan.
   - [measure_flood_hop]'s old side: the full-rescan synchronous hop
     ([Flood.expand_informed]) that predates the frontier driver.

   Both executables measure through the same [measure_*] functions so
   the gate compares exactly what the benchmark reports.  Every
   measurement asserts old/new state identity before trusting a timing:
   a speedup over a diverged baseline is meaningless. *)

module Dyngraph = Churnet_graph.Dyngraph
module Models = Churnet_core.Models
module Streaming_model = Churnet_core.Streaming_model
module Flood = Churnet_core.Flood
module Scale = Churnet_experiments.Scale
module Prng = Churnet_util.Prng
module Bitset = Churnet_util.Bitset
module Intvec = Churnet_util.Intvec

(* ------------------------------------------------------------------ *)
(* Timing and allocation accounting.                                   *)
(* ------------------------------------------------------------------ *)

(* Words allocated so far: minor allocations plus direct major-heap
   allocations.  [promoted_words] is subtracted because promotion counts
   the same object in both [minor_words] and [major_words]. *)
let allocated_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let timed_with_words f =
  (* Empty the minor heap first: an object allocated *before* the region
     but promoted *during* it would inflate [promoted_words] without a
     matching in-region [minor_words] entry, making the delta depend on
     where the previous minor-GC boundary happened to fall.  With an
     empty minor heap at t0, everything promoted inside the region was
     also allocated inside it, so the delta is exact and repeatable. *)
  Gc.minor ();
  let w0 = allocated_words () in
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  (dt, allocated_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Workload sizes, shared so compare.exe gates what kernels.exe reports. *)
(* ------------------------------------------------------------------ *)

let core_n = 2000
let core_d = 8
let core_jumps scale = Scale.pick scale ~smoke:30_000 ~standard:150_000 ~full:600_000
let snap_reps scale = Scale.pick scale ~smoke:30 ~standard:150 ~full:500
let scan_bits = 1 lsl 17
let scan_reps scale = Scale.pick scale ~smoke:60 ~standard:300 ~full:1_000
let flood_reps scale = Scale.pick scale ~smoke:20 ~standard:100 ~full:300

let flood_d = 3
(* Sparse SDG: low enough degree that floods develop the long
   near-complete tail of straggler rounds (the regime the frontier
   optimizes), high enough that they complete rather than go extinct. *)

(* ------------------------------------------------------------------ *)
(* Old flooding hop (hashtable informed set, list neighbors).          *)
(* ------------------------------------------------------------------ *)

(* The pre-optimization kernel, verbatim: hashtable informed set,
   list-returning neighbor queries, a fresh [newly] list per hop. *)
let old_expand_informed graph informed =
  let alive = Dyngraph.alive_count graph in
  let informed_alive = ref 0 in
  Hashtbl.iter
    (fun id () -> if Dyngraph.is_alive graph id then incr informed_alive)
    informed;
  let newly = ref [] in
  if !informed_alive <= alive - !informed_alive then
    Hashtbl.iter
      (fun u () ->
        if Dyngraph.is_alive graph u then
          List.iter
            (fun v -> if not (Hashtbl.mem informed v) then newly := v :: !newly)
            (Dyngraph.neighbors graph u))
      informed
  else
    Dyngraph.iter_alive graph (fun v ->
        if not (Hashtbl.mem informed v) then
          let touches_informed =
            List.exists
              (fun u -> Hashtbl.mem informed u)
              (Dyngraph.neighbors graph v)
          in
          if touches_informed then newly := v :: !newly);
  List.iter (fun v -> Hashtbl.replace informed v ()) !newly

(* ------------------------------------------------------------------ *)
(* Old bitset (byte store, bit-at-a-time iter).                        *)
(* ------------------------------------------------------------------ *)

(* The bitset as it was before the word-level scan, verbatim: same byte
   store, but [iter] tests all eight bits of every non-zero byte. *)
module Byte_bitset = struct
  type t = { mutable words : Bytes.t; mutable capacity : int; mutable cardinal : int }

  let create capacity =
    if capacity < 0 then invalid_arg "Byte_bitset.create";
    { words = Bytes.make ((capacity + 7) / 8) '\000'; capacity; cardinal = 0 }

  let add t i =
    if i < 0 || i >= t.capacity then invalid_arg "Byte_bitset.add";
    let byte = Char.code (Bytes.get t.words (i lsr 3)) in
    let mask = 1 lsl (i land 7) in
    if byte land mask = 0 then begin
      Bytes.set t.words (i lsr 3) (Char.chr (byte lor mask));
      t.cardinal <- t.cardinal + 1
    end

  let cardinal t = t.cardinal

  let iter f t =
    for b = 0 to Bytes.length t.words - 1 do
      let byte = Char.code (Bytes.get t.words b) in
      if byte <> 0 then
        for o = 0 to 7 do
          if byte land (1 lsl o) <> 0 then f ((b lsl 3) lor o)
        done
    done
end

(* ------------------------------------------------------------------ *)
(* Old graph core (hashtable arena).                                   *)
(* ------------------------------------------------------------------ *)

(* The hashtable-backed Dyngraph as it was before the arena rewrite
   (hooks and protocol helpers dropped; nothing here affects the PRNG
   draws).  Kill regeneration sorts the in-neighbors, i.e. it already
   uses the canonical order the arena reproduces, so both cores driven
   by equal seeds evolve through identical states. *)
module Hashtbl_core = struct
  type node = {
    id : int;
    birth : int;
    out_slots : int array;
    in_edges : (int, int) Hashtbl.t; (* src id -> multiplicity *)
  }

  type t = {
    d : int;
    regenerate : bool;
    rng : Prng.t;
    nodes : (int, node) Hashtbl.t;
    mutable alive : int array;
    mutable alive_len : int;
    alive_index : (int, int) Hashtbl.t;
    mutable next_id : int;
  }

  let create ~rng ~d ~regenerate () =
    {
      d;
      regenerate;
      rng;
      nodes = Hashtbl.create 1024;
      alive = Array.make 1024 (-1);
      alive_len = 0;
      alive_index = Hashtbl.create 1024;
      next_id = 0;
    }

  let alive_push t id =
    if t.alive_len = Array.length t.alive then begin
      let bigger = Array.make (2 * t.alive_len) (-1) in
      Array.blit t.alive 0 bigger 0 t.alive_len;
      t.alive <- bigger
    end;
    t.alive.(t.alive_len) <- id;
    Hashtbl.replace t.alive_index id t.alive_len;
    t.alive_len <- t.alive_len + 1

  let alive_remove t id =
    match Hashtbl.find_opt t.alive_index id with
    | None -> invalid_arg "Hashtbl_core: removing a dead node"
    | Some pos ->
        let last = t.alive_len - 1 in
        let moved = t.alive.(last) in
        t.alive.(pos) <- moved;
        Hashtbl.replace t.alive_index moved pos;
        t.alive_len <- last;
        Hashtbl.remove t.alive_index id

  let random_alive t =
    if t.alive_len = 0 then invalid_arg "Hashtbl_core.random_alive: empty";
    t.alive.(Prng.int t.rng t.alive_len)

  let random_alive_excluding t self =
    if t.alive_len = 0 then None
    else if t.alive_len = 1 && t.alive.(0) = self then None
    else begin
      let rec go () =
        let cand = t.alive.(Prng.int t.rng t.alive_len) in
        if cand = self then go () else cand
      in
      Some (go ())
    end

  let incr_in_edge target src =
    Hashtbl.replace target.in_edges src
      (1 + Option.value ~default:0 (Hashtbl.find_opt target.in_edges src))

  let decr_in_edge target src =
    match Hashtbl.find_opt target.in_edges src with
    | None -> ()
    | Some 1 -> Hashtbl.remove target.in_edges src
    | Some k -> Hashtbl.replace target.in_edges src (k - 1)

  let add_node t ~birth =
    let id = t.next_id in
    t.next_id <- id + 1;
    let node =
      { id; birth; out_slots = Array.make t.d (-1); in_edges = Hashtbl.create 8 }
    in
    for slot = 0 to t.d - 1 do
      match random_alive_excluding t id with
      | None -> ()
      | Some target_id ->
          node.out_slots.(slot) <- target_id;
          incr_in_edge (Hashtbl.find t.nodes target_id) id
    done;
    Hashtbl.replace t.nodes id node;
    alive_push t id;
    id

  let kill t id =
    let node = Hashtbl.find t.nodes id in
    alive_remove t id;
    Hashtbl.remove t.nodes id;
    Array.iter
      (fun target_id ->
        if target_id >= 0 then
          match Hashtbl.find_opt t.nodes target_id with
          | Some target -> decr_in_edge target id
          | None -> ())
      node.out_slots;
    let srcs = Hashtbl.fold (fun src _mult acc -> src :: acc) node.in_edges [] in
    let srcs = List.sort Int.compare srcs in
    List.iter
      (fun src_id ->
        match Hashtbl.find_opt t.nodes src_id with
        | None -> ()
        | Some src ->
            Array.iteri
              (fun slot target ->
                if target = id then begin
                  src.out_slots.(slot) <- -1;
                  if t.regenerate then
                    match random_alive_excluding t src_id with
                    | None -> ()
                    | Some fresh ->
                        src.out_slots.(slot) <- fresh;
                        incr_in_edge (Hashtbl.find t.nodes fresh) src_id
                end)
              src.out_slots)
      srcs

  let alive_ids t = Array.sub t.alive 0 t.alive_len

  let out_degree t id =
    let node = Hashtbl.find t.nodes id in
    Array.fold_left (fun acc s -> if s >= 0 then acc + 1 else acc) 0 node.out_slots

  let neighbors t id =
    let node = Hashtbl.find t.nodes id in
    let acc = ref [] in
    Array.iter (fun v -> if v >= 0 then acc := v :: !acc) node.out_slots;
    Hashtbl.iter (fun src _ -> acc := src :: !acc) node.in_edges;
    List.sort_uniq Int.compare !acc

  (* The old Dyngraph.snapshot up to (and including) building its
     structures: sorted ids, id->index hashtable, births, out-degrees
     and per-row sorted index arrays. *)
  let snapshot_arrays t =
    let ids = alive_ids t in
    Array.sort Int.compare ids;
    let n = Array.length ids in
    let index_of = Hashtbl.create (2 * n) in
    Array.iteri (fun i id -> Hashtbl.replace index_of id i) ids;
    let births = Array.map (fun id -> (Hashtbl.find t.nodes id).birth) ids in
    let out_deg = Array.map (fun id -> out_degree t id) ids in
    let adj =
      Array.map
        (fun id ->
          let neigh = neighbors t id in
          let arr = List.filter_map (fun v -> Hashtbl.find_opt index_of v) neigh in
          let arr = Array.of_list arr in
          Array.sort Int.compare arr;
          arr)
        ids
    in
    (ids, births, adj, out_deg)
end

(* ------------------------------------------------------------------ *)
(* Measurement: churn jumps + snapshot builds (arena vs hashtable).    *)
(* ------------------------------------------------------------------ *)

type core_metrics = {
  jumps : int;
  builds : int;
  churn_old_dt : float;
  churn_new_dt : float;
  churn_old_words : float;
  churn_new_words : float;
  snap_old_dt : float;
  snap_new_dt : float;
  snap_old_words : float;
  snap_new_words : float;
  edge_sink : int; (* anti-DCE witness: directed half-edges seen *)
}

(* One churn jump = one uniform death (with regeneration) + one birth:
   population pinned at [core_n], so the workload is stationary and the
   two cores stay state-identical step for step. *)
let measure_graph_core ~seed ~scale =
  let jumps = core_jumps scale and builds = snap_reps scale in
  let core_seed = seed lxor 0x60aed in
  let old_g =
    Hashtbl_core.create ~rng:(Prng.create core_seed) ~d:core_d ~regenerate:true ()
  in
  let new_g = Dyngraph.create ~rng:(Prng.create core_seed) ~d:core_d ~regenerate:true () in
  for i = 1 to core_n do
    ignore (Hashtbl_core.add_node old_g ~birth:i)
  done;
  for i = 1 to core_n do
    ignore (Dyngraph.add_node new_g ~birth:i)
  done;
  let churn_old_dt, churn_old_words =
    timed_with_words (fun () ->
        for i = 1 to jumps do
          Hashtbl_core.kill old_g (Hashtbl_core.random_alive old_g);
          ignore (Hashtbl_core.add_node old_g ~birth:(core_n + i))
        done)
  in
  let churn_new_dt, churn_new_words =
    timed_with_words (fun () ->
        for i = 1 to jumps do
          Dyngraph.kill new_g (Dyngraph.random_alive new_g);
          ignore (Dyngraph.add_node new_g ~birth:(core_n + i))
        done)
  in
  (* Identical draw sequences mean identical trajectories: check before
     trusting any timing. *)
  let old_ids = Hashtbl_core.alive_ids old_g in
  let new_ids = Dyngraph.alive_ids new_g in
  Array.sort Int.compare old_ids;
  Array.sort Int.compare new_ids;
  if old_ids <> new_ids then
    failwith "bench: hashtable and arena cores diverged (alive sets differ)";
  let edge_sink = ref 0 in
  let snap_old_dt, snap_old_words =
    timed_with_words (fun () ->
        for _ = 1 to builds do
          let _, _, adj, _ = Hashtbl_core.snapshot_arrays old_g in
          edge_sink := !edge_sink + Array.fold_left (fun a r -> a + Array.length r) 0 adj
        done)
  in
  let snap_new_dt, snap_new_words =
    timed_with_words (fun () ->
        for _ = 1 to builds do
          let s = Dyngraph.snapshot new_g in
          edge_sink := !edge_sink + (2 * Churnet_graph.Snapshot.edge_count s)
        done)
  in
  {
    jumps;
    builds;
    churn_old_dt;
    churn_new_dt;
    churn_old_words;
    churn_new_words;
    snap_old_dt;
    snap_new_dt;
    snap_old_words;
    snap_new_words;
    edge_sink = !edge_sink;
  }

(* ------------------------------------------------------------------ *)
(* Measurement: bitset scan (word-level vs byte-at-a-time).            *)
(* ------------------------------------------------------------------ *)

type scan_metrics = {
  bits : int;
  scans : int; (* total iter calls per side: 2 densities x reps *)
  scan_old_dt : float;
  scan_new_dt : float;
  scan_sink : int; (* anti-DCE witness: sum of visited indices *)
}

(* Two populations: a sparse one (the early rounds of a flood, where the
   zero-word skip dominates) and a half-full one (the late rounds, where
   the per-bit drain dominates). *)
let measure_bitset_scan ~seed ~scale =
  let bits = scan_bits and reps = scan_reps scale in
  let fill density_denom =
    let rng = Prng.create (seed lxor (0xb175e7 + density_denom)) in
    let old_bs = Byte_bitset.create bits in
    let new_bs = Bitset.create bits in
    for _ = 1 to bits / density_denom do
      let i = Prng.int rng bits in
      Byte_bitset.add old_bs i;
      Bitset.add new_bs i
    done;
    if Byte_bitset.cardinal old_bs <> Bitset.cardinal new_bs then
      failwith "bench: bitset populations diverged";
    (old_bs, new_bs)
  in
  let sparse_old, sparse_new = fill 64 in
  let half_old, half_new = fill 2 in
  let sink = ref 0 in
  let scan_pair old_bs new_bs =
    let old_sum = ref 0 and new_sum = ref 0 in
    let old_dt, _ =
      timed_with_words (fun () ->
          for _ = 1 to reps do
            Byte_bitset.iter (fun i -> old_sum := !old_sum + i) old_bs
          done)
    in
    let new_dt, _ =
      timed_with_words (fun () ->
          for _ = 1 to reps do
            Bitset.iter (fun i -> new_sum := !new_sum + i) new_bs
          done)
    in
    if !old_sum <> !new_sum then
      failwith "bench: word-level and byte-level bitset scans visited different sets";
    sink := !sink + !new_sum;
    (old_dt, new_dt)
  in
  let sparse_old_dt, sparse_new_dt = scan_pair sparse_old sparse_new in
  let half_old_dt, half_new_dt = scan_pair half_old half_new in
  {
    bits;
    scans = 2 * reps;
    scan_old_dt = sparse_old_dt +. half_old_dt;
    scan_new_dt = sparse_new_dt +. half_new_dt;
    scan_sink = !sink;
  }

(* ------------------------------------------------------------------ *)
(* Measurement: flooding hop (frontier vs full rescan).                *)
(* ------------------------------------------------------------------ *)

type flood_metrics = {
  floods : int;
  total_hops : int; (* summed flooding rounds across all floods, one side *)
  flood_old_dt : float;
  flood_new_dt : float;
  flood_old_words : float;
  flood_new_words : float;
}

let bs_mem bs id = id < Bitset.capacity bs && Bitset.mem bs id

let bs_prune graph bs =
  Bitset.iter (fun id -> if not (Dyngraph.is_alive graph id) then Bitset.remove bs id) bs

(* Complete synchronous floods (Definition 3.3) over a churning SDG
   model (no regeneration — the paper's hard case), source = the newborn
   of the starting round, run until the informed set covers the alive
   population.  SDG floods have a long near-complete tail: stragglers
   whose edges died wait many rounds for a newborn to reach them, so
   most rounds have a tiny uninformed set.  That tail is the synchronous
   driver's real workload, and where the frontier earns its keep: the
   old side is the pre-frontier round loop verbatim —
   [Flood.expand_informed] full rescan, churn, prune — whose rescan pays
   an O(alive) membership sweep every tail round just to find the
   handful of uninformed nodes; the new side is the adaptive round loop
   ([Flood.expand_informed_auto] plus edge-hook re-arming, as in
   [Flood.sync_round]), which scans only the (near-empty) frontier.
   Both sides run on separate equal-seeded models that consume the PRNG
   identically, so their floods must take the same number of rounds and
   inform sets of the same size — checked after every flood. *)
let measure_flood_hop ~seed ~scale =
  let reps = flood_reps scale in
  (* A fresh equal-seeded model pair per flood, as in the experiment
     harness (one model per trial): node ids — and with them the span of
     the informed/frontier bitsets — stay bounded by warm-up plus one
     flood's rounds instead of growing across repetitions.  Model
     construction and warm-up are not timed. *)
  let make rep =
    let m =
      Streaming_model.create
        ~rng:(Prng.create (seed lxor 0xf100d lxor (rep * 0x9e3779b9)))
        ~n:core_n ~d:flood_d ~regenerate:false ()
    in
    Streaming_model.warm_up m;
    m
  in
  let scratch = Intvec.create ~capacity:1024 () in
  let informed = Bitset.create (8 * core_n) in
  let frontier = Bitset.create (8 * core_n) in
  let max_rounds = 8 * core_n in
  (* Completion as in [Flood.run_custom]: informed covers everyone alive
     both before and after the last churn step — i.e. everyone except
     the newborn of that step, which cannot have been reached yet. *)
  let complete graph = Bitset.cardinal informed >= Dyngraph.alive_count graph - 1 in
  (* One flood with the pre-frontier driver; returns (rounds, informed). *)
  let flood_old m =
    let graph = Streaming_model.graph m in
    Streaming_model.step m;
    let source = Streaming_model.newest m in
    Bitset.clear informed;
    Bitset.ensure_capacity informed (source + 1);
    Bitset.add informed source;
    let rounds = ref 0 in
    while
      Bitset.cardinal informed > 0
      && (not (complete graph))
      && !rounds < max_rounds
    do
      Flood.expand_informed graph informed scratch;
      Streaming_model.step m;
      bs_prune graph informed;
      incr rounds
    done;
    (!rounds, Bitset.cardinal informed)
  in
  let arm bs id =
    Bitset.ensure_capacity bs (id + 1);
    Bitset.add bs id
  in
  let flood_new m =
    let graph = Streaming_model.graph m in
    Streaming_model.step m;
    let source = Streaming_model.newest m in
    Bitset.clear informed;
    Bitset.clear frontier;
    Bitset.ensure_capacity informed (source + 1);
    Bitset.add informed source;
    arm frontier source;
    let rounds = ref 0 in
    while
      Bitset.cardinal informed > 0
      && (not (complete graph))
      && !rounds < max_rounds
    do
      Flood.expand_informed_auto graph informed frontier scratch;
      let prev = Dyngraph.edge_hook graph in
      Dyngraph.set_edge_hook graph
        (Some
           (fun ~src ~dst ->
             (match prev with None -> () | Some f -> f ~src ~dst);
             let si = bs_mem informed src and di = bs_mem informed dst in
             if si && not di then arm frontier src
             else if di && not si then arm frontier dst));
      Streaming_model.step m;
      Dyngraph.set_edge_hook graph prev;
      bs_prune graph informed;
      incr rounds
    done;
    (!rounds, Bitset.cardinal informed)
  in
  (* One untimed warm flood per side, with an equivalence check before
     any timing is trusted. *)
  let r0_old = flood_old (make 0) in
  let r0_new = flood_new (make 0) in
  if r0_old <> r0_new then
    failwith "bench: frontier and full-rescan floods diverged on the warm-up flood";
  let total_hops = ref 0 and new_hops = ref 0 in
  let flood_old_dt = ref 0. and flood_old_words = ref 0. in
  let flood_new_dt = ref 0. and flood_new_words = ref 0. in
  for rep = 1 to reps do
    let old_m = make rep and new_m = make rep in
    let dt, words =
      timed_with_words (fun () ->
          let rounds, _ = flood_old old_m in
          total_hops := !total_hops + rounds)
    in
    flood_old_dt := !flood_old_dt +. dt;
    flood_old_words := !flood_old_words +. words;
    let dt, words =
      timed_with_words (fun () ->
          let rounds, _ = flood_new new_m in
          new_hops := !new_hops + rounds)
    in
    flood_new_dt := !flood_new_dt +. dt;
    flood_new_words := !flood_new_words +. words
  done;
  if !total_hops <> !new_hops then
    failwith "bench: frontier and full-rescan floods took different round counts";
  {
    floods = reps;
    total_hops = !total_hops;
    flood_old_dt = !flood_old_dt;
    flood_new_dt = !flood_new_dt;
    flood_old_words = !flood_old_words;
    flood_new_words = !flood_new_words;
  }

(* ------------------------------------------------------------------ *)
(* Measurement: batched churn (decide_batch + churn_batch vs per-jump). *)
(* ------------------------------------------------------------------ *)

module Poisson_model = Churnet_core.Poisson_model
module Codec = Churnet_util.Codec
module Stream_stats = Churnet_graph.Stream_stats
module Snapshot = Churnet_graph.Snapshot
module Metrics = Churnet_graph.Metrics

type batched_metrics = {
  bjumps : int;
  batched_old_dt : float;
  batched_new_dt : float;
  batched_old_words : float;
  batched_new_words : float;
}

let batched_n = 10_000
let batched_d = 3

let batched_jumps scale =
  Scale.pick scale ~smoke:50_000 ~standard:200_000 ~full:600_000 ~xl:2_000_000

let encoded_model m =
  let w = Codec.writer () in
  Poisson_model.encode w m;
  Codec.contents w

(* Old side: the per-jump chain, spelled out as a [step] loop here —
   [Poisson_model.run_rounds] is itself the batched runner.  New side:
   the batched runner (bulk [decide_batch] draws applied through
   [Dyngraph.churn_batch]).  Both sides run equal-seeded PDGR models, so
   after the measured runs the full checkpoint encodings — topology, both
   PRNG streams, clock, pending jump — must be byte-equal; anything less
   and the timings are meaningless. *)
let step_jumps m k =
  for _ = 1 to k do
    Poisson_model.step m
  done

let measure_churn_batched ~seed ~scale =
  let jumps = batched_jumps scale in
  let mk () =
    Poisson_model.create
      ~rng:(Prng.create (seed lxor 0xba7c4))
      ~n:batched_n ~d:batched_d ~regenerate:true ()
  in
  let old_m = mk () and new_m = mk () in
  (* Untimed warm-up, each side through its own path: the state-identity
     check below then covers the warm-up too. *)
  step_jumps old_m (12 * batched_n);
  Poisson_model.warm_up new_m;
  let batched_old_dt, batched_old_words = timed_with_words (fun () -> step_jumps old_m jumps) in
  let batched_new_dt, batched_new_words =
    timed_with_words (fun () -> Poisson_model.run_rounds new_m jumps)
  in
  if encoded_model old_m <> encoded_model new_m then
    failwith "bench: batched and per-jump churn diverged (encodings differ)";
  { bjumps = jumps; batched_old_dt; batched_new_dt; batched_old_words; batched_new_words }

(* ------------------------------------------------------------------ *)
(* Measurement: streaming snapshot statistics (arena pass vs CSR).      *)
(* ------------------------------------------------------------------ *)

type stream_metrics = {
  stat_reps : int;
  stream_old_dt : float;
  stream_new_dt : float;
  stream_old_words : float;
  stream_new_words : float;
  stat_sink : int; (* anti-DCE witness: summed isolated counts *)
}

let stream_reps scale = Scale.pick scale ~smoke:30 ~standard:150 ~full:500 ~xl:500

(* Old side: what the experiment cells did before — materialize the CSR
   snapshot, then derive histogram, gini, mean/max degree and the
   isolated count from it.  New side: [Stream_stats.collect], one
   row-local pass over the arena.  Equality of every statistic (floats
   bitwise) is asserted before any timing is trusted. *)
let measure_stream_stats ~seed ~scale =
  let reps = stream_reps scale in
  let m =
    Poisson_model.create
      ~rng:(Prng.create (seed lxor 0x57a75))
      ~n:core_n ~d:batched_d ~regenerate:false ()
  in
  Poisson_model.warm_up m;
  let g = Poisson_model.graph m in
  let old_stats () =
    let s = Poisson_model.snapshot m in
    ( Snapshot.n s,
      List.length (Snapshot.isolated s),
      Snapshot.max_degree s,
      Snapshot.mean_degree s,
      Snapshot.degree_histogram s,
      Metrics.degree_gini s )
  in
  let pop, iso, maxd, mean, hist, gini = old_stats () in
  let st = Stream_stats.collect g in
  if
    st.Stream_stats.population <> pop
    || st.Stream_stats.isolated <> iso
    || st.Stream_stats.max_degree <> maxd
    || Int64.bits_of_float st.Stream_stats.mean_degree <> Int64.bits_of_float mean
    || st.Stream_stats.degree_histogram <> hist
    || Int64.bits_of_float st.Stream_stats.degree_gini <> Int64.bits_of_float gini
  then failwith "bench: streaming and CSR snapshot statistics diverged";
  let sink = ref 0 in
  let stream_old_dt, stream_old_words =
    timed_with_words (fun () ->
        for _ = 1 to reps do
          let _, iso, _, _, _, _ = old_stats () in
          sink := !sink + iso
        done)
  in
  let stream_new_dt, stream_new_words =
    timed_with_words (fun () ->
        for _ = 1 to reps do
          let st = Stream_stats.collect g in
          sink := !sink + st.Stream_stats.isolated
        done)
  in
  {
    stat_reps = reps;
    stream_old_dt;
    stream_new_dt;
    stream_old_words;
    stream_new_words;
    stat_sink = !sink;
  }

(* ------------------------------------------------------------------ *)
(* Derived metric values, shared between kernels.exe and compare.exe.  *)
(* ------------------------------------------------------------------ *)

let per_jump_ns c dt = dt *. 1e9 /. float_of_int c.jumps
let per_build_us c dt = dt *. 1e6 /. float_of_int c.builds
let words_per_jump c w = w /. float_of_int c.jumps
let per_scan_us s dt = dt *. 1e6 /. float_of_int s.scans

let per_hop_ns f dt = dt *. 1e9 /. float_of_int f.total_hops
let words_per_hop f w = w /. float_of_int f.total_hops

let per_bjump_ns b dt = dt *. 1e9 /. float_of_int b.bjumps
let words_per_bjump b w = w /. float_of_int b.bjumps
let per_stat_us s dt = dt *. 1e6 /. float_of_int s.stat_reps
