module Prng = Churnet_util.Prng

type result = {
  phases : int;
  y_layer_sizes : int array;
  o_layer_sizes : int array;
  total_young : int;
  total_old : int;
  reached_target : bool;
  growth_factors : float array;
}

(* Node of age a (1 <= a <= n; the source s has age 0 = just joined).
   At its birth the alive population consisted of the nodes of current
   age a+1 .. a+n-1 (n-1 of them); a request target of current age > n-1+?
   ... any target of current age >= n is already dead at t0. *)

(* --- resumable phase state ------------------------------------------ *)

(* The streaming onion-skin process consumes ALL of its randomness at
   materialization ({!start} samples every request up front, deferred
   decisions made concrete); the phase loop is purely deterministic.
   The state below is therefore self-contained: serialize it between
   phases and the resumed process replays identically with no PRNG to
   restore.  [prev_set] is per-phase staging (cleared before use) and is
   recreated empty on decode. *)
type state = {
  n : int;
  d : int;
  young_requests : int array array;
  y_phase : int array; (* 0 = untouched, k > 0 = joined at phase k *)
  o_phase : int array;
  mutable y_layers : int list; (* head = latest phase *)
  mutable o_layers : int list;
  mutable prev_o_layer : int list;
  mutable total_y : int;
  mutable total_o : int;
  mutable phase : int;
  mutable running : bool;
  prev_set : Churnet_util.Bitset.t; (* transient *)
}

let state_phase st = st.phase
let state_finished st = not st.running

module Codec = Churnet_util.Codec

let encode_state w st =
  Codec.varint w st.n;
  Codec.varint w st.d;
  Codec.array (fun w a -> Codec.int_array w a) w st.young_requests;
  Codec.int_array w st.y_phase;
  Codec.int_array w st.o_phase;
  Codec.int_list w st.y_layers;
  Codec.int_list w st.o_layers;
  Codec.int_list w st.prev_o_layer;
  Codec.varint w st.total_y;
  Codec.varint w st.total_o;
  Codec.varint w st.phase;
  Codec.bool w st.running

let decode_state r =
  let n = Codec.read_varint r in
  let d = Codec.read_varint r in
  let young_requests = Codec.read_array (fun r -> Codec.read_int_array r) r in
  let y_phase = Codec.read_int_array r in
  let o_phase = Codec.read_int_array r in
  let y_layers = Codec.read_int_list r in
  let o_layers = Codec.read_int_list r in
  let prev_o_layer = Codec.read_int_list r in
  let total_y = Codec.read_varint r in
  let total_o = Codec.read_varint r in
  let phase = Codec.read_varint r in
  let running = Codec.read_bool r in
  if
    n < 16 || d < 2
    || Array.length young_requests <> n / 2
    || Array.length y_phase <> n + 1
    || Array.length o_phase <> n + 1
    || phase < 0 || total_y < 0 || total_o < 0
    || List.length y_layers <> phase
    || List.length o_layers <> phase + 1
  then raise (Codec.Error "Onion.decode_state: inconsistent fields");
  {
    n;
    d;
    young_requests;
    y_phase;
    o_phase;
    y_layers;
    o_layers;
    prev_o_layer;
    total_y;
    total_o;
    phase;
    running;
    prev_set = Churnet_util.Bitset.create (n + 1);
  }

let target_of ~n ~d = max 1 (n / d)
let logn_of n = int_of_float (Float.ceil (log (float_of_int n)))

let start ~rng ~n ~d () =
  if d < 2 || d mod 2 <> 0 then invalid_arg "Onion.run: d must be even and >= 2";
  if n < 16 then invalid_arg "Onion.run: n too small";
  let logn = logn_of n in
  let half = n / 2 in
  let is_young a = a >= 1 && a < half in
  let is_old a = a >= half && a <= n - logn in
  (* Sample every node's requests once (deferred decision, materialized).
     requests.(a).(i) = current age of the target of request i of the node
     with age a; targets with age >= n are dead (encoded as -1). *)
  let sample_request a =
    let target_age = a + 1 + Prng.int rng (n - 1) in
    if target_age >= n then -1 else target_age
  in
  (* Source requests: age 0, full d requests allowed (Phase 0). *)
  let source_requests = Array.init d (fun _ -> sample_request 0) in
  let young_requests =
    (* Only young nodes ever reveal requests in phases >= 1. *)
    Array.init half (fun a -> if is_young a then Array.init d (fun _ -> sample_request a) else [||])
  in
  (* Membership per age: 0 = untouched, k>0 = joined at phase k. *)
  let y_phase = Array.make (n + 1) 0 in
  let o_phase = Array.make (n + 1) 0 in
  (* Phase 0: source links to old nodes. *)
  let o0 = ref [] in
  Array.iter
    (fun t -> if t >= 0 && is_old t && o_phase.(t) = 0 then begin
         o_phase.(t) <- 1;
         o0 := t :: !o0
       end)
    source_requests;
  {
    n;
    d;
    young_requests;
    y_phase;
    o_phase;
    y_layers = [];
    o_layers = [ List.length !o0 ];
    prev_o_layer = !o0;
    total_y = 0;
    total_o = List.length !o0;
    phase = 0;
    running = List.length !o0 > 0;
    prev_set = Churnet_util.Bitset.create (n + 1);
  }

let phase_step st =
  let n = st.n and d = st.d in
  let logn = logn_of n in
  let half = n / 2 in
  let is_young a = a >= 1 && a < half in
  let is_old a = a >= half && a <= n - logn in
  let target = target_of ~n ~d in
  st.phase <- st.phase + 1;
  let k = st.phase in
  (* Step 1: young nodes not yet informed whose type-B request
     (indices d/2 .. d-1) hits the previous old layer. *)
  Churnet_util.Bitset.clear st.prev_set;
  List.iter (fun a -> Churnet_util.Bitset.add st.prev_set a) st.prev_o_layer;
  let new_young = ref [] in
  for a = 1 to half - 1 do
    if is_young a && st.y_phase.(a) = 0 then begin
      let hit = ref false in
      for i = d / 2 to d - 1 do
        let t = st.young_requests.(a).(i) in
        if t >= 0 && Churnet_util.Bitset.mem st.prev_set t then hit := true
      done;
      if !hit then begin
        st.y_phase.(a) <- k;
        new_young := a :: !new_young
      end
    end
  done;
  let ny = List.length !new_young in
  st.y_layers <- ny :: st.y_layers;
  st.total_y <- st.total_y + ny;
  (* Step 2: old nodes hit by a type-A request (indices 0 .. d/2-1)
     of the newly informed young nodes. *)
  let new_old = ref [] in
  List.iter
    (fun a ->
      for i = 0 to (d / 2) - 1 do
        let t = st.young_requests.(a).(i) in
        if t >= 0 && is_old t && st.o_phase.(t) = 0 then begin
          st.o_phase.(t) <- k;
          new_old := t :: !new_old
        end
      done)
    !new_young;
  let no = List.length !new_old in
  st.o_layers <- no :: st.o_layers;
  st.total_o <- st.total_o + no;
  st.prev_o_layer <- !new_old;
  (* Stop when layers die out, the target is met, or we are clearly in
     the saturation regime. *)
  if ny = 0 || no = 0 then st.running <- false;
  if st.total_y >= target && st.total_o >= target then st.running <- false;
  if st.phase > (4 * logn) + 8 then st.running <- false

let finish_state st =
  let target = target_of ~n:st.n ~d:st.d in
  let o_layer_sizes = Array.of_list (List.rev st.o_layers) in
  let y_layer_sizes = Array.of_list (List.rev st.y_layers) in
  let growth_factors =
    (* Interleave o/y layers in temporal order: O_0, Y_1, O_1, Y_2, ... *)
    let temporal = ref [] in
    let oy = Array.length o_layer_sizes and yy = Array.length y_layer_sizes in
    for k = 0 to max oy yy - 1 do
      if k < oy then temporal := float_of_int o_layer_sizes.(k) :: !temporal;
      if k < yy then temporal := float_of_int y_layer_sizes.(k) :: !temporal
    done;
    (* temporal currently holds O_0, Y_1, O_1, ... reversed; restore order *)
    let temporal = Array.of_list (List.rev !temporal) in
    (* Note: loop above pushed O_k then Y_k; the paper's order is O_0,
       Y_1, O_1, Y_2 ... which matches since Y_0 is the source alone. *)
    let m = Array.length temporal in
    if m < 2 then [||]
    else
      Array.init (m - 1) (fun i ->
          if temporal.(i) > 0. then temporal.(i + 1) /. temporal.(i) else nan)
  in
  {
    phases = st.phase;
    y_layer_sizes;
    o_layer_sizes;
    total_young = st.total_y;
    total_old = st.total_o;
    reached_target = st.total_y >= target && st.total_o >= target;
    growth_factors;
  }

let run ~rng ~n ~d () =
  let st = start ~rng ~n ~d () in
  while not (state_finished st) do
    phase_step st
  done;
  finish_state st

(* Extended (Poisson) onion-skin process, Section 7.2.4.

   Population: the m = n nodes alive at t0, ranked 1..n from youngest to
   oldest.  Young = ranks 1..n/2, old = the rest.  Under deferred
   decisions a request of any node targets a (near-)uniform member of the
   population; we sample targets uniformly over 1..n excluding the
   requester.  Each node reached for the first time flips a death coin
   with probability ln n / n and, if it dies, joins no layer. *)
let run_poisson ~rng ~n ~d () =
  if d < 2 || d mod 2 <> 0 then invalid_arg "Onion.run_poisson: d must be even and >= 2";
  if n < 16 then invalid_arg "Onion.run_poisson: n too small";
  let fn = float_of_int n in
  let p_die = log fn /. fn in
  let half = n / 2 in
  let is_young r = r >= 1 && r <= half in
  let is_old r = r > half && r <= n in
  let sample_target self =
    let rec go () =
      let t = 1 + Prng.int rng n in
      if t = self then go () else t
    in
    go ()
  in
  (* Deferred decisions, materialized once per young node (only young
     nodes ever issue requests in phases >= 1; the source is rank 0,
     outside the population, with its own d requests). *)
  let source_requests = Array.init d (fun _ -> 1 + Prng.int rng n) in
  let young_requests =
    Array.init (half + 1) (fun r ->
        if r >= 1 then Array.init d (fun _ -> sample_target r) else [||])
  in
  let dead = Array.make (n + 1) false in
  let roll_death r = if Prng.bernoulli rng p_die then dead.(r) <- true in
  let y_phase = Array.make (n + 1) 0 in
  let o_phase = Array.make (n + 1) 0 in
  let o_layers = ref [] and y_layers = ref [] in
  (* Phase 0: the source's links to old nodes. *)
  let o0 = ref [] in
  Array.iter
    (fun t ->
      if is_old t && o_phase.(t) = 0 && not dead.(t) then begin
        roll_death t;
        if not dead.(t) then begin
          o_phase.(t) <- 1;
          o0 := t :: !o0
        end
      end)
    source_requests;
  o_layers := [ List.length !o0 ];
  let prev_o_layer = ref !o0 in
  let total_y = ref 0 and total_o = ref (List.length !o0) in
  let target = max 1 (n / 20) in
  let phase = ref 0 in
  let logn = int_of_float (Float.ceil (log fn)) in
  (* Reused across phases: membership of the previous old layer. *)
  let prev_set = Churnet_util.Bitset.create (n + 1) in
  let continue = ref (List.length !o0 > 0) in
  while !continue do
    incr phase;
    let k = !phase in
    Churnet_util.Bitset.clear prev_set;
    List.iter (fun a -> Churnet_util.Bitset.add prev_set a) !prev_o_layer;
    (* Step 1: fresh young nodes whose type-B request hits the previous
       old layer; each flips the death coin on first contact. *)
    let new_young = ref [] in
    for r = 1 to half do
      if is_young r && y_phase.(r) = 0 && not dead.(r) then begin
        let hit = ref false in
        for i = d / 2 to d - 1 do
          if Churnet_util.Bitset.mem prev_set young_requests.(r).(i) then hit := true
        done;
        if !hit then begin
          roll_death r;
          if not dead.(r) then begin
            y_phase.(r) <- k;
            new_young := r :: !new_young
          end
        end
      end
    done;
    let ny = List.length !new_young in
    y_layers := ny :: !y_layers;
    total_y := !total_y + ny;
    (* Step 2: old nodes hit by a type-A request of the new young layer. *)
    let new_old = ref [] in
    List.iter
      (fun r ->
        for i = 0 to (d / 2) - 1 do
          let t = young_requests.(r).(i) in
          if is_old t && o_phase.(t) = 0 && not dead.(t) then begin
            roll_death t;
            if not dead.(t) then begin
              o_phase.(t) <- k;
              new_old := t :: !new_old
            end
          end
        done)
      !new_young;
    let no = List.length !new_old in
    o_layers := no :: !o_layers;
    total_o := !total_o + no;
    prev_o_layer := !new_old;
    if ny = 0 || no = 0 then continue := false;
    if !total_y >= target && !total_o >= target then continue := false;
    if !phase > (4 * logn) + 8 then continue := false
  done;
  let o_layer_sizes = Array.of_list (List.rev !o_layers) in
  let y_layer_sizes = Array.of_list (List.rev !y_layers) in
  let growth_factors =
    let temporal = ref [] in
    let oy = Array.length o_layer_sizes and yy = Array.length y_layer_sizes in
    for k = 0 to max oy yy - 1 do
      if k < oy then temporal := float_of_int o_layer_sizes.(k) :: !temporal;
      if k < yy then temporal := float_of_int y_layer_sizes.(k) :: !temporal
    done;
    let temporal = Array.of_list (List.rev !temporal) in
    let m = Array.length temporal in
    if m < 2 then [||]
    else
      Array.init (m - 1) (fun i ->
          if temporal.(i) > 0. then temporal.(i + 1) /. temporal.(i) else nan)
  in
  {
    phases = !phase;
    y_layer_sizes;
    o_layer_sizes;
    total_young = !total_y;
    total_old = !total_o;
    reached_target = !total_y >= target && !total_o >= target;
    growth_factors;
  }

let success_probability_poisson ~rng ~n ~d ~trials () =
  let ok = ref 0 in
  for _ = 1 to trials do
    let r = run_poisson ~rng:(Prng.split rng) ~n ~d () in
    if r.reached_target then incr ok
  done;
  float_of_int !ok /. float_of_int trials
