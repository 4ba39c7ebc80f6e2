module Dyngraph = Churnet_graph.Dyngraph
module Bitset = Churnet_util.Bitset
module Intvec = Churnet_util.Intvec

type trace = {
  rounds : int;
  informed_per_round : int array;
  population_per_round : int array;
  completed : bool;
  completion_round : int option;
  peak_informed : int;
  peak_coverage : float;
  final_informed : int;
  final_population : int;
  extinct : bool;
  extinction_round : int option;
}

(* Shared trace assembly from per-round logs. *)
let finish ~completed ~completion_round ~extinct ~extinction_round informed_log
    population_log =
  let informed_per_round = Array.of_list (List.rev informed_log) in
  let population_per_round = Array.of_list (List.rev population_log) in
  let peak_informed = Array.fold_left max 0 informed_per_round in
  let peak_coverage =
    (* nan until a round with a live population contributes: a trace whose
       population was empty throughout has no defined coverage. *)
    let best = ref nan in
    Array.iteri
      (fun i inf ->
        let pop = population_per_round.(i) in
        if pop > 0 then begin
          let c = float_of_int inf /. float_of_int pop in
          if Float.is_nan !best || c > !best then best := c
        end)
      informed_per_round;
    !best
  in
  let len = Array.length informed_per_round in
  {
    rounds = len - 1;
    informed_per_round;
    population_per_round;
    completed;
    completion_round;
    peak_informed;
    peak_coverage;
    final_informed = (if len = 0 then 0 else informed_per_round.(len - 1));
    final_population = (if len = 0 then 0 else population_per_round.(len - 1));
    extinct;
    extinction_round;
  }

(* The informed set is a bitset over node ids.  Ids grow without bound
   under churn, so membership tests must tolerate ids beyond the current
   capacity and insertions must grow it. *)
let bs_mem bs id = id < Bitset.capacity bs && Bitset.mem bs id

let bs_add bs id =
  Bitset.ensure_capacity bs (id + 1);
  Bitset.add bs id

exception Found

(* Grow the informed set by one synchronous hop on the current graph.
   Scans whichever side of the cut is smaller: the informed set's
   neighborhoods, or the uninformed nodes' neighborhoods.  [scratch] is
   cleared and used to stage the newly informed ids, so the hot path
   allocates nothing (the informed set itself only reallocates on
   capacity doubling). *)
let expand_informed graph informed scratch =
  let alive = Dyngraph.alive_count graph in
  (* informed <= alive: callers prune dead ids after every churn step. *)
  let informed_alive = Bitset.cardinal informed in
  Intvec.clear scratch;
  (* Hoisted out of the scan loops: closures allocated per scanned node
     would dominate the hop's allocation budget. *)
  let stage v = if not (bs_mem informed v) then Intvec.push scratch v in
  let mark_found u = if bs_mem informed u then raise_notrace Found in
  if informed_alive <= alive - informed_alive then
    Bitset.iter
      (fun u ->
        if Dyngraph.is_alive graph u then
          Dyngraph.iter_neighbors graph u stage)
      informed
  else
    Dyngraph.iter_alive graph (fun v ->
        if not (bs_mem informed v) then
          let touches_informed =
            match Dyngraph.iter_neighbors graph v mark_found with
            | () -> false
            | exception Found -> true
          in
          if touches_informed then Intvec.push scratch v);
  Intvec.iter (fun v -> bs_add informed v) scratch

(* Frontier-based hop: scan only the informed nodes that can still have
   uninformed neighbors, instead of re-scanning the full informed set.

   Invariant (holds on entry): every alive uninformed node adjacent to an
   informed node is adjacent to a member of [frontier].  Proof sketch of
   maintenance: a hop informs every alive uninformed neighbor of every
   frontier node, so right after the hop no scanned node has an
   uninformed neighbor.  Between hops the pairs (informed u, uninformed
   alive v) adjacent to each other can only be created by (a) a node
   informed in the hop itself — it enters the new frontier below — or
   (b) an edge created during churn with exactly one informed endpoint —
   the caller re-arms that endpoint via {!frontier_arm} from the graph's
   edge hook (births, regeneration and protocol [connect] all fire it).
   Deaths only remove edges and informed nodes never become uninformed,
   so nothing else can break the invariant.  Consequently the hop informs
   exactly the same set a full rescan would, in the same ascending-id
   staging order — traces are byte-identical, only cheaper. *)
let expand_informed_frontier graph informed frontier scratch =
  Intvec.clear scratch;
  let stage v = if not (bs_mem informed v) then Intvec.push scratch v in
  Bitset.iter
    (fun u ->
      if bs_mem informed u && Dyngraph.is_alive graph u then
        Dyngraph.iter_neighbors graph u stage)
    frontier;
  Bitset.clear frontier;
  Intvec.iter
    (fun v ->
      bs_add informed v;
      Bitset.ensure_capacity frontier (v + 1);
      Bitset.add frontier v)
    scratch

let frontier_arm frontier id =
  Bitset.ensure_capacity frontier (id + 1);
  Bitset.add frontier id

(* Adaptive hop: the frontier hop and the full rescan inform the same
   set (see above), so each round can pick whichever is cheaper without
   any observable difference.  Rough operation counts: a frontier hop
   scans the frontier bitset words plus a full neighbor iteration per
   frontier member; a rescan scans the smaller of the informed /
   uninformed sides, where the uninformed side costs one membership test
   per alive node (iter_alive) plus an early-exiting neighbor probe per
   uninformed node.  The frontier wins in the sparse early rounds and in
   the long near-complete tail (where the rescan still sweeps every
   alive node); the rescan wins in the one or two crossover rounds where
   the frontier is a large fraction of the graph. *)
let expand_informed_auto graph informed frontier scratch =
  let deg = 2 * Dyngraph.d graph in
  let alive = Dyngraph.alive_count graph in
  let inf = Bitset.cardinal informed in
  let frontier_cost =
    (Bitset.capacity frontier / 64) + (Bitset.cardinal frontier * deg)
  in
  let rescan_cost =
    if inf <= alive - inf then (Bitset.capacity informed / 64) + (inf * deg)
    else alive + ((alive - inf) * 2)
  in
  if frontier_cost <= rescan_cost then
    expand_informed_frontier graph informed frontier scratch
  else begin
    expand_informed graph informed scratch;
    (* [expand_informed] leaves [scratch] holding the newly informed ids
       (possibly with duplicates) — exactly the next frontier. *)
    Bitset.clear frontier;
    Intvec.iter (fun v -> frontier_arm frontier v) scratch
  end

(* [prev] then [hook], either of which may be absent. *)
let chain prev hook both =
  match prev with
  | None -> hook
  | Some g -> ( match hook with None -> prev | Some h -> Some (both g h))

(* Run [f ()] with [edge] and [death] installed behind whatever hooks
   [graph] already carries (an event recorder, say), and hand the graph
   back to those on exit, also when [f] raises: the hook window of all
   three flood drivers.  Callers build the hook options once, so an
   unobserved window allocates no hook closure. *)
let with_hooks graph ~edge ~death f =
  let prev_edge = Dyngraph.edge_hook graph and prev_death = Dyngraph.death_hook graph in
  Dyngraph.set_edge_hook graph
    (chain prev_edge edge (fun g h ~src ~dst ->
         g ~src ~dst;
         h ~src ~dst));
  Dyngraph.set_death_hook graph
    (chain prev_death death (fun g h id ->
         g id;
         h id));
  Fun.protect f ~finally:(fun () ->
      Dyngraph.set_edge_hook graph prev_edge;
      Dyngraph.set_death_hook graph prev_death)

(* --- resumable cross-round state ------------------------------------ *)

(* Everything flooding carries from one round to the next, factored out
   of the run loops so it can be serialized mid-flood (checkpointing)
   and so both the synchronous and discretized drivers share one shape.
   [scratch], [candidates] and [deaths] are per-round staging space:
   cleared before every use, hence transient and recreated on decode.
   [frontier] is the set of informed nodes that may still have
   uninformed neighbors; it is an optimization cache, not state —
   rebuilding it conservatively as the whole informed set (what
   {!decode_state} does) changes nothing observable, so the checkpoint
   format carries no frontier field.  [on_edge] and [on_death] are the
   hooks both drivers install while the model advances, built once per
   state: an edge created with exactly one informed endpoint arms that
   endpoint into [frontier], and an informed node that dies is pushed on
   [deaths] for the round to remove from [informed]. *)
type state = {
  informed : Bitset.t;
  frontier : Bitset.t; (* transient cache; see above *)
  scratch : Intvec.t; (* transient *)
  candidates : Intvec.t; (* transient; used by the discretized driver *)
  deaths : Intvec.t; (* transient *)
  on_edge : (src:Dyngraph.node_id -> dst:Dyngraph.node_id -> unit) option;
  on_death : (Dyngraph.node_id -> unit) option;
  mutable informed_log : int list; (* head = latest round *)
  mutable population_log : int list;
  mutable round : int;
  max_rounds : int;
  mutable completed : bool;
  mutable completion_round : int option;
  mutable extinct : bool;
  mutable extinction_round : int option;
}

let state_round st = st.round
let state_finished st = st.completed || st.extinct || st.round >= st.max_rounds

let finish_state st =
  finish ~completed:st.completed ~completion_round:st.completion_round
    ~extinct:st.extinct ~extinction_round:st.extinction_round st.informed_log
    st.population_log

module Codec = Churnet_util.Codec

let encode_state w st =
  Bitset.encode w st.informed;
  Codec.int_list w st.informed_log;
  Codec.int_list w st.population_log;
  Codec.varint w st.round;
  Codec.varint w st.max_rounds;
  Codec.bool w st.completed;
  Codec.option (fun w r -> Codec.varint w r) w st.completion_round;
  Codec.bool w st.extinct;
  Codec.option (fun w r -> Codec.varint w r) w st.extinction_round

(* A round-0 state over [informed], with the whole of it as frontier. *)
let make_state ~max_rounds ~informed ~population =
  let frontier = Bitset.copy informed and deaths = Intvec.create ~capacity:64 () in
  let on_edge ~src ~dst =
    let src_informed = bs_mem informed src in
    let dst_informed = bs_mem informed dst in
    if src_informed && not dst_informed then frontier_arm frontier src
    else if dst_informed && not src_informed then frontier_arm frontier dst
  in
  {
    informed;
    frontier;
    scratch = Intvec.create ~capacity:256 ();
    candidates = Intvec.create ~capacity:1024 ();
    deaths;
    on_edge = Some on_edge;
    on_death = Some (fun id -> if bs_mem informed id then Intvec.push deaths id);
    informed_log = [ 1 ];
    population_log = [ population ];
    round = 0;
    max_rounds;
    completed = false;
    completion_round = None;
    extinct = false;
    extinction_round = None;
  }

let decode_state r =
  let informed = Bitset.decode r in
  let informed_log = Codec.read_int_list r in
  let population_log = Codec.read_int_list r in
  let round = Codec.read_varint r in
  let max_rounds = Codec.read_varint r in
  let completed = Codec.read_bool r in
  let completion_round = Codec.read_option (fun r -> Codec.read_varint r) r in
  let extinct = Codec.read_bool r in
  let extinction_round = Codec.read_option (fun r -> Codec.read_varint r) r in
  if
    round < 0 || max_rounds < 0
    || List.length informed_log <> round + 1
    || List.length population_log <> round + 1
    || (completed && completion_round = None)
    || (extinct && extinction_round = None)
  then raise (Codec.Error "Flood.decode_state: inconsistent fields");
  (* Conservative frontier: rescanning every informed node on the first
     post-resume round yields the same newly-informed set as the exact
     frontier would (scanning a superset never changes the result). *)
  {
    (make_state ~max_rounds ~informed ~population:0) with
    informed_log;
    population_log;
    round;
    completed;
    completion_round;
    extinct;
    extinction_round;
  }

let source_state ~max_rounds ~source ~population =
  let informed = Bitset.create (source + 64) in
  Bitset.add informed source;
  make_state ~max_rounds ~informed ~population

(* Advance the model by [f ()] inside the state's hook window, then drop
   the informed nodes that died meanwhile. *)
let advance graph st f =
  Intvec.clear st.deaths;
  with_hooks graph ~edge:st.on_edge ~death:st.on_death f;
  for k = 0 to Intvec.length st.deaths - 1 do
    Bitset.remove st.informed (Intvec.get st.deaths k)
  done

(* Log the round just ended; stop the flood when [covered], or at
   extinction: once every informed node died before passing the message
   on (as in PDG or SDG), nothing can revive the flood, so stop here
   instead of spinning to [max_rounds]. *)
let end_round st ~alive ~inf ~covered =
  st.informed_log <- inf :: st.informed_log;
  st.population_log <- alive :: st.population_log;
  if covered then begin
    st.completed <- true;
    st.completion_round <- Some st.round
  end
  else if inf = 0 then begin
    st.extinct <- true;
    st.extinction_round <- Some st.round
  end

let sync_start ~max_rounds ~graph ~step ~newest =
  (* The source is the node joining the network at round t0. *)
  step ();
  let source = newest () in
  source_state ~max_rounds ~source ~population:(Dyngraph.alive_count graph)

let sync_round ~graph ~step ~newest st =
  st.round <- st.round + 1;
  (* I_t = (I_{t-1} U boundary in G_{t-1}) /\ N_t *)
  expand_informed_auto graph st.informed st.frontier st.scratch;
  (* Churn; the state's edge hook re-arms an informed node that gains an
     uninformed neighbor, so the next hop rescans it. *)
  advance graph st step;
  let alive = Dyngraph.alive_count graph and inf = Bitset.cardinal st.informed in
  let newborn = newest () in
  let uninformed = alive - inf in
  end_round st ~alive ~inf
    ~covered:(uninformed = 0 || (uninformed = 1 && not (bs_mem st.informed newborn)))

(* [start] plants the source (its last jump must be the source's birth);
   [step] is one round of churn. *)
let run_sync ~max_rounds ~graph ~start ~step ~newest =
  let st = sync_start ~max_rounds ~graph ~step:start ~newest in
  while not (state_finished st) do
    sync_round ~graph ~step ~newest st
  done;
  finish_state st

let run_custom ?max_rounds ~graph ~step ~newest ~default_max_rounds () =
  let max_rounds = Option.value ~default:default_max_rounds max_rounds in
  run_sync ~max_rounds ~graph ~start:step ~step ~newest

let run_streaming ?max_rounds model =
  let n = Streaming_model.n model in
  run_custom ?max_rounds
    ~graph:(Streaming_model.graph model)
    ~step:(fun () -> Streaming_model.step model)
    ~newest:(fun () -> Streaming_model.newest model)
    ~default_max_rounds:(4 * n) ()

(* Round bound of the unit-time floods over Poisson churn: the paper's
   O(log n) flooding time with room to spare. *)
let unit_time_max_rounds n = int_of_float (8. *. log (float_of_int n)) + 60

let run_unit_time ?max_rounds ~step model =
  let graph = Poisson_model.graph model in
  let max_rounds =
    Option.value ~default:(unit_time_max_rounds (Poisson_model.n model)) max_rounds
  in
  (* The source is the next newborn: execute jumps until a birth. *)
  let rec until_birth () =
    let before = Dyngraph.alive_count graph in
    step ();
    if Dyngraph.alive_count graph <= before then until_birth ()
  in
  (* One round: execute jumps until the clock has moved a full unit (the
     crossing jump is part of the round). *)
  let one_unit () =
    let deadline = Poisson_model.time model +. 1.0 in
    while Poisson_model.time model < deadline do
      step ()
    done
  in
  run_sync ~max_rounds ~graph ~start:until_birth ~step:one_unit
    ~newest:(fun () -> match Poisson_model.newest model with Some id -> id | None -> -1)

(* Candidate edges recorded at the start of a unit interval are
   flat-encoded as 4 consecutive ints in a scratch vector:
   [owner]'s out-slot [slot] pointed at [other]; the uninformed endpoint
   was [learner].  The message crosses only if the same slot still holds
   the same target at the end of the interval and both endpoints
   survived. *)

let poisson_start ~max_rounds model =
  let source = Poisson_model.step_until_birth model in
  source_state ~max_rounds ~source
    ~population:(Dyngraph.alive_count (Poisson_model.graph model))

let poisson_round model st =
  let graph = Poisson_model.graph model in
  let d = Dyngraph.d graph in
  let informed = st.informed and frontier = st.frontier in
  let candidates = st.candidates in
  st.round <- st.round + 1;
  (* Record the informed-to-uninformed edges present at time t.  Only the
     frontier can own one (the invariant of expand_informed_frontier, kept
     by the edge hook and by arming every learner), so its ascending scan
     lists the candidates of a full scan, in the same order. *)
  Intvec.clear candidates;
  let push_candidate ~owner ~slot ~other ~learner =
    Intvec.push candidates owner;
    Intvec.push candidates slot;
    Intvec.push candidates other;
    Intvec.push candidates learner
  in
  (* One in-neighbor visitor per round, reading the informed node from
     [current]: a closure built per informed node would allocate on
     every one of them. *)
  let current = ref (-1) in
  let visit_in v =
    let u = !current in
    if not (bs_mem informed v) then
      for j = 0 to d - 1 do
        if Dyngraph.out_slot graph v j = u then
          push_candidate ~owner:v ~slot:j ~other:u ~learner:v
      done
  in
  Bitset.iter
    (fun u ->
      if bs_mem informed u && Dyngraph.is_alive graph u then begin
        for i = 0 to d - 1 do
          let w = Dyngraph.out_slot graph u i in
          if w >= 0 && not (bs_mem informed w) then
            push_candidate ~owner:u ~slot:i ~other:w ~learner:w
        done;
        current := u;
        Dyngraph.iter_in_neighbors graph u visit_in
      end)
    frontier;
  Bitset.clear frontier;
  (* Advance the churn by one unit of time. *)
  let birth_round_start = Poisson_model.round model in
  let id0 = Dyngraph.peek_next_id graph in
  let deadline = Poisson_model.time model +. 1.0 in
  advance graph st (fun () -> Poisson_model.run_until_time model deadline);
  (* Deliver along candidates whose edge survived the whole interval. *)
  let m = Intvec.length candidates / 4 in
  for k = 0 to m - 1 do
    let owner = Intvec.get candidates (4 * k) in
    let slot = Intvec.get candidates ((4 * k) + 1) in
    let other = Intvec.get candidates ((4 * k) + 2) in
    let learner = Intvec.get candidates ((4 * k) + 3) in
    if
      Dyngraph.is_alive graph owner
      && Dyngraph.is_alive graph other
      && Dyngraph.out_slot graph owner slot = other
    then begin
      bs_add informed learner;
      frontier_arm frontier learner
    end
  done;
  let alive = Dyngraph.alive_count graph and inf = Bitset.cardinal informed in
  (* Completion: everyone alive is informed, except possibly nodes born
     during the interval just elapsed (Definition 4.3 cannot reach them
     yet): those stamped past [birth_round_start], all of them with ids
     from [id0] on.  A pending birth drawn last round is stamped at most
     [birth_round_start], so it is not exempt. *)
  let late = ref 0 in
  for id = id0 to Dyngraph.peek_next_id graph - 1 do
    if
      Dyngraph.is_alive graph id
      && (not (bs_mem informed id))
      && Dyngraph.birth_of graph id > birth_round_start
    then incr late
  done;
  end_round st ~alive ~inf ~covered:(alive - inf = !late && inf > 1)

let run_poisson_discretized ?max_rounds model =
  let max_rounds =
    Option.value ~default:(unit_time_max_rounds (Poisson_model.n model)) max_rounds
  in
  let st = poisson_start ~max_rounds model in
  while not (state_finished st) do
    poisson_round model st
  done;
  finish_state st

module Async = struct
  type result = {
    completed : bool;
    completion_time : float option;
    informed_total : int;
    final_coverage : float;
    events : int;
    extinct : bool;
  }

  let run ?max_time model =
    let n = Poisson_model.n model in
    let max_time =
      Option.value ~default:((8. *. log (float_of_int n)) +. 50.) max_time
    in
    let graph = Poisson_model.graph model in
    let source = Poisson_model.step_until_birth model in
    let t0 = Poisson_model.time model in
    let deadline = t0 +. max_time in
    let informed : (int, float) Hashtbl.t = Hashtbl.create 1024 in
    let deliveries : int Churnet_util.Heap.t = Churnet_util.Heap.create () in
    let ever_informed = ref 0 in
    (* Exact O(1) coverage bookkeeping: [informed_alive] counts informed
       nodes that are still alive; the death hook keeps it current. *)
    let informed_alive = ref 0 in
    let inform id at =
      if (not (Hashtbl.mem informed id)) && Dyngraph.is_alive graph id then begin
        Hashtbl.replace informed id at;
        incr ever_informed;
        incr informed_alive;
        Dyngraph.iter_neighbors graph id (fun v ->
            if not (Hashtbl.mem informed v) then
              Churnet_util.Heap.push deliveries (at +. 1.) v)
      end
    in
    (* New edges towards informed nodes trigger a delivery one unit later
       (Definition 4.2: neighbor at instant t => informed at t + 1).  The
       hook reads the model clock, hence the per-jump [Poisson_model.step]
       below. *)
    let on_edge ~src ~dst =
      let now = Poisson_model.time model in
      let src_informed = Hashtbl.mem informed src in
      let dst_informed = Hashtbl.mem informed dst in
      if src_informed && not dst_informed then
        Churnet_util.Heap.push deliveries (now +. 1.) dst
      else if dst_informed && not src_informed then
        Churnet_util.Heap.push deliveries (now +. 1.) src
    in
    let on_death id = if Hashtbl.mem informed id then decr informed_alive in
    let events = ref 0 in
    let completed = ref false in
    let completion_time = ref None in
    let extinct = ref false in
    let stop = ref false in
    (* Time of the event processed last — a delivery's scheduled instant
       or the churn jump just executed.  Completion is stamped with this,
       not with the model clock: when a delivery completes the flood the
       model clock still reads the previous jump. *)
    let last_event_time = ref t0 in
    let flood () =
      inform source t0;
      while not !stop do
        let next_jump = Poisson_model.next_jump_time model in
        let next_delivery = Churnet_util.Heap.peek deliveries in
        let now_candidate =
          match next_delivery with
          | Some (td, _) when td <= next_jump -> `Delivery td
          | _ -> `Jump next_jump
        in
        (match now_candidate with
        | `Delivery td ->
            (* Deliveries past the deadline are outside the observation
               window, exactly like jumps past the deadline. *)
            if td > deadline then stop := true
            else begin
              (match Churnet_util.Heap.pop deliveries with
              | Some (td, v) -> inform v td
              | None -> ());
              last_event_time := td
            end
        | `Jump tj ->
            if tj > deadline then stop := true
            else begin
              Poisson_model.step model;
              incr events;
              last_event_time := Poisson_model.time model
            end);
        if not !stop then begin
          if !informed_alive = Dyngraph.alive_count graph && !informed_alive > 0 then begin
            completed := true;
            completion_time := Some (!last_event_time -. t0);
            stop := true
          end
          else if !informed_alive = 0 && Churnet_util.Heap.is_empty deliveries then begin
            (* Extinction: no informed node alive and nothing pending. *)
            extinct := true;
            stop := true
          end
        end
      done
    in
    with_hooks graph ~edge:(Some on_edge) ~death:(Some on_death) flood;
    let alive = Dyngraph.alive_count graph in
    {
      completed = !completed;
      completion_time = !completion_time;
      informed_total = !ever_informed;
      final_coverage =
        (if alive = 0 then nan else float_of_int !informed_alive /. float_of_int alive);
      events = !events;
      extinct = !extinct;
    }
end
