(** The streaming dynamic graphs of Section 3: SDG (Definition 3.4,
    [regenerate = false]) and SDGR (Definition 3.13, [regenerate = true]).

    Node churn follows Definition 3.2: one node is born per round and
    lives exactly [n] rounds, so after round [n] the population is pinned
    at [n] and every round replaces the oldest node with a fresh one.
    Within a round the dying node leaves {e before} the newborn samples
    its [d] connection requests, matching N_t in the paper. *)

type t

val create :
  rng:Churnet_util.Prng.t -> n:int -> d:int -> regenerate:bool -> unit -> t

val n : t -> int
val d : t -> int
val regenerates : t -> bool
val round : t -> int
(** Rounds executed so far (0 before any {!step}). *)

val graph : t -> Churnet_graph.Dyngraph.t
val step : t -> unit
(** Execute one round: kill the node of age [n] (if any), then insert a
    newborn that issues its [d] requests. *)

val step_with :
  t ->
  die:('a -> Churnet_graph.Dyngraph.node_id -> unit) ->
  born:('a -> int -> Churnet_graph.Dyngraph.node_id) ->
  'a ->
  unit
(** [step_with t ~die ~born x] executes one round of the Definition 3.2
    schedule with a pluggable attachment rule over the rule state [x];
    [step t] is this with the paper's uniform rule.  In order:
    - the round counter advances to [r];
    - [die x v] is called for the node [v] born [n] rounds ago, only if
      [v] is still alive.  It must remove [v] from {!graph} (and may
      repair the edges [v] leaves behind);
    - [born x r] must insert exactly one node born at round [r] into
      {!graph} and return its id, which becomes {!newest} and dies [n]
      rounds later.

    The rule gets its state as an argument rather than capturing it in a
    closure, so a caller passing top-level functions allocates nothing
    per round. *)

val run : t -> int -> unit
(** [run t k] executes [k] rounds. *)

val warm_up : t -> unit
(** Run [2 n] rounds so the population is exactly [n] and the age
    distribution is in its steady state (every theorem assumes
    [t >= n]). *)

val newest : t -> Churnet_graph.Dyngraph.node_id
(** The node born in the latest round (the canonical flooding source). *)

val age_of : t -> Churnet_graph.Dyngraph.node_id -> int
(** Age in rounds (>= 1 right after birth round, matching the paper's
    "age k at round t if it joined at round t - k" plus our convention
    that the newborn of the current round has age 0). *)

val snapshot : t -> Churnet_graph.Snapshot.t
