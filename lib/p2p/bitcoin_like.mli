(** A Bitcoin-Core-flavoured peer-to-peer network (paper Sections 1.1 and
    5): Poisson node churn, a target out-degree, a maximum in-degree, and
    fully decentralized neighbor selection from locally gossiped address
    tables — the mechanism the paper argues PDGR approximates.

    Concretely (mirroring the Bitcoin Core behaviour the paper describes):
    - a joining node bootstraps its address table from a "DNS seed"
      (a uniform sample of alive nodes);
    - whenever a node's out-degree is below the target it tries to open
      connections to addresses from its table, skipping dead peers and
      peers at their in-degree cap;
    - connected peers periodically advertise random entries of their
      tables to each other.

    Defaults follow Bitcoin Core: target out-degree 8, max in-degree 125. *)

type t

val create :
  rng:Churnet_util.Prng.t ->
  ?target_out:int ->
  ?max_in:int ->
  ?table_size:int ->
  ?seed_size:int ->
  ?gossip_size:int ->
  n:int ->
  unit ->
  t
(** [n] is the stationary population (lambda = 1, mu = 1/n). *)

val n : t -> int
val graph : t -> Churnet_graph.Dyngraph.t
val step : t -> unit
(** One churn jump followed by one maintenance pass over deficient nodes. *)

val warm_up : t -> unit
val time : t -> float
val snapshot : t -> Churnet_graph.Snapshot.t
val newest : t -> Churnet_graph.Dyngraph.node_id option

val flood : ?max_rounds:int -> t -> Churnet_core.Flood.trace
(** Synchronous flooding with one round per unit of continuous time,
    starting from the next newborn — comparable to the PDGR discretized
    flooding of F10. *)

val mean_out_degree : t -> float
val mean_table_fill : t -> float
