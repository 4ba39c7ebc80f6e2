(** Classic topology metrics over snapshots, used to characterize how
    closely the paper's random models resemble protocol-built P2P
    topologies (experiment F12): clustering, degree assortativity,
    typical distances and degree-distribution summaries. *)

val global_clustering : Snapshot.t -> float
(** Transitivity: 3 x (number of triangles) / (number of wedges);
    [nan] when the graph has no wedge. *)

val degree_gini : Snapshot.t -> float
(** Gini coefficient of the degree sequence: 0 = perfectly regular,
    towards 1 = extremely skewed. *)

type fingerprint = {
  nodes : int;
  edges : int;
  mean_degree : float;
  max_degree : int;
  degree_gini : float;
  global_clustering : float;
  assortativity : float;
      (** Pearson correlation of the degrees at the two endpoints of a
          uniform random edge (Newman's r); [nan] for degree-regular or
          empty graphs. *)
  mean_distance : float;
      (** average shortest-path distance over reachable pairs, by BFS
          from 16 random vertices (every vertex of a smaller graph) *)
  diameter_lb : int;
      (** max eccentricity over the same BFS sources — a lower bound on
          the true diameter of the largest component *)
  giant_fraction : float;
}

val fingerprint : rng:Churnet_util.Prng.t -> Snapshot.t -> fingerprint
(** All of the above in one pass (sampling-based entries use [rng]). *)
