(** Exact vertex isoperimetric number by exhaustive enumeration.

    h_out(G) = min over non-empty S with |S| <= n/2 of |boundary(S)|/|S|
    (Definition 3.1).  Exponential in n — usable for n <= ~22, which is
    what the unit tests and tiny sanity checks need. *)

(* lint: allow dead-export — test seam: test_expansion's exact oracle for Probe *)
val h_out : Churnet_graph.Snapshot.t -> float
(** Raises [Invalid_argument] when the snapshot has more than 22 vertices
    or fewer than 2. *)

(* lint: allow dead-export — test seam: test_expansion's exact oracle for Probe *)
val h_out_with_witness : Churnet_graph.Snapshot.t -> float * int list
(** Also return one minimizing set (as snapshot indices). *)
