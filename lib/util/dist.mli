(** Samplers and probability functions for the distributions used by the
    Poisson dynamic-graph models: exponential inter-arrival times and
    lifetimes (Definition 4.1), Poisson arrival counts, and a few helpers
    used by the statistical validation experiments. *)

val exponential : Prng.t -> float -> float
(** [exponential rng lambda] samples Exp(lambda) by inversion.
    Mean is [1 /. lambda].  [lambda] must be positive. *)

(* lint: allow dead-export — test seam: test_dist pins it; no model draws from
   it (ROADMAP) *)
val poisson : Prng.t -> float -> int
(** [poisson rng mean] samples a Poisson variate.  Uses Knuth
    multiplication for means below 30 and, for larger means, a sum of
    independent Knuth stages of mean at most 30 each — exact by Poisson
    additivity, O(mean) time, and immune to the [exp (-.mean)]
    underflow that silently caps single-stage Knuth at large means. *)

(* lint: allow dead-export — test seam: test_dist pins it; no model draws from
   it (ROADMAP) *)
val std_normal : Prng.t -> float
(** Standard normal via Box-Muller. *)

(* lint: allow dead-export — test seam: test_dist pins it; no program caller
   (ROADMAP) *)
val exponential_pdf : float -> float -> float
(** [exponential_pdf lambda x] is the density of Exp(lambda) at [x]. *)

val poisson_pmf : float -> int -> float
(** [poisson_pmf mean k] is the Poisson probability mass at [k],
    computed in log space for stability. *)

val log_factorial : int -> float
(** [log_factorial k] = ln k!, via Stirling for large [k] with a cached
    table for small values. *)
