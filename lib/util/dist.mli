(** Samplers and probability functions for the distributions used by the
    Poisson dynamic-graph models: exponential inter-arrival times and
    lifetimes (Definition 4.1), plus the Poisson mass function and
    log-factorial used by the statistical validation experiments. *)

val exponential : Prng.t -> float -> float
(** [exponential rng lambda] samples Exp(lambda) by inversion.
    Mean is [1 /. lambda].  [lambda] must be positive. *)

val poisson_pmf : float -> int -> float
(** [poisson_pmf mean k] is the Poisson probability mass at [k],
    computed in log space for stability. *)

val log_factorial : int -> float
(** [log_factorial k] = ln k!, via Stirling for large [k] with a cached
    table for small values. *)
