(** Descriptive statistics for experiment reporting: streaming moments,
    quantiles, confidence intervals and least-squares fits
    (including the [a * log n + b] fits used to check the O(log n)
    flooding-time theorems). *)

(** {1 Streaming accumulator} *)

module Acc : sig
  type t
  (** Welford accumulator for the mean and variance. *)

  val create : unit -> t
  val add : t -> float -> unit
  val add_int : t -> int -> unit
  val mean : t -> float
  (** Mean; [nan] when empty. *)

  (* lint: allow dead-export — test seam: test_stats measures sample
     variances with it *)
  val variance : t -> float
  (** Unbiased sample variance; [nan] when count < 2. *)
end

(** {1 Batch helpers} *)

val mean : float array -> float
val median : float array -> float
val quantile : float array -> float -> float
(** [quantile xs q] with linear interpolation; [q] in [0,1].  Does not
    mutate its argument. *)

(** {1 Fits} *)

type fit = { slope : float; intercept : float; r2 : float }

val linear_fit : (float * float) array -> fit
(** Ordinary least squares y = slope * x + intercept. *)

val log_fit : (float * float) array -> fit
(** Fit y = slope * ln x + intercept (checks O(log n) scalings).
    All x must be positive. *)

val pearson : (float * float) array -> float
(** Correlation coefficient. *)

(** {1 Hypothesis helpers} *)

val binomial_ci95 : successes:int -> trials:int -> float * float
(** Wilson-score 95% interval for a proportion. *)

(* lint: allow dead-export — test seam: test_prng checks Prng.int uniformity
   with it *)
val chi_square_uniform : int array -> float
(** Chi-square statistic of observed counts against the uniform law. *)

(* lint: allow dead-export — test seam: test_stats' goodness-of-fit oracle *)
val ks_statistic : float array -> (float -> float) -> float
(** One-sample Kolmogorov-Smirnov statistic: sup |F_empirical - F| for a
    given CDF [F].  Does not mutate its argument.  For n samples, values
    around [1.36 / sqrt n] correspond to the 5% critical level. *)
