(** Numeric verification of the paper's closed-form bounds and of the
    "by standard calculus" steps its proofs assert without detail.

    Everything here is exact arithmetic on the paper's formulas (in log
    space where needed), not simulation; the T1 experiment and the test
    suite check each claim at concrete parameter values. *)

(** {1 Headline bound functions} *)

val isolated_lower_sdg : d:int -> float
(** Lemma 3.5, per node: a fraction (1/6) e^{-2d} of the n nodes is
    isolated. *)

val isolated_lower_pdg : d:int -> float
(** Lemma 4.10, per node: (1/18) e^{-2d}. *)

val coverage_target_sdg : d:int -> float
(** Theorem 3.8: 1 - e^{-d/10}. *)

val onion_success_lower : d:int -> float
(** Lemma 3.9 / Claim 3.11: 1 - 4 e^{-d/100} (clamped at 0). *)

val edge_prob_older_sdgr : n:int -> age:int -> float
(** Lemma 3.14: (1/(n-1)) (1 + 1/(n-1))^{age-1}. *)

val edge_prob_older_pdgr_bound : n:int -> age_rounds:int -> float
(** Lemma 4.15: (1/(0.8 n)) (1 + i/(1.7 n)). *)

(** {1 Verified calculus steps} *)

val claim_3_11_product : d:int -> float
(** The infinite product c = prod_{i>=0} (1 - e^{-a_i d / 100}) with
    a_i = (d/20)^i, evaluated to machine precision (the tail is summed
    until it is below 1e-16).  Claim 3.11 asserts c >= 1 - 4 e^{-d/100}
    for d >= 200. *)

(* lint: allow dead-export — test seam: test_bounds checks the term every union
   bound sums *)
val log_binomial : int -> int -> float
(** ln (n choose k), exact via lgamma-style log-factorials. *)

val union_bound_static : n:int -> d:int -> float
(** Lemma B.1's union bound: sum_{s=1}^{n/2} C(n,s) C(n-s,0.1s)
    (1.1 s / (n-1))^{d s}, computed in log space.  The lemma asserts it is
    at most n^{-(d-2)} for d >= 3. *)

val union_bound_sdgr_small : n:int -> d:int -> float
(** Lemma 6.4's union bound (SDGR small sets): sum_{s=1}^{n/4} C(n,s)
    C(n-s,0.1s) (1.1 s e/(n-1))^{d s}.  Asserted <= 1/n^4 for d >= 21. *)

val union_bound_sdg_large : n:int -> d:int -> float
(** Lemma 3.6's union bound (SDG large sets): sum over s in
    [n e^{-d/10}, n/2] of C(n,s) C(n-s,0.1s) e^{-d s (n - 1.1 s)/(2n)}.
    Asserted <= 1/n^4 for d >= 20. *)

val qm_total_mass : n:int -> k:int -> d:int -> float
(** Section 4.3.1: the total mass sum_m q_m of the comparison
    distribution q_m = (10/9)(0.6 n^2/k^2) e^{-0.4 m}
    min(1, (1.1 k (0.6 m + 1)/(0.8 n))^d) over m = 1..L with L = 7 ln n.
    The proof needs sum q_m <= 1 (for d >= 30, k <= n/14) so that the KL
    inequality applies. *)
