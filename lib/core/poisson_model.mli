(** The Poisson dynamic graphs of Section 4: PDG (Definition 4.9,
    [regenerate = false]) and PDGR (Definition 4.14, [regenerate = true]).

    Node churn follows Definition 4.1 with lambda = 1 and mu = 1/n,
    simulated through the jump chain of Definition 4.5: each step is a
    birth with probability lambda/(N mu + lambda), otherwise the death of
    a uniformly random alive node; inter-event times are
    Exp(N mu + lambda). *)

type t

val create :
  rng:Churnet_util.Prng.t -> ?lambda:float -> n:int -> d:int -> regenerate:bool -> unit -> t
(** [lambda] (default 1) is the arrival rate; the death rate is lambda/n
    so the stationary population stays [n].  Message transmission still
    takes one unit of continuous time, so larger [lambda] means more
    churn per flooding round — the S1 experiment measures how behaviour
    rescales. *)

val n : t -> int
val d : t -> int
val regenerates : t -> bool
val graph : t -> Churnet_graph.Dyngraph.t
val round : t -> int
(** Jump-chain index r of T_r. *)

val time : t -> float
(** Continuous time elapsed. *)

val population : t -> int

val step : t -> unit
(** Execute one jump (birth or death). *)

val next_jump_time : t -> float
(** Absolute time at which the next jump will occur.  Drawing is lazy and
    idempotent: the returned value is the one the next [step] executes.
    Used by the asynchronous flooding simulator to interleave message
    deliveries with churn on the real line. *)

val step_until_birth : t -> Churnet_graph.Dyngraph.node_id
(** Execute jumps one at a time up to and including the next birth, and
    return the newborn (the source of every flood from the next
    newborn). *)

(** {1 Bulk advance}

    The runners below are the one bulk advance path.  Jumps are pre-drawn
    in batches from the churn PRNG ([Poisson_churn.decide_batch]) and
    applied through a single arena pass ([Dyngraph.churn_batch]).  The
    resulting state, PRNG streams and pending jump included, is
    byte-identical to a loop of {!step}s (a differential test holds them
    to that).

    One difference is observable: {!Churnet_graph.Dyngraph} hooks fire
    while a batch is applied, when the model's {!round} already counts
    the whole batch and its {!time} has not yet reached the jump that
    fires them.  A hook that reads [time] or [round] (as the asynchronous
    flooding simulator's does) must drive the model with {!step}. *)

val run_rounds : t -> int -> unit
(** Execute exactly [k] jumps (a pre-drawn pending jump counts as the
    first). *)

val run_until_time : t -> float -> unit
(** Execute jumps until continuous time reaches the given absolute value.
    The jump that crosses the deadline is {e not} executed: it stays
    pending, and the clock advances past it on the next [step]. *)

val warm_up : t -> unit
(** Run [12 n] jumps: the population reaches its stationary band
    (Lemma 4.4 needs t >= 3n) and the age distribution mixes (about six
    mean lifetimes). *)

val newest : t -> Churnet_graph.Dyngraph.node_id option
(** The most recently born alive node, if any. *)

val snapshot : t -> Churnet_graph.Snapshot.t

val encode : Churnet_util.Codec.writer -> t -> unit
(** Serialize the model for checkpoints, including the lazily pre-drawn
    pending jump (already taken from the churn PRNG, hence state). *)

val decode : Churnet_util.Codec.reader -> t
