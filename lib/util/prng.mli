(** Deterministic pseudo-random number generation.

    All randomness in churnet flows through values of type {!t}, so that
    every simulation is reproducible from a single 64-bit seed.  The
    generator is xoshiro256** seeded through SplitMix64, the standard
    recommendation of Blackman & Vigna; it is fast, has a 2^256 - 1 period
    and passes BigCrush.

    The state is the four 64-bit xoshiro words, stored unboxed in one
    32-byte buffer, so stepping the generator allocates nothing: draws
    that return an [int] or a [bool] ({!int}, {!bernoulli}) allocate no
    words in any build.  In release builds,
    where [bits64] and {!unit_float} inline across modules, the float
    draws allocate nothing either; a call that is not inlined into its
    caller still boxes the [float] or [int64] it returns. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]
    (any int, including negative values). *)

val split : t -> t
(** [split t] derives a new, statistically independent generator from [t],
    advancing [t].  Useful to give each replica of an experiment its own
    stream. *)

(* lint: allow dead-export — test seam: test_prng checks that a copy replays
   the stream *)
val copy : t -> t
(** [copy t] duplicates the current state (same future outputs). *)

(* lint: allow dead-export — test seam: test_prng's known-answer tests pin the
   raw stream *)
val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound-1].  [bound] must be positive. *)

val unit_float : t -> float
(** Uniform on [0,1) with 53 bits of precision. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement t k n] draws [k] distinct values uniformly
    from [0, n-1].  Requires [k <= n]. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val encode : Codec.writer -> t -> unit
(** Serialize the generator state (4 fixed int64 words) for checkpoints. *)

val decode : Codec.reader -> t
(** Rebuild a generator with exactly the encoded future output stream. *)
