(** Minimal fork-join parallelism over OCaml 5 domains.

    Experiments are embarrassingly parallel across trials (each trial owns
    its PRNG, split deterministically up front), so {!map} is a
    self-scheduling loop: the calling domain and [domains - 1] spawned
    ones each claim the next unclaimed element from one shared atomic
    counter, so a worker that draws cheap elements simply claims more of
    them.  A failure stops every worker from claiming further elements
    (fail-fast), and results are still returned in input order.  Falls
    back to sequential execution when [domains <= 1] or on runtimes with
    a single recommended domain. *)

val domains_from_env : unit -> int
(** The default worker count: [CHURNET_DOMAINS] if set (must be a positive
    integer, [Invalid_argument] otherwise), else
    [Domain.recommended_domain_count] capped at 8 (the experiments are
    memory-bandwidth-bound beyond that).
    Read at every call, so the environment can be changed between runs. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] with the results in input order.  [f] must be safe to run
    concurrently on distinct elements (no shared mutable state — in
    particular, no shared {!Prng.t}).  Each element is evaluated exactly
    once, on whichever domain claims it.  If several elements fail, the
    first exception {e reported} wins (later failures are dropped) and is
    re-raised in the caller with its backtrace preserved; once a failure
    is reported no worker claims a further element.

    When a {!Checkpoint} journal is installed, every call allocates the
    next call-site number (in execution order, empty calls included) and
    each element is served from the journal when cached, else computed,
    recorded under (site, index) and counted as one crash-injection
    tick.  Site and index numbering are independent of [domains], so a
    journal resumes identically at any [CHURNET_DOMAINS]. *)

val replicate : ?domains:int -> rng:Prng.t -> trials:int -> (Prng.t -> 'a) -> 'a array
(** [replicate ~rng ~trials f] runs [trials] independent replications of
    [f], each on its own generator pre-split from [rng] in trial order
    before any domain starts.  Consequently the result array is
    order-stable and bit-identical across every [domains] setting —
    including the serial [domains:1] path — and identical to the
    historical serial loop [for _ = 1 to trials do ... f (Prng.split rng) ... done].
    [rng] is advanced by exactly [trials] splits. *)
