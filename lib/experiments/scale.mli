(** Effort knobs shared by all experiments.  [Smoke] keeps everything
    small enough for CI-style runs (seconds), [Standard] is the default
    used by the benchmark harness, [Full] is for overnight-quality
    statistics, [XL] is the million-node tier: population sizes where the
    paper's asymptotic claims become visually unambiguous but a flat CSR
    snapshot no longer fits comfortably in memory. *)

type t = Smoke | Standard | Full | XL

val of_string : string -> t option
val to_string : t -> string

val names : string list
(** The parseable tier names, smallest tier first — for CLI error
    messages that must list the valid values. *)

val pick : ?xl:'a -> t -> smoke:'a -> standard:'a -> full:'a -> 'a
(** Select a value by scale.  [?xl] defaults to the [full] value, so
    experiments that have no dedicated million-node configuration run
    their full-scale one under [XL]. *)
