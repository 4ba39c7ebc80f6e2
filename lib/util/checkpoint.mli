(** Work-unit checkpoint journal for crash/resume of long runs.

    churnet runs are pure functions of (seed, scale, command), and
    their parallel fan-outs enumerate work units deterministically and
    independently of the domain count.  The journal memoizes completed
    unit results keyed by (site, index) — [site] numbers the
    {!Parallel} call sites in execution order, [index] the unit within
    a call — so a resumed run replays the identical schedule, takes
    cache hits for the units the crashed run persisted, recomputes the
    rest, and produces byte-identical output either way.

    The file format is {!Codec}-framed (schema [churnet-ckpt/1],
    length-prefixed, CRC-32-checked) and written atomically; payloads
    are [Marshal]ed, guarded by a caller-supplied [meta] identity line
    (executable digest + command + seed + scale) that {!load} refuses
    to mismatch.  Units whose results cannot be marshaled (closures)
    are skipped and recomputed on resume.

    A journal is installed ambiently around a run ({!install});
    {!Parallel.map} and friends consult {!active} on every call. *)

type t

exception Mismatch of string
(** Raised by {!load} when the stored meta line differs from the
    current run's — resuming under a different binary, command, seed
    or scale would decode foreign [Marshal] payloads. *)

type stats = {
  mutable units_stored : int;  (** results recorded this process *)
  mutable units_restored : int;  (** cache hits served this process *)
  mutable writes : int;  (** journal files written *)
  mutable write_seconds : float;  (** total time in journal writes *)
}

val create : path:string -> every:int -> meta:string -> t
(** [create ~path ~every ~meta] starts a fresh journal (overwriting any
    file at [path]) that persists itself after every [every] newly
    stored units, and once immediately — so even a crash before the
    first unit completes leaves a resumable (empty) journal. *)

val load : path:string -> every:int -> meta:string -> t
(** Reopen an existing journal for a resumed run.  Raises {!Mismatch}
    if the stored meta line is not exactly [meta], {!Codec.Error} on a
    corrupt or truncated file. *)

(* lint: allow dead-export — test seam: test/fault/crash_harness.ml reads
   journals *)
val inspect : string -> string * int
(** [inspect path] = (meta line, stored unit count), without meta
    validation.  Used by the fault-injection harness to size kill
    points. *)

(* lint: allow dead-export — test seam: test/fault/crash_harness.ml reads
   journals *)
val units : t -> int
(** Units currently held (restored + stored). *)

val install : t -> unit
(** Make [t] the ambient journal consulted by {!Parallel}.  At most one
    journal may be installed ([Invalid_argument] otherwise). *)

(* lint: allow dead-export — test seam: test_checkpoint resets the journal
   between cases *)
val uninstall : unit -> unit
val active : unit -> t option

val alloc_site : t -> int
(** Next call-site number, in execution order.  Called once per
    {!Parallel.map} invocation; deterministic because experiment
    orchestration is sequential. *)

val find : t -> site:int -> index:int -> 'a option
(** Cache lookup.  The ['a] is trusted ([Marshal.from_string]), which
    is why {!load} insists on an exact meta match. *)

val record : t -> site:int -> index:int -> 'a -> unit
(** Store a completed unit (thread-safe; called from worker domains).
    Persists the journal when [every] new units have accumulated. *)

val flush : t -> unit
(** Persist now if any stored unit is unwritten. *)

val finalize : t -> unit
(** {!flush}, then uninstall [t] if it is the ambient journal. *)

val stats : t -> stats
(** Snapshot of this process's journal activity. *)

val active_stats : unit -> stats option
(** {!stats} of the ambient journal, if one is installed.  Telemetry
    polls this around each experiment. *)

(** {1 Fault injection} *)

val crash_after : int -> (unit -> unit) -> unit
(** [crash_after k hook] fires [hook] exactly as the [k]-th progress
    tick ({!crash_tick}) after arming happens (arming resets the tick
    count).  The CLI's [--crash-at] arms a self-SIGKILL here to
    exercise crash/resume. *)

val crash_tick : unit -> unit
(** Count one completed work unit towards {!crash_after}.  Called by
    {!Parallel} for every freshly computed (non-cache-hit) unit and by
    the CLI's record-replay step loop. *)

(** {1 Clock injection} *)

val set_clock : (unit -> float) -> unit
(** Install the wall-clock used to time journal writes.  Defaults to a
    zero clock: simulation libraries may not read real time (see the
    no-wallclock lint rule), so the CLI injects Telemetry's clock. *)
