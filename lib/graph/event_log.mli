(** Capture, serialize and replay dynamic-graph runs.

    Attaching a log to a {!Dyngraph.t} records every birth (with the
    newborn's request targets), regeneration edge, and death.  The log can
    then be replayed to rebuild the topology at any event index — e.g. to
    inspect the exact snapshot on which a flood behaved unexpectedly —
    and round-trips through a simple line-based text format.

    Replay correctness rests on a model invariant: an out-slot edge
    disappears only when one of its endpoints dies (Definitions 3.4/3.13
    rule 2), so the alive-edge set at any instant is exactly the set of
    logged edges whose endpoints are both still alive.

    Note: attaching claims the graph's birth/edge/death hooks, replacing
    whatever is installed.  The flooding drivers chain to an installed
    recorder and restore it when they finish, so attach the log before a
    flood starts, not while one is running. *)

type event =
  | Birth of { id : int; birth : int; targets : int array }
      (** node [id] joined at stamp [birth], requesting [targets] *)
  | Edge of { src : int; dst : int }  (** regeneration / repair edge *)
  | Death of { id : int }

type t

val create : unit -> t
val length : t -> int
(* lint: allow dead-export — test seam: test_event_log and test_flood read the
   recorded stream *)
val events : t -> event array
(** Copy of the recorded events, in order. *)

val attach : t -> Dyngraph.t -> unit
(** Start recording the graph's births, deaths and regeneration edges
    into [t]. *)

val detach : t -> Dyngraph.t -> unit
(** Flush any buffered birth and clear the three hooks. *)

val replay : ?upto:int -> t -> Snapshot.t
(** Rebuild the topology after the first [upto] events (default: all).
    Nodes are indexed as in any snapshot: oldest first. *)

val to_string : t -> string
(** Line-based format: [B id birth t1,t2,...], [E src dst], [D id]. *)

val of_string : string -> (t, string) result
(** Parse the {!to_string} format; reports the first offending line. *)
