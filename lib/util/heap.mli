(** Binary min-heap keyed by float priorities.

    Used as the event queue of the asynchronous (continuous-time) flooding
    process of Definition 4.2, where churn events and message deliveries
    interleave on the real line.

    Equal priorities pop in insertion (FIFO) order: ties break on a
    monotone internal sequence number, so the order of simultaneous
    events is a documented property of the interface rather than an
    artifact of the heap's array layout.  The async flood schedules many
    deliveries at identical instants, and replays must not depend on how
    unrelated insertions happened to rebalance the heap. *)

type 'a t

val create : unit -> 'a t
(* lint: allow dead-export — test seam: test_util_structures checks it against
   a reference model *)
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> float -> 'a -> unit
(** [push h priority v] inserts [v] with [priority]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element; among equal
    priorities, the least recently pushed. *)

val peek : 'a t -> (float * 'a) option
(** Return the minimum-priority element without removing it. *)
