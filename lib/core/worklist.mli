(** The repair models' list-free worklist: a reused buffer of node ids,
    and the one death rule they share.  Every repair model keeps its
    nodes with empty out-slots in a set-like [(int, unit) Hashtbl.t]
    whose iteration order decides which node draws first, so both
    operations reproduce the visit and insertion orders of the list code
    they replace exactly. *)

type t

val create : unit -> t

val load : t -> (int, unit) Hashtbl.t -> unit
(** Replace the contents with the table's keys, in [Hashtbl.iter] order. *)

val iter : t -> (int -> unit) -> unit
(** Visit the loaded keys last to first — the order of
    [List.iter f (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])].  [f]
    may mutate the source table but must not reload this worklist. *)

val kill_and_mark :
  t -> Churnet_graph.Dyngraph.t -> (int, unit) Hashtbl.t -> Churnet_graph.Dyngraph.node_id -> unit
(** [kill_and_mark t g tbl victim] kills [victim] ({!Churnet_graph.Dyngraph.kill}),
    drops it from [tbl], and adds each of its surviving in-neighbors —
    each just lost a slot — to [tbl] in ascending id order.  Reloads [t]. *)
