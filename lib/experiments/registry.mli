(** The experiment registry: one entry per Table 1 cell (E1-E12), per
    derived figure (F1-F11), per extension/ablation study (X1-X3, A1),
    and the numeric theory checks (T1).  See DESIGN.md for the full
    index. *)

type entry = {
  id : string;
  title : string;
  group : string;  (** "table1", "figures", "extensions" or "theory" *)
  run : seed:int -> scale:Scale.t -> Report.t;
}

val all : entry list
val find : string -> entry option
(** Case-insensitive lookup by id. *)

val table1 : entry list
val figures : entry list
val extensions : entry list
val theory : entry list

val run_cell : id:string -> seed:int -> scale:Scale.t -> Report.t
(** Run one cell by id (case-insensitive) with explicit parameter
    overrides — the sweep planner invokes every cell with its own seed
    and scale from the grid config rather than one baked-in CLI pair.
    Raises [Invalid_argument] naming the valid ids on an unknown id. *)

val summary : Report.t list -> Churnet_util.Table.t
(** Build the final roll-up table of check outcomes. *)

val reports_to_json :
  seed:int ->
  scale:Scale.t ->
  domains:int ->
  (Report.t * Telemetry.t) list ->
  Churnet_util.Json.t
(** The envelope the CLI writes for [--json]: schema tag
    ["churnet-report/1"], run configuration, and one
    {!Report.to_json} (with telemetry) per report. *)
