(** Terminal plots for the "figures" the benchmark harness regenerates.
    Since the container has no plotting stack, figures are rendered as
    ASCII scatter/line charts plus the underlying series as a table. *)

type series = { label : string; points : (float * float) array }

val plot :
  ?width:int ->
  ?height:int ->
  ?logx:bool ->
  ?logy:bool ->
  title:string ->
  xlabel:string ->
  ylabel:string ->
  series list ->
  string
(** Render one chart containing all series (each series gets its own glyph
    from [*+o#@x%&]).  Axis ranges are computed from the data; log scales
    drop non-positive values. *)
