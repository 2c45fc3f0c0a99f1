(** Shared report formatting for the experiment harnesses. *)

val header : string -> string
(** Banner line for an experiment section. *)

val paper_vs_measured :
  rows:(string * float * float) list ->
  unit ->
  string
(** Render a (label, paper value, measured value) table with a relative
    deviation column. *)

val series_block : title:string -> (string * Lla_stdx.Series.t) list -> string
(** ASCII plot of the series plus a numeric appendix downsampled to 60
    points. *)
