(** Minimal CSV writing (experiment data export). *)

val write : path:string -> header:string list -> rows:string list list -> unit
(** Write a CSV file, creating or truncating [path]. *)

val series_rows : (float * float) list -> string list list
(** Two-column rows from an (x, y) point list, formatted with [%.17g] so
    values round-trip. *)
