(** Minimal CSV writing (experiment data export). *)

val write : path:string -> header:string list -> rows:string list list -> unit
(** Write a CSV file, creating or truncating [path]. *)
