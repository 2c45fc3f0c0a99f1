(** ASCII table rendering for experiment reports. *)

type align = Left | Right

type t

val create : columns:(string * align) list -> t

val add_row : t -> string list -> unit
(** @raise Invalid_argument when the row width differs from the header. *)

val render : t -> string

val print : t -> unit

val cell_f : ?decimals:int -> float -> string
(** Format a float cell with fixed [decimals] (default 2). *)

val cell_i : int -> string
