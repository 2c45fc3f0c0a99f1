(** Append-only (x, y) series used to record experiment trajectories
    (utility vs iteration, share vs time, ...). *)

type t

val create : unit -> t

val add : t -> x:float -> y:float -> unit

val length : t -> int

val last : t -> (float * float) option

val iter : t -> (float -> float -> unit) -> unit
(** [iter t f] calls [f x y] on every sample, oldest first. *)

val to_arrays : t -> float array * float array

val ys : t -> float array

val downsample : t -> max_points:int -> (float * float) list
(** Evenly strided subset of at most [max_points] points, always keeping
    the first and last sample. Used when printing long trajectories. *)

val y_stats_from : t -> from:int -> Stats.summary
(** Statistics of the y values from index [from] (inclusive) to the end —
    e.g. oscillation amplitude over the tail of a trajectory. *)

val converged_at : t -> tolerance:float -> window:int -> int option
(** [converged_at s ~tolerance ~window] is the index of the earliest sample
    such that over the next [window] samples the relative spread of y,
    [(max - min) / max(1, |mean|)], stays below [tolerance] through the end
    of the series. [None] if the series never settles. *)
