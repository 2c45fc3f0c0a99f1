(** Streaming statistics (Welford's online algorithm). *)

type t

val create : unit -> t

val add : t -> float -> unit

val mean : t -> float
(** 0 when empty. *)

val stddev : t -> float

val max : t -> float
(** [neg_infinity] when empty. *)

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  sum : float;
}

val summary : t -> summary

val pp_summary : Format.formatter -> summary -> unit
