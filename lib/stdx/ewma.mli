(** Exponentially weighted moving average.

    The paper's online model error correction (§6.3) keeps an additive
    error per subtask and "do[es] exponential smoothing of the error
    value"; this is that smoother. *)

type t

val create : alpha:float -> t
(** [alpha] in [(0, 1]] is the weight of a new sample:
    [v' = alpha * x + (1 - alpha) * v]. *)

val add : t -> float -> unit

val value : t -> float
(** Current smoothed value; 0 when no sample has been added. *)
