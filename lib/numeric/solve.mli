(** Scalar root finding.

    The latency-allocation step (paper §4.2) sets the derivative of the
    Lagrangian w.r.t. each subtask latency to zero; for non-linear
    utilities or non-reciprocal share functions that stationarity equation
    has no closed form and [Lla.Allocation] solves it with {!bisect}. *)

exception No_bracket of string
(** Raised when the supplied interval does not bracket a root. *)

val bisect :
  lo:float -> hi:float -> (float -> float) -> float
(** [bisect ~lo ~hi f] finds [x] in [\[lo, hi\]] with [f x = 0] (to within
    1e-10), assuming
    [f lo] and [f hi] have opposite signs (or one of them is zero).
    @raise No_bracket when the signs agree. *)

val derivative : (float -> float) -> float -> float
(** Central finite difference with step [1e-6 * max 1 |x|], for
    validation and for utilities supplied without an analytic
    derivative. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] requires [lo <= hi]. *)
