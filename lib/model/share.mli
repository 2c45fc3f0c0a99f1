(** Share functions: the mapping from a subtask's latency budget to the
    fraction of its resource it must receive (paper §3.1 and Eq. 10).

    Share functions must be strictly convex, continuously differentiable
    and decreasing in latency — increasing a latency budget yields
    diminishing returns in freed share (§4.2). *)

type spec =
  | Reciprocal
      (** The paper's model, Eq. 10: [share(lat) = (c + l) / lat] where [c]
          is the subtask's worst-case execution time and [l] the resource
          lag of proportional-share scheduling. *)
  | Power of { exponent : float }
      (** [share(lat) = ((c + l) / lat) ^ exponent] with [exponent >= 1].
          [Power {exponent = 1.}] coincides with [Reciprocal]; larger
          exponents model resources where halving latency costs more than
          double the share. *)

type t = private {
  name : string;
  eval : float -> float;  (** share as a function of latency (ms). *)
  deval : float -> float;  (** derivative of {!eval} w.r.t. latency. *)
  inverse : float -> float;  (** latency needed to obtain a given share. *)
  lat_min : float;
      (** smallest meaningful latency: the latency at which the subtask
          would need the whole resource ([eval lat_min = 1]). *)
}

val instantiate : spec -> exec:float -> lag:float -> t
(** [instantiate spec ~exec ~lag] builds the share function of a subtask
    with worst-case execution time [exec] on a resource with lag [lag]
    (both ms). @raise Invalid_argument when [exec <= 0], [lag < 0], or a
    power exponent is < 1. *)
