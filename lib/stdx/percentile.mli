(** Percentile estimation, exact from stored samples: over an array, or
    over a window of the most recent samples.

    The paper computes utilities from configurable latency percentiles
    (§2.1) and feeds "high percentile samples (greater than 90th
    percentile)" into the model error corrector (§6.3); both consumers use
    this module. *)

val exact : float array -> p:float -> float
(** [exact samples ~p] is the [p]-th percentile ([0 <= p <= 100]) using
    linear interpolation between closest ranks. The array is not modified.
    @raise Invalid_argument on an empty array or [p] outside [\[0, 100\]]. *)

(** Reservoir of recent samples with exact percentile queries. *)
module Window : sig
  type t

  val create : capacity:int -> t
  (** Keeps the most recent [capacity] samples (circular buffer). The
      buffer starts at 16 samples and doubles up to [capacity] as
      samples arrive, so a window that sees few samples stays small. *)

  val add : t -> float -> unit

  val count : t -> int
  (** Number of samples currently held (at most [capacity]). *)

  val percentile : t -> p:float -> float option
  (** [None] when empty. *)

  val clear : t -> unit
end
