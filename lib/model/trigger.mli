(** Triggering events (§2): signals whose arrivals dispatch task releases.
    Arrival patterns are part of the task specification and are used both
    by the optimizer (rate-stability bounds) and by the runtime's job
    dispatcher. *)

type t =
  | Periodic of { period : float; phase : float }
      (** One release every [period] ms, first at [phase] ms. *)
  | Poisson of { rate : float }  (** Memoryless arrivals, [rate] per ms. *)
  | Bursty of { on_duration : float; off_duration : float; period_in_burst : float }
      (** On/off arrivals: during an on-phase of [on_duration] ms releases
          arrive every [period_in_burst] ms, then the source stays silent
          for [off_duration] ms. Captures the paper's "bursty arrivals"
          generalization of the task model. *)
  | Phased of { before : t; switch_at : float; after : t }
      (** Workload variation: [before] drives releases until the absolute
          time [switch_at], then [after] takes over. The optimizer is not
          told — it must adapt from runtime rate measurements (§2:
          "arrival patterns ... measured at runtime"). *)

val periodic : ?phase:float -> period:float -> unit -> t

val poisson : rate_per_second:float -> t

val bursty : on_duration:float -> off_duration:float -> period_in_burst:float -> t

val phased : before:t -> switch_at:float -> after:t -> t

val mean_rate : t -> float
(** Long-run mean arrivals per ms. For {!Phased} triggers this is the
    [after] phase's rate (the long-run regime). *)

val next_arrival : t -> Lla_stdx.Rng.t -> after:float -> float
(** Next release time strictly after [after] (ms). Deterministic triggers
    ignore the generator. *)

