(** One-way message delay distributions for {!Transport} channels.

    A model is sampled once per delivery attempt from the transport's
    seeded {!Lla_stdx.Rng}, so runs are reproducible. [Constant] draws
    nothing from the generator, which keeps the zero-fault constant-delay
    transport bit-for-bit identical to a bare
    [Engine.schedule_after ~delay]. *)

type t =
  | Constant of float  (** every message takes exactly this long (ms). *)
  | Jittered of { base : float; jitter : float }
      (** uniform in [\[base·(1 − jitter), base·(1 + jitter))], clamped to
          non-negative delays; [jitter] is a fraction (0.5 = ±50%). *)

val constant : float -> t
(** @raise Invalid_argument on a negative delay. *)

val jittered : base:float -> jitter:float -> t
(** @raise Invalid_argument on a negative [base] or [jitter]. *)

val sample : t -> Lla_stdx.Rng.t -> float
(** Draw a delay; always non-negative. *)
