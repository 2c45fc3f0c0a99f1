(** Discrete-event simulation engine.

    A single-threaded event loop over simulated time (ms). Events at equal
    times fire in scheduling order (deterministic tie-break by sequence
    number), so simulations are reproducible. *)

type t

type event_id

val create : unit -> t
(** An empty engine at time 0. *)

val now : t -> float

val schedule : t -> at:float -> (t -> unit) -> event_id
(** Schedule a callback at absolute time [at].
    @raise Invalid_argument when [at] is in the past or nan. *)

val schedule_after : t -> delay:float -> (t -> unit) -> event_id
(** Schedule after a non-negative [delay] from {!now}. *)

val cancel : t -> event_id -> unit
(** Cancelling an already-fired or cancelled event is a no-op. *)

val cancelled : t -> event_id -> bool

val step : t -> bool
(** Fire the earliest pending event; [false] when none remain. *)

val run_until : t -> float -> unit
(** Fire every live event with time <= the horizon, including those the
    fired events schedule, then advance {!now} to the horizon. No event
    past the horizon fires, even when cancelled events head the queue. *)

val run : t -> unit -> unit
(** Fire events until none remain. *)

val pending : t -> int
(** Number of live (non-cancelled) scheduled events. *)

val next_time : t -> float option
(** Time of the earliest live pending event, without firing it. The
    wall-clock and domains-parallel engines use this to pace and to
    bound their quantum loops. *)

val events_fired : t -> int
