(** The deterministic single-threaded simulation engine.

    An identity wrapper over one {!Lla_sim.Engine.t} core: scheduling
    through this engine is the same queue, the same [(time, seq)] event
    order and the same clock as scheduling on the core directly, so
    trajectories are bit-for-bit the pre-interface ones. {!of_core}
    wraps an existing core — the compatibility path for callers that
    already own a [Lla_sim.Engine.t]. *)

type t

val create : ?start_time:float -> unit -> t

val of_core : Lla_sim.Engine.t -> t
(** Wrap an existing core; the wrapper aliases it (no copy). *)

val core : t -> Lla_sim.Engine.t

val now : t -> float

val run_until : t -> float -> unit

val drain : ?max_events:int -> t -> unit
(** Fire remaining events until none remain. *)

val pending : t -> int

val events_fired : t -> int
