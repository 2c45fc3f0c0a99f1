(** Recurring chaos windows on a rota.

    Every [every] ticks the rota opens a window of [duration] ticks and
    generates a fresh batch of {!Lla_chaos.Schedule.event}s for it — two
    price poisons (finite garbage, [nan], [inf], zero), three latency
    error spikes of 5–25 ms, and a fault window that loses each control
    tick with probability 0.1 — and, with probability 0.5, a capacity
    dip by a factor drawn from [U(0.7, 1)], restored at window close. {!step}
    expands the batch into per-tick kernel ops; generation is
    deterministic in [(params, seed, call sequence)] (the caller must
    call {!step} every tick). *)

type params = {
  every : int;  (** ticks between window onsets; [<= 0] disables chaos *)
  duration : int;  (** window length in ticks *)
}

val default_params : params

type op =
  | Poison of { resource : int; value : float }
  | Spike of { subtask : int; magnitude : float }
      (** disturb the subtask's latency iterate by [magnitude] (signed:
          spikes are applied at onset and released at window end) *)
  | Dip of { resource : int; factor : float }
      (** scale the resource's capacity by [factor] *)
  | Restore of { resource : int }  (** restore the construction capacity *)
  | Stall  (** drop this control tick entirely *)

type t

val create : ?params:params -> seed:int -> n_resources:int -> n_subtasks:int -> unit -> t

val step : t -> now:int -> op list
(** Must be called once per tick, in order. *)

val in_window : t -> now:int -> bool
(** [now] is within the current window (inclusive of its closing
    tick, when spike releases and capacity restores land). *)

val windows : t -> int

val last_window_end : t -> int
(** Closing tick of the most recent window ([-1] before the first). *)

val stalls : t -> int
