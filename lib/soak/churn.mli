(** Seeded admit/retire stream with diurnal + flash-crowd arrival.

    The workload is split into a pinned base and a churning {e roster}
    (the last [roster_fraction] of the compiled task indices). The
    stream tracks a target active count

    [target(T) = roster * clamp01 (base_load
                   + 0.25 * sin (2 pi T / diurnal_period)
                   + 0.3 {when in a flash crowd})]

    capped by the degradation ladder's {!set_max_active}. Every [every]
    ticks, {!step} emits the admits/retires that move the actual count
    toward the target plus, with probability 0.5, one steady-state
    swap, so the
    arrival pattern layers diurnal load, recurring flash crowds and
    background task replacement — the churn the kernel's dirty sets
    were built for. All draws come from a private {!Lla_stdx.Rng}, so
    the op stream is a pure function of [(params, seed, call
    sequence)]; the property suite asserts determinism. *)

type params = {
  roster_fraction : float;  (** fraction of tasks that churn; rest pinned *)
  every : int;  (** ticks between churn steps; [<= 0] disables churn *)
  base_load : float;  (** mean fraction of the roster active *)
  diurnal_period : int;  (** ticks per simulated day; [<= 0] = flat *)
  flash_every : int;  (** ticks between flash-crowd onsets; [<= 0] = none *)
  flash_duration : int;
}

val default_params : params

type op = Admit of int | Retire of int  (** compiled task index *)

type t

val create : ?params:params -> seed:int -> n_tasks:int -> priority:(int -> float) -> unit -> t
(** [priority] ranks roster tasks for {!shed} (lowest shed first); it is
    sampled once per roster task at creation. *)

val initially_retired : t -> int list
(** The roster tasks outside the initial target — retire these from the
    kernel before the first tick so the stream starts at its target. *)

val roster_size : t -> int

val active_in_roster : t -> int

val set_max_active : t -> int -> unit
(** Degradation-ladder hook: cap the active roster (clamped to
    [0..roster_size]). Lowering the cap does not itself retire — call
    {!shed} for the immediate evictions; raising it lets {!step} admit
    back toward the diurnal target. *)

val shed : t -> count:int -> int list
(** Evict the [count] lowest-[priority] active roster tasks (fewer if
    the roster runs dry): marks them inactive and returns their indices
    for the caller to retire from the kernel. *)

val in_flash : t -> now:int -> bool

val step : t -> now:int -> op list
(** The churn ops for tick [now] ([[]] off-period). Retires precede the
    admits they make room for. The caller must apply every op — the
    stream's bookkeeping assumes it. *)

val admits : t -> int
(** Total admits emitted (excluding {!initially_retired}). *)

val retires : t -> int
