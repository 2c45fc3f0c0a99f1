(** Streaming telemetry: online versions of the {!Analyze} detectors
    feeding an alert bus.

    {!Analyze} computes settling time, oscillation and overload episodes
    from a complete trace, after the run. [Monitor] maintains the same
    signals incrementally while the system runs — O(1) state updates per
    observation (the settling readout without a target replays a
    retained compact series on demand) — and
    drives a small set of named alerts with severity levels and
    asymmetric enter/exit hysteresis, the same shape as
    [Lla_runtime.Safe_mode]: a condition must hold for
    [sustain_budget] time units to raise, and the opposite condition for
    [clear_after] units to clear, so a flapping signal cannot flap the
    alert. Every transition is emitted as a {!Trace.Alert_raised} /
    {!Trace.Alert_cleared} event on the attached trace, so a replayed
    trace reproduces the exact alert timeline.

    The online detectors agree with the offline ones sample-for-sample:
    {!settling_tick} equals [Analyze.settling_time] on the same series
    (in O(1) per sample when the monitor has a [target]) and
    {!overload_episodes} equals [Analyze.episodes] on the same load
    series (property tests in [test/test_monitor.ml] hold both). The soak harness's rolling-health oracles are
    expressed over the same primitives ({!Streak}, {!Probe}), and
    [Lla_runtime.Safe_mode] trips on a {!Streak} and an {!Oscillation},
    so soak, watchdog and live monitoring share one detector
    implementation.

    A monitor can be fed two ways, freely mixed:
    - {!attach} it to a {!Trace.t}: the sink decodes [Iteration] /
      [Allocation_solved] / [Price_updated] / [Path_price_updated]
      events into observations (and ignores alert events, so replaying
      an annotated trace does not echo);
    - call {!observe_utility} / {!observe_load} / {!observe_feasible}
      directly from a host that has no trace stream (the scale kernel,
      the soak harness).

    Feeding a monitor never mutates the observed system: a run with a
    monitor attached keeps the trajectory of the same run without one,
    bit for bit. *)

(** {1 Shared detector primitives} *)

(** Sustained-condition budget counter with the soak harness's exact
    semantics: each bad observation adds [step] to the streak, a good
    one zeroes it, and exceeding [budget] reports the streak length and
    resets (so the violation can re-fire). *)
module Streak : sig
  type t

  val create : budget:int -> t

  val observe : t -> ok:bool -> step:int -> int option
  (** [Some streak] exactly when the accumulated streak exceeds the
      budget (the streak then resets). *)

  val reset : t -> unit
  (** Zero the streak (grace windows). *)

  val current : t -> int
end

(** Windowed oscillation over the last [window] finite samples: the
    window oscillates when it is full, its relative spread
    [(max - min) / max 1 |mean|] exceeds [threshold], and its trajectory
    reverses direction at least [min_reversals] times (a monotone
    transient has spread but no reversals). The monitor's
    [oscillation] alert and [Lla_runtime.Safe_mode]'s oscillation trip
    both read one. *)
module Oscillation : sig
  type t

  val create : window:int -> threshold:float -> min_reversals:int -> t
  (** @raise Invalid_argument when [window < 4]. *)

  val push : t -> float -> unit
  (** Add a sample, overwriting the oldest once full; non-finite samples
      are skipped. *)

  val reset : t -> unit
  (** Empty the window: it cannot oscillate again until it has refilled. *)

  val oscillating : t -> bool
end

(** A reconvergence probe: collect the trajectory after a disturbance,
    then judge settling against the latest sample as target (the target
    is only known at judgement time, so the probe retains its samples
    and replays them through the online settling detector). *)
module Probe : sig
  type t

  val start : unit -> t

  val sample : t -> at:float -> value:float -> unit

  val settling : t -> float option
  (** Absolute settling time of the collected series against its final
      value, within 2 % of it; [None] when it never settles (or no
      samples). Equals [Analyze.settling_time ~tolerance:0.02
      ~target:final] on the same series. *)
end

val drift : baseline:float -> float -> float
(** [|v - baseline| / max 1 |baseline|] — the soak baseline-drift
    normalization. *)

(** {1 The monitor} *)

type severity = Info | Warning | Critical

val infeasibility_tolerance : float
(** 0.05: relative Eq. 3/4 slack before a sample counts as infeasible. *)

val oscillation_window : int
(** 32: the utility ring length of the oscillation detector. *)

val oscillation_threshold : float
(** 0.2: relative spread of the window that reads as oscillation. *)

val min_reversals : int
(** 8: direction reversals the window must also contain — a monotone
    transient has spread but no reversals. *)

(** The monitor settles within {!Analyze.default_tolerance} of its
    target, opens an overload episode above load factor 1 (as
    {!Analyze.episodes}), raises an alert once its condition has held
    for 200 time units and clears it after 500 units of health (the
    asymmetric exit hysteresis), and reads a drift above 0.25 of the
    baseline as [utility_drift]. *)

type t

val create : ?target:float -> ?tasks:int -> unit -> t
(** [target]: the known optimum, arming the O(1) online settling
    detector (without it {!settling_tick} replays the retained series
    against its final value, as offline [analyze] does). The drift
    alert has no baseline until {!set_baseline}. [tasks]: expected task count, letting
    the sink rebuild the global objective from per-task
    [Allocation_solved] events exactly when every task has reported —
    required for utility tracking on distributed traces, which emit no
    global [Iteration] events. *)

val attach : t -> Trace.t -> unit
(** Subscribe the monitor to a trace: its sink observes every emission,
    and alert transitions are emitted back into the same trace (stored
    ring-first, so the annotated stream stays in sequence order). Attach
    the monitor {e after} file sinks so dump files list each transition
    after the record that triggered it. *)

val sink : t -> Trace.record -> unit
(** The record observer behind {!attach}, usable directly to replay a
    collected stream. Ignores [Alert_raised]/[Alert_cleared]. *)

val on_alert : t -> (at:float -> Trace.event -> unit) -> unit
(** Route alert transitions somewhere other than an attached trace
    (e.g. the soak harness's [emit_opt]). Replaces the previous route. *)

(** {2 Direct observation (trace-less hosts)} *)

val observe_utility : t -> at:float -> float -> unit

val observe_load : t -> at:float -> resource:int -> load:float -> unit
(** [load] is share_sum / capacity, as [Series.congestion] computes it
    (infinite when capacity is 0). Drives the per-resource overload
    episodes and the Eq. 3 sustained-infeasibility alert. *)

val observe_feasible : t -> at:float -> resources_ok:bool -> paths_ok:bool -> unit
(** Aggregate feasibility feed for hosts that already know the verdict
    (the scale kernel's O(1) dirty-set checks). *)

val observe_recovery : t -> at:float -> ok:bool -> value:float -> unit
(** Crash-recovery progress feed: [ok = false] while a whole-node
    recovery is still infeasible past its grace window, [value] the
    ticks spent recovering. Drives the [recovery_stuck] alert with the
    [sustain_budget] enter hysteresis — a recovery that converges never
    raises it; a node that cannot climb back to feasibility does. *)

val set_baseline : t -> at:float -> float -> unit
(** Install/refresh the drift alert's reference checkpoint. *)

(** {2 Readouts (agree with {!Analyze} on the same stream)} *)

val settling_tick : t -> float option

val overload_episodes : t -> resource:int -> (float * float) list

val resources_seen : t -> int list
(** Resource ids with at least one load observation, first-seen order. *)

val utility_samples : t -> int

val last_utility : t -> float option

(** {2 Alert bus} *)

type alert_view = {
  name : string;
  severity : severity;
  active : bool;
  since : float;  (** raise time of the current episode (nan if never). *)
  last_value : float;
  raised : int;
  cleared : int;
}

val alerts : t -> alert_view list
(** All alerts, fixed order: [eq3_sustained], [eq4_sustained],
    [oscillation], [utility_drift], [diverged], [recovery_stuck]. *)

val alerts_raised : t -> int
(** Total raise transitions across all alerts. *)

val alerts_cleared : t -> int

val render : t -> string
(** One line per alert plus a detector summary — the `lla_cli top`
    alert pane. *)
