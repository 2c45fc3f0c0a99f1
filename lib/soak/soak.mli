(** Long-horizon endurance runtime: churn at scale + chaos + ceilings.

    {!run} drives a generated scenario through millions of kernel ticks
    under the full production weather at once:

    - {b continuous churn} — a {!Churn} stream (diurnal + flash-crowd
      arrival over a task roster) admits and retires task blocks
      incrementally in the {!Lla_scale.Kernel}, finally exercising the
      dirty-set machinery on real cold zones;
    - {b periodic chaos} — a {!Rota} opens recurring
      {!Lla_chaos.Schedule} windows: price poisons, latency error
      spikes, capacity dips, lost control ticks;
    - {b rolling health} — windowed oracles judge the run while it
      happens: sustained Eq. 3/4 feasibility (transients shorter than
      [sustain_budget] are the price of churn; longer is a violation),
      reconvergence after every chaos window / flash crowd / safe-mode
      exit (utility must settle, per {!Lla_obs.Analyze.settling_time},
      within [reconverge_budget]), and a 25 % utility-drift bound
      against a periodically recomputed {!Lla_baseline.Centralized}
      optimum over the currently-active subset;
    - {b resource ceilings with graceful degradation} — a watchdog
      samples VmRSS, minor-words-per-tick and ticks-per-second against
      {!ceilings}; a breach walks one step down the degradation ladder
      (each rung sheds another 20 % of the roster, lowest-utility tasks
      first, and bars admissions
      — every remaining set is schedulable by the generator's
      feasibility-by-construction, so this is literally walking down
      the schedulability ladder) instead of dying, with the bottom rung
      clamping to the {!Lla_runtime.Safe_mode} fallback. Every step is
      recorded as a trace event ([Watchdog_trip] + a ["soak.degrade"]
      note); 50 healthy watchdog samples climb back up one rung.

    Determinism: the generator, churn and rota all draw from seeded
    private streams, so a [(config)] pair yields an identical report
    (modulo the wall-clock and memory fields). *)

type ceilings = {
  max_rss_kb : int;  (** VmRSS ceiling; [0] = unlimited *)
  max_words_per_tick : float;
      (** minor-allocation budget per tick, averaged over a watchdog
          window ([0.] = unlimited). Windows containing a baseline
          recompute are exempt — the drift oracle allocates by design. *)
  min_ticks_per_s : float;  (** throughput floor; [0.] = none *)
}

type config = {
  subtasks : int;  (** generated scenario size *)
  resources : int option;  (** default: {!Lla_scale.Generator.sized}'s *)
  seed : int;
  horizon : int;  (** ticks to drive *)
  churn : Churn.params;
  chaos : Rota.params;
  ceilings : ceilings;
  watchdog_every : int;  (** ticks between watchdog samples *)
  health_every : int;  (** ticks between health-oracle samples *)
  reconverge_budget : int;  (** ticks to re-settle after an episode *)
  sustain_budget : int;  (** ticks Eq. 3/4 may stay violated outside grace *)
  baseline_every : int;  (** ticks between drift checkpoints; [0] = never *)
  safe_mode : Lla_runtime.Safe_mode.config;
  warmstart_iterations : int;  (** converge before the horizon clock starts *)
  crash_every : int;
      (** ticks between whole-node crash drills ([0] = never): the
          journal store loses its unsynced tail, the kernel iterate
          reverts to construction state ({!Lla_scale.Kernel.crash_reset})
          and the node restarts warm from the last good journaled
          iterate — or cold without one. Drills are skipped while the
          kernel is frozen (the fallback dwell owns it). *)
  journal_every : int;
      (** ticks between journal appends of the live kernel iterate
          ([0] = never; a no-op without [?journal]). Journal windows are
          exempt from the words-per-tick ceiling like baseline
          recomputes — the JSONL encode allocates by design. *)
}

val shed_levels : int
(** Ladder rungs before the forced-safe bottom (3). *)

val default_config : config
(** 800 subtasks, 10^6 ticks, default churn/chaos, 2 GiB RSS ceiling. *)

val smoke_config : config
(** The CI gate's fixed-seed configuration: 600 subtasks, 60k ticks,
    three chaos windows, two flash crowds, two baseline checkpoints. *)

type report = {
  ticks : int;
  elapsed_s : float;
  ticks_per_s : float;
  tasks : int;
  subtasks : int;
  admits : int;
  retires : int;
  chaos_windows : int;
  stalls : int;
  guard_events : int;
  safe_entries : int;
  safe_exits : int;
  degradations : int;  (** ladder descents *)
  recoveries : int;  (** ladder ascents *)
  max_level : int;  (** deepest rung reached; [shed_levels + 1] = forced safe *)
  oracle_violations : string list;  (** first 20, newest last *)
  violation_count : int;
  peak_rss_kb : int;  (** VmHWM at exit (0 off-Linux) *)
  words_per_tick_early : float;  (** first clean watchdog window after warmup *)
  words_per_tick_late : float;  (** last clean window *)
  words_per_tick_max : float;  (** worst clean window *)
  reconverge_episodes : int;
  worst_settle_ticks : float;  (** slowest measured episode settling time *)
  baseline_checks : int;
  worst_drift : float;
  final_utility : float;
  final_feasible : bool;
  final_active_tasks : int;
  alerts_raised : int;  (** streaming-monitor raise transitions; 0 without [?monitor] *)
  alerts_cleared : int;
  crashes : int;  (** whole-node crash drills executed *)
  warm_recoveries : int;  (** drills restored from a replayed journal record *)
  cold_recoveries : int;  (** drills that restarted from construction state *)
  journal_replayed : int;  (** journal records accepted across all recoveries *)
  journal_refused : int;  (** journal records refused (torn, malformed, non-finite) *)
  worst_recovery_ticks : int;  (** slowest climb back to Eq. 3/4 feasibility *)
}

val run :
  ?obs:Lla_obs.t ->
  ?monitor:Lla_obs.Monitor.t ->
  ?journal:Lla_durable.Journal.t ->
  ?on_progress:(tick:int -> unit) ->
  config ->
  (report, string) result
(** [Error] on scenario/kernel construction failure. [on_progress] fires
    at every watchdog sample. With [?obs], soak-level transitions land
    in the trace ([Watchdog_trip], [Safe_mode_entered]/[Exited],
    ["soak.degrade"]/["soak.recover"]/["soak.chaos_window"] notes) —
    attach an {!Lla_obs.Rotate} sink for disk-bounded capture.

    With [?monitor], the harness feeds the streaming monitor at the
    health cadence (kernel utility + the Eq. 3/4 feasibility halves),
    refreshes the kernel gauges ({!Lla_scale.Kernel.publish_metrics})
    and hands it every {!Lla_baseline} checkpoint as the drift
    reference; alert transitions are emitted into the [?obs] trace. The
    rolling-health oracles themselves are built on the same
    {!Lla_obs.Monitor} primitives ([Streak] for the sustained Eq. 3/4
    budgets, [Probe] for reconvergence settling), so judged behaviour
    is identical with or without a monitor attached — feeding it only
    reads kernel state.

    With [?journal], the iterate is journaled at the [journal_every]
    cadence and each [crash_every] drill replays it through
    {!Lla_durable.Recovery} — warm when the last good record restores
    ({!Lla_scale.Kernel.restore_iterate} refuses non-finite components),
    cold otherwise. Recovery progress feeds
    {!Lla_obs.Monitor.observe_recovery} (the [recovery_stuck] alert)
    when a monitor is attached; a recovery still infeasible past
    [sustain_budget + reconverge_budget] ticks is an oracle violation.
    Omitting [?journal] (and both cadences) keeps the run byte-identical
    to earlier releases. *)

val encode_iterate : at:int -> Lla_scale.Kernel.t -> string
(** The journal record of the kernel's current iterate: one JSONL line
    of kind ["kernel"] carrying [at], the kernel's iteration and its
    [lat], [mu] and [lambda] arrays. {!run} journals one at every
    [journal_every] cadence point. *)

val decode_iterate : string -> (float array * float array * float array) option
(** [(lat, mu, lambda)] of a line {!encode_iterate} wrote; [None] for
    anything else (unparsable, another kind, a missing or non-numeric
    array). Finiteness is left to {!Lla_scale.Kernel.restore_iterate}. *)

val render : report -> string
(** Multi-line human-readable summary. *)
