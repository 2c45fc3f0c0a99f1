(** Invariant and liveness oracles judged over a completed schedule run.

    The safety oracles reuse {!Lla_obs.Invariant} replay checks over the
    collected trace; the liveness oracles judge the {e outcome} — state
    the runner extracted after the engine drained ({!outcome}). Every
    oracle is pure, so a verdict is reproducible from a saved run.

    Calibration note: the distributed iteration is a dual method — even a
    fault-free trajectory transiently overshoots Eq. 3/4 by ~10% on
    single ticks (the invariant tests hold the healthy runtime to a 10%
    band), and a recovering run spikes higher for isolated rounds. The
    trace oracle therefore fails on {e sustained} violation (a fraction
    of judged records), not on any single sample, and lockout means
    {e dwelling} in safe mode, not touching it.

    Semantics (each oracle names the property it defends):

    - [trace-monotone]: the trace stream is well-formed
      ({!Lla_obs.Invariant.monotone}) — a meta-oracle; its failure voids
      the others.
    - [constraints-after-heal]: among trace records from 6 s after
      [last_fault_end], the Eq. 3/4 violations (within [tolerance], via
      {!Lla_obs.Invariant.check_constraints}) must stay below 10
      {e and} [sustained_fraction] of the judged
      price records — transient overshoot is the method, persistent
      infeasibility is a bug. A poison value leaking into steady state
      violates on every round and is caught by the same rule.
    - [safe-mode-causality]: every safe-mode entry is preceded by a
      watchdog trip ({!Lla_obs.Invariant.safe_entries_preceded_by_trip}).
    - [reconvergence]: the final utility is within [regret_bound]
      (relative) of the offline optimum from {!Lla_baseline.Centralized}
      — the paper's convergence claim must survive the faults once they
      heal. Skipped while the run ends inside a safe-mode dwell (the
      fallback trades optimality for feasibility; [no-lockout] bounds
      the dwell).
    - [no-lockout]: a run may end {e inside} a safe-mode cycle, but not
      after dwelling there for the last 10 s — that is permanent
      degradation.
    - [warm-restore-consistency]: every actor restart produced exactly one
      restore, warm or cold ([warm + cold = outages + crash_restores] —
      a node crash restarts every actor without an endpoint outage);
      with checkpointing disabled every restore is cold.
    - [recovery]: crash-recovery hygiene, judged when the runner filled
      {!outcome.recovery} (runs exercising {!Schedule.Node_crash}): no
      actor resurrects non-finite state after a recovery, journal
      double-replay restores identical accepted/refused counts
      (idempotence), warm crash recoveries require a journal and at
      least one replayed record. Vacuously passes otherwise.
    - [final-feasibility]: the enacted latency assignment at the end of
      the run satisfies Eq. 3/4 within 0.30 — whatever mode the system
      landed in, the {e plant} must be left near-feasible. That slack is
      wider than [tolerance] because the run ends at an arbitrary phase
      of the iteration's oscillation envelope. *)

type config = {
  tolerance : float;  (** per-record Eq. 3/4 slack, default 0.12. *)
  sustained_fraction : float;
      (** violating fraction of judged price records that counts as
          sustained, default 0.02. *)
  regret_bound : float;  (** relative utility gap to the optimum, default 0.08. *)
}

val default_config : config
(** The thresholds {!evaluate} judges by. *)

type recovery_outcome = {
  crashes : int;  (** whole-node crash drills executed. *)
  replayed : int;  (** journal records accepted across recoveries. *)
  refused : int;  (** journal records refused (non-finite, malformed). *)
  crash_warm : int;  (** actors warm-restored after node crashes. *)
  crash_cold : int;  (** actors cold-reset after node crashes. *)
  resurrected : int;  (** actors left with non-finite state post-recovery. *)
  idempotent : bool;  (** double-replay stability (see {!Lla_runtime.Distributed.crash_stats}). *)
  journal_enabled : bool;
}

type outcome = {
  records : Lla_obs.Trace.record list;  (** complete trace (memory sink). *)
  last_fault_end : float;
  end_time : float;  (** engine clock when the run drained. *)
  final_utility : float;
  optimum_utility : float;  (** offline optimum for the same workload. *)
  in_safe_mode : bool;  (** at the end of the run. *)
  safe_entries : int;
  warm_restores : int;
  cold_restarts : int;
  outages : int;  (** endpoint crashes over the whole run. *)
  crash_restores : int;
      (** actor restores attributable to whole-node crash drills
          (crash_warm + crash_cold); 0 when the schedule has none. *)
  checkpoints_enabled : bool;
  max_share_violation : float;
      (** worst relative Eq. 3 excess of the final assignment (0 = feasible). *)
  max_path_violation : float;  (** worst relative Eq. 4 excess, same convention. *)
  recovery : recovery_outcome option;
      (** crash-drill accounting; [None] when the runner does not
          exercise node crashes (the [recovery] oracle then passes
          vacuously). *)
}

type verdict = { oracle : string; violations : string list }
(** Empty [violations] = pass. *)

val evaluate : ?merged:bool -> outcome -> verdict list
(** All oracles, in a fixed order. [merged] (default [false]) calibrates
    the order-sensitive [trace-monotone] oracle for records assembled by
    {!Lla_obs.Trace.merge} from several per-shard streams: per-shard
    sequence counters interleave in a healthy merged stream, so only
    global time-sortedness is judged there. All other oracles are
    order-insensitive and run unchanged. *)

val failures : verdict list -> verdict list

val ok : verdict list -> bool

val render : verdict list -> string
(** One line per oracle: [ok <name>] or [FAIL <name>: <first violation>
    (+n more)]. Deterministic. *)
