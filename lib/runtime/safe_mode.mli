(** Safe-mode degradation: a divergence watchdog with a guaranteed
    fallback assignment.

    The LLA iteration is only guaranteed to converge for vanishing step
    sizes; with aggressive fixed steps, poisoned measurements or injected
    prices it can oscillate or blow up, and while it does the enacted
    latencies may oversubscribe resources (Eq. 3) or blow deadlines
    (Eq. 4). This watchdog monitors the trajectory and, when it looks
    divergent, clamps the system to a precomputed fallback assignment that
    satisfies both constraint families — trading optimality for safety,
    exactly the role the deadline-slicing baselines play in the paper's §7
    comparison. Once prices settle it re-enters optimization, with
    hysteresis so the system cannot flap between the two regimes.

    {2 Trip conditions (any one trips, checked in this order)}

    - a non-finite or [mu_cap]-exceeding resource price, or a non-finite
      total utility — unconditional, even during warmup;
    - sustained infeasibility: [violation_rounds] consecutive observations
      with some resource share sum above [B_r (1 + tol)] or some path
      above [C (1 + tol)], counted by a {!Lla_obs.Monitor.Streak};
    - utility oscillation: over a full [oscillation_window] of
      observations, relative spread above [oscillation_threshold] {e and}
      at least [min_reversals] direction reversals (a monotone transient
      has spread but no reversals), read from a
      {!Lla_obs.Monitor.Oscillation} window, the detector behind the
      monitor's [oscillation] alert.

    Entry empties the streak and the window, so after an exit both
    start over.

    The infeasibility and oscillation detectors are silent for the first
    [warmup_rounds] observations after {!create}: a cold start on a
    workload whose resources sit at congestion is legitimately infeasible
    for seconds while prices find the constraint surface, and the initial
    utility climb is not oscillation. After a safe-mode exit the
    [reentry_grace_rounds] silence applies, and it must cover a {e full}
    cold transient: safe-mode entry heals prices to [mu0] and restarts the
    controllers' dual state, so the re-entered optimization repeats the
    cold-start excursion through infeasibility. A shorter re-entry grace
    turns safe mode into a steady-state oscillator — a chaos campaign
    found a price poison whose post-heal restarts tripped at exit+600 ms
    forever under a 50-round grace. The non-finite / price-cap trip is
    armed from the first observation.

    {2 Exit condition (hysteresis)}

    At least [min_safe_time] ms in safe mode {e and} [settle_rounds]
    consecutive observations in which no resource price moved by more than
    [settle_threshold] relative. On exit the detectors fall silent for
    [reentry_grace_rounds] observations before re-arming.

    {2 Fallback selection (at {!create})}

    First feasible of the {!Lla_baseline.Slicing} heuristics (proportional,
    laxity, equal — deadline-safe by construction, resource feasibility
    checked); if none fits, an offline {!Lla.Solver} run; if even that
    fails to produce a feasible point, the proportional slice is kept as
    best effort and {!fallback_guaranteed} is [false]. *)

val mu_cap : float
(** 1e6: a resource price above this is treated as divergence. *)

type config = {
  violation_rounds : int;  (** consecutive violating observations to trip. *)
  oscillation_window : int;  (** utility samples in the oscillation detector. *)
  oscillation_threshold : float;  (** relative utility spread to trip. *)
  min_reversals : int;
      (** minimum direction reversals within the window to call the spread
          an oscillation rather than a transient. *)
  warmup_rounds : int;
      (** observations after {!create} during which the infeasibility and
          oscillation detectors are silent (default 500 = 5 s at the
          default 10 ms watchdog period). *)
  reentry_grace_rounds : int;
      (** detector-silence observations after a safe-mode exit (default
          500 = 5 s, equal to [warmup_rounds]): entry resets prices and
          the controllers' dual state, so the re-entered optimization
          repeats a full cold transient (see above). *)
  settle_rounds : int;
      (** consecutive settled observations (no price moving by more than
          2 % of itself) to exit. *)
  min_safe_time : float;  (** minimum dwell (ms) in safe mode. *)
}
(** An observation violates when Eq. 3/4 miss by more than
    {!Lla_obs.Monitor.infeasibility_tolerance}. *)

val default_config : config
(** The oscillation detector as in {!Lla_obs.Monitor} (32-sample window,
    0.2 relative spread, 8 reversals); 10 violating rounds to trip, 500
    rounds of warmup and of re-entry grace, 10 settled rounds and 1 s
    of dwell to exit. *)

type state = Optimizing | Safe of { since : float; reason : string }

type event =
  | Entered of { reason : string }
  | Exited

type t

val create : ?obs:Lla_obs.t -> ?config:config -> Lla.Problem.t -> t
(** Precomputes the fallback assignment for the problem (see above).
    [obs] makes every trip emit a {!Lla_obs.Trace.Watchdog_trip} record
    (stamped with the observation time) before the state flips to safe. *)

val observe : t -> now:float -> mu:float array -> lat:float array -> offsets:float array -> event option
(** Feed one watchdog observation of the running system's resource prices
    and enacted latencies. Returns [Some (Entered _)] when this
    observation trips safe mode, [Some Exited] when it completes the exit
    hysteresis, [None] otherwise. The caller is responsible for acting on
    the transition (clamping to {!fallback} / resuming optimization). *)

val observe_signals :
  t -> now:float -> mu:float array -> feasible:bool -> utility:float -> event option
(** {!observe} for callers that already hold the derived signals — the
    soak harness's kernel keeps active-set-aware cached share sums and
    path latencies, which a full-problem recompute over [lat] would
    disagree with under churn (retired blocks would be double counted).
    [feasible] stands in for the Eq. 3/4 check ([violating = not
    feasible], judged at the caller's tolerance) and [utility] for the
    utility probe; detector state, grace periods and hysteresis are
    shared with {!observe}. *)

val in_safe_mode : t -> bool

val fallback : t -> float array
(** A fresh copy of the fallback latency assignment, indexed like
    [Problem.subtasks]. *)

val fallback_source : t -> string
(** Which candidate won: a slicing baseline name, ["offline-solver"], or
    ["proportional-best-effort"]. *)

val fallback_guaranteed : t -> bool
(** [true] when the fallback verifiably satisfies Eq. 3 and Eq. 4. *)

val entries : t -> int
(** Times safe mode was entered. *)

val exits : t -> int
