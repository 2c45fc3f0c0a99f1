(** Flat-array incremental LLA solve kernel.

    A compacted representation of the synchronous solver's iteration for
    planet-scale problems: per-subtask records are flattened into plain
    [float array]s plus three CSR adjacencies (subtask→paths,
    resource→paths, path→subtasks), and one tick —
    closed-form allocation, Eq. 8 resource prices, Eq. 9 path prices,
    adaptive step sizes — runs with {b zero allocation} (minor-words
    delta 0 when built without [?obs]; the property suite asserts this).

    The tick is {b incremental}: dirty sets track which subtasks,
    resources and paths can possibly change this iteration, and
    everything else is skipped with cached share sums and path
    latencies. The skip rule is exact, not approximate — an entity
    leaves its queue only when its next update is provably the
    identity: a resource when its price is at rest ([mu = 0]) or its
    last update moved neither [mu] nor its step, found it uncongested
    with its congestion flag unchanged and fired no guard; a path
    likewise with [lambda] (at rest: [lambda = 0] and its step at the
    initial value) and its step, without the congestion clause. Every
    write to one of an entity's inputs queues it again. At a
    market-clearing fixpoint every update is the identity, and a
    converged tick visits nothing. The kernel therefore produces
    {b bit-identical iterates} to {!Lla.Solver} on any problem both
    accept, and to a full sweep ({!requeue_all} before every tick); the
    suite checks element-wise agreement with the solver within 1e-9 and
    with a full sweep bit for bit on random scenarios. See DESIGN §11
    for the full equivalence argument.

    Internally subtasks are numbered {b resource-major}: by resource,
    in ascending problem index within each resource, so a resource's
    members are one contiguous range of every per-subtask array and the
    resource pass walks memory sequentially. The numbering is invisible
    at the API: every subtask index taken or array returned is in
    problem order ([problem.subtasks]); resource and path ids are the
    problem's own. The internal order changes no iterate bit (DESIGN
    §11).

    Scope: the kernel requires the closed-form allocation structure —
    every task utility linear (constant slope) and every share function
    reciprocal, which {!Generator} always emits and {!of_problem}
    verifies. Error-correction offsets and the solver's trace series are
    out of scope; stability bounds are snapshot at construction.

    Between ticks the kernel additionally supports {b churn} — whole
    task blocks retired and re-admitted incrementally
    ({!retire_task} / {!admit_task}), which is what finally gives the
    dirty sets real cold zones to skip — and the {b chaos / safe-mode
    hooks} the soak harness drives: price poisoning, capacity mutation
    and latency disturbance ({!poison_price}, {!set_capacity},
    {!disturb_latency}), plus a clamped-fallback safe-mode entry with
    the same price-healing rule as [Distributed.enter_safe_mode]
    ({!enter_fallback}, {!set_frozen}). *)

(** Where {!of_problem} starts the price iterate. *)
type price_init =
  | Cold  (** every resource at [mu0], every path at [lambda0]: the paper's start *)
  | Clearing
      (** the market-clearing prices: block-coordinate minimisation of the
          LLA dual, alternating two exact 1-D solves until no price moves
          by a bit (at most 64 rounds). Each resource price fills its
          resource to exactly [B_r] at the closed-form allocation (0 when
          the members fit at their lower latency bounds); each path price
          brings its path to exactly [C_p] (0 when slack). A resource
          that overflows even with every member at its upper bound keeps
          [mu0]; a path that misses [C_p] even with every member at its
          lower bound keeps [lambda0]. Latencies still start at the upper
          bound; the first tick allocates at the clearing prices. *)

type config = {
  step_policy : Lla.Step_size.policy;
  price_init : price_init;
      (** the construction-time start only: {!admit_task} and
          {!crash_reset} always use [mu0] / [lambda0] *)
  movement_tolerance : float;
      (** convergence: max relative latency change per tick, over a
          window of 50 ticks *)
}
(** The initial prices [mu0] and [lambda0], the convergence window and
    the Eq. 3/4 relative tolerance are {!Lla.Solver}'s. *)

val default_config : config
(** Mirrors [Lla.Solver.default_config]: adaptive steps (initial 1,
    doubling, cap 4), a [Cold] start, movement tolerance 0.01. *)

val scale_config : config
(** [default_config] with a {!Lla.Step_size.split} step policy
    (resource cap 1e9, path cap 64), a [Clearing] start and the movement
    tolerance widened to 1.0. At 10^4+ subtasks the equilibrium prices
    of hot resources sit orders of magnitude above the solver default's
    reach (they grow with the square of the per-resource fan-in). The
    clearing start computes them; from a cold start, geometric step
    escalation discovers them in logarithmically-many ticks where the
    capped default crawls — but a path's step doubles while any
    traversed resource is congested, so sharing the unbounded cap with
    Eq. 9 turns long price-discovery streaks into violent path-price
    oscillation. The moderate path cap still lets a deadline-tight
    path's price climb during those streaks. Movement is relative, so
    the 1.0 tolerance admits a tick that doubles or halves a latency; it
    rides out the limit cycle the capped steps leave behind after a
    cold start, so {!solve} stops at a feasible snapshot of it. From the
    clearing start every measured scenario stops at tick 51 under the
    default 0.01 as well. Use for generated scale scenarios; the default
    remains right for Table-1-sized problems and for element-wise
    comparison against {!Lla.Solver}. *)

type t

val of_problem : ?obs:Lla_obs.t -> ?config:config -> Lla.Problem.t -> (t, string) result
(** Compact a compiled problem. [Error] when some task's utility is not
    linear or some share function is not reciprocal (the closed form
    does not apply — use {!Lla.Solver}). Under a [Clearing] [price_init]
    construction also computes the start prices (~10 ms at 10^5
    subtasks, timed under no profiler phase of its own). With [?obs],
    each tick is timed under [kernel.step] > [allocate] /
    [resource_prices] / [path_prices] via preallocated thunks
    (profiling adds clock reads, not garbage; the clock itself may
    box), and the tick thunk also bumps the
    [lla_kernel_*_total] counters in the handle's registry — ticks,
    touched subtasks/resources/paths, guard events — as plain integer
    adds on preallocated instances, keeping the hot path
    allocation-free. Gauges ([lla_kernel_utility] / [_movement] /
    [_active_tasks]) box on write and are therefore only refreshed by
    {!publish_metrics}. *)

val create : ?obs:Lla_obs.t -> ?config:config -> Lla_model.Workload.t -> (t, string) result
(** [Problem.compile] + {!of_problem}. *)

val problem : t -> Lla.Problem.t

val n_subtasks : t -> int

val n_resources : t -> int

val n_paths : t -> int

val step : t -> unit
(** One LLA tick over the current dirty sets. It visits only the
    subtasks, resources and paths whose update can change something
    ({!last_touch} counts them), so a tick at a fixpoint of the three
    passes visits nothing. *)

val run : t -> iterations:int -> unit

val solve : t -> max_iterations:int -> int option
(** Step until the movement stays at or below [movement_tolerance] for
    {!Lla.Solver.convergence_window} consecutive ticks with a feasible
    allocation; [Some] final iteration count, [None] if the budget runs
    out. *)

val iteration : t -> int

val movement : t -> float
(** Max relative latency change of the last tick. *)

val utility : t -> float
(** Total utility of the {e active} tasks at the live iterate (retired
    blocks hold placeholder latencies and are excluded). *)

val feasible : t -> bool
(** Eq. 3/4 within {!Lla.Solver.feasibility_tolerance}, from the cached
    share sums and path latencies (exact after any full tick). Retired
    blocks contribute zero share and infinite critical times, so only
    active tasks constrain the answer. *)

val feasible_within : t -> tol:float -> bool
(** {!feasible} at an explicit relative tolerance. *)

val resources_feasible : t -> tol:float -> bool
(** The Eq. 3 half of {!feasible_within} alone: every cached share sum
    within [cap * (1 + tol)]. The soak harness judges the two halves on
    different grace schedules — an admission can transiently overshoot a
    path's deadline (Eq. 4) while its resource floor shares always fit. *)

val paths_feasible : t -> tol:float -> bool
(** The Eq. 4 half: every cached path latency within [C * (1 + tol)]. *)

val violations : t -> string list

val guard_events : t -> int
(** Non-finite iterate components neutralized, as in the solver. *)

val publish_metrics : t -> at:float -> unit
(** Refresh the [lla_kernel_utility] / [lla_kernel_movement] /
    [lla_kernel_active_tasks] gauges (stamped [at] for
    {!Lla_obs.Metrics.merge}'s last-writer rule). A no-op without
    [?obs]. Gauge writes box their float, so this belongs at a health /
    publish cadence, never inside the tick loop; {!utility} is
    O(active tasks). *)

val lat_array : t -> float array
(** A fresh copy of the latency iterate in problem order (indexed like
    [problem.subtasks]); writing into it does not change the kernel.
    O(subtasks) and allocating, so call it between ticks. *)

val mu_array : t -> float array
(** The live resource prices, indexed by problem resource; treat as
    read-only. *)

val lambda_array : t -> float array
(** The live path prices, indexed by problem path; treat as read-only. *)

type touch_stats = {
  subtasks_touched : int;
  resources_touched : int;
  paths_touched : int;
  subtasks_total : int;
  resources_total : int;
  paths_total : int;
}
(** How much of the problem one tick (or a whole run) actually visited —
    the sparsity the dirty sets buy. *)

val last_touch : t -> touch_stats

val cumulative_touch : t -> touch_stats

(** {1 Churn: incremental admit / retire}

    All mutators below run {e between} ticks (they are not part of the
    zero-allocation hot path; each touches only the task block or entity
    it names and pushes it onto the next tick's dirty queues). *)

val n_tasks : t -> int

val n_active_tasks : t -> int

val task_active : t -> int -> bool

val retire_task : t -> int -> unit
(** Remove task [k]'s block from the optimization: its shares vanish
    from Eq. 3, its deadlines from Eq. 4, its utility from {!utility}.
    The block's cells are rewritten so every subsequent pass update over
    them is provably the identity — no per-entity branch is added to the
    tick. Shared resources see the vanished share and re-price, rippling
    through the dirty sets exactly like any other local change.
    @raise Invalid_argument if [k] is out of range or already retired. *)

val admit_task : t -> int -> unit
(** Restore task [k]'s block with its construction-time coefficients and
    the cold initial iterate (latencies at the upper bound, path prices
    at [lambda0], whatever [price_init] says); it converges into the
    running system. An admit
    followed by a retire in the same inter-tick gap is bit-for-bit
    invisible (the property suite checks this).
    @raise Invalid_argument if [k] is out of range or already active. *)

(** {1 Chaos injection + safe-mode support} *)

val poison_price : t -> int -> float -> unit
(** Overwrite resource [r]'s price with an arbitrary value (NaN and
    infinities included) — parity with [Distributed.poison_price]. The
    pass-level finite-value guards heal the write on the next tick. *)

val capacity : t -> int -> float

val set_capacity : t -> int -> float -> unit
(** Change resource [r]'s capacity [B_r] online (finite, positive); the
    price update integrates against the new capacity from the next tick
    on. *)

val disturb_latency : t -> int -> float -> unit
(** Shift subtask [i]'s latency iterate by [delta], clamped to its
    bounds (no-op on retired blocks) — an exogenous disturbance the
    optimizer then heals. *)

val enter_fallback : t -> mu_cap:float -> lat:float array -> unit
(** Safe-mode entry with [Distributed.enter_safe_mode]'s discipline:
    clamp every active subtask's latency to [lat] (projected onto its
    bounds, non-finite entries to the upper bound), heal resource prices
    by {!Lla.Price_update.heal_resource_price} under the caller's
    watchdog cap [mu_cap] (back to [mu0] when non-finite or above
    [min mu_cap (1000 * max 1 mu0)]) and non-finite path prices to 0,
    reset both step-size families, and mark everything dirty so the
    caches are rebuilt from the clamped state. Typically followed by
    [set_frozen t true] for the dwell. *)

val set_frozen : t -> bool -> unit
(** While frozen, the allocation pass holds every latency (movement
    reads 0) and only the price passes run — prices decay toward rest on
    the clamped feasible allocation. Unfreezing resumes optimization;
    call {!requeue_all} alongside so the full problem re-enters the
    dirty sets. *)

val frozen : t -> bool

val requeue_all : t -> unit
(** Push every subtask, resource and path onto the next tick's queues
    with all caches marked stale — a full-problem tick. *)

(** {1 Crash recovery}

    The soak harness's whole-node crash drill: {!crash_reset} models the
    process image vanishing, {!restore_iterate} is the warm path fed
    from a replayed {!Lla_durable.Journal} record. *)

val crash_reset : t -> unit
(** Revert every live iterate component to the paper's cold start —
    active latencies to [lat_hi], resource prices to [mu0] with step
    sizes at initial, path prices to [lambda0], even under a [Clearing]
    [price_init] — unfreeze, and {!requeue_all}. Churn membership
    survives (it is control-plane state): retired blocks keep their
    identity placeholders rather than resurrecting. The cold half of a
    crash drill; convergence restarts from scratch, which is what a warm
    {!restore_iterate} is measured against. *)

val restore_iterate :
  t -> lat:float array -> mu:float array -> lambda:float array -> (unit, string) result
(** Warm-restore the iterate from a journaled snapshot, typically right
    after {!crash_reset}. Total in its inputs: [Error] on a length
    mismatch or {e any} non-finite component (the caller stays on the
    cold reset state — a torn or poisoned record must never enact),
    otherwise latencies are clamped to the live bounds, prices to
    non-negative, retired blocks are left untouched, and the whole
    problem is requeued. Step sizes stay at their reset values rather
    than trusting a stale snapshot's gamma. *)
