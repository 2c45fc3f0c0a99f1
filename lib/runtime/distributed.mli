(** Message-passing deployment of LLA (paper §4.1).

    One {e task controller} per task and one {e price agent} per resource
    run as actors on the discrete-event engine:

    - a price agent periodically recomputes its resource price from the
      most recently received subtask latencies (Eq. 8) and broadcasts
      [Price] messages to the controllers of tasks with subtasks on it
      (including a congestion bit for the adaptive step-size heuristic);
    - a task controller periodically recomputes its path prices (Eq. 9)
      and its subtasks' latencies from its — possibly stale — view of the
      resource prices (Eq. 7), then sends [Latency] messages to the
      agents.

    Every control message is routed through an {!Lla_transport.Transport},
    so the deployment can be exercised under jittered and heterogeneous
    delays, message loss, duplication, reordering, link partitions and
    actor crash/restart — not just the fixed one-way delay of
    [config.message_delay]. With the default zero-fault constant-delay
    transport the trajectory is identical to the pre-transport
    implementation, and with zero delay and equal periods it matches the
    synchronous {!Lla.Solver} engine up to message ordering (tested).

    Actors whose transport endpoint is down skip their periodic rounds;
    on restart they rebuild price state from the next received messages
    (an agent restarts from [mu0] and the compiled initial latency view, a
    controller from [mu0] views and zero path prices).

    {2 Resilience layer}

    Passing [?resilience] to {!create} activates up to three independent
    mechanisms (each can be switched off in the record):

    - {b failure detection} ({!Health}): every agent and controller
      endpoint heartbeats through the transport to a detector endpoint;
      crashed or partitioned actors are flagged within the configured
      timeout;
    - {b price-state checkpointing} ({!Checkpoint}): actors periodically
      snapshot their dual state, and a restarted actor performs a {e warm}
      restart from its last accepted snapshot instead of the cold
      [mu0] reset — reconverging in a fraction of the rounds (tested);
    - {b safe-mode degradation} ({!Safe_mode}): a watchdog observes prices
      and enacted latencies every 10 ms; on divergence it
      clamps the latency vector to a guaranteed-feasible fallback, heals
      poisoned prices, and freezes controller optimization (controllers
      keep re-announcing the clamped latencies; agents keep pricing, which
      lets prices settle) until the exit hysteresis re-enters
      optimization.

    When [?resilience] is omitted nothing is scheduled beyond the agent
    and controller loops and the trajectory is bit-for-bit the
    pre-resilience one.

    {2 Engines}

    The deployment runs on a pluggable {!Engine}: {!create} deploys
    onto one caller-owned [Lla_sim.Engine.t] (and optionally the
    caller's transport on it), while {!create_on} deploys onto any
    engine — on a domains engine the agents and controllers shard
    round-robin across the shard cores, each shard owning a private
    transport, obs handle, meter set, checkpoint store and failure
    detector. Cross-shard messages leave through the source
    shard's transport to an always-up {e shadow endpoint} standing in
    for the remote actor (so source-side faults, partitions and
    last-write-wins staleness apply unchanged), then cross the barrier
    via {!Engine.post} and check the real destination's liveness on its
    home shard. The safe-mode watchdog and chaos injections run as
    barrier operations with every shard at rest.

    {2 Monitoring}

    A streaming {!Lla_obs.Monitor} attaches to the deployment's trace
    ({!Lla_obs.Monitor.attach} on the [obs] handle's trace, after
    {!create}: no constructor emits a record). It consumes every record
    online, writes alert transitions back into the stream, and does not
    perturb the run. For a sharded deployment, feed {!merged_records}
    through {!Lla_obs.Monitor.sink} after the run. *)

open Lla_model

type config = {
  message_delay : float;
      (** one-way latency of the control channel, ms. Only used to build
          the default transport; ignored when a transport is supplied. *)
  step_policy : Lla.Step_size.policy;
  sweeps : int;
}
(** Every deployment allocates at each controller and recomputes the
    price at each resource agent every 10 ms, and starts (and cold
    restarts) prices at {!Lla.Solver.mu0}. *)

val default_config : config
(** 1 ms delay, adaptive steps from 1.0, 2 sweeps. *)

type resilience = {
  checkpoint_period : float option;
      (** ms between an actor's snapshots ([None] = no checkpointing;
          restarts are cold). Saves piggyback on the actor's own tick, so
          the effective period is rounded up to a multiple of it. *)
  health : bool;  (** the failure detector ({!Health}) on or off. *)
  safe_mode : Safe_mode.config option;
      (** [None] = no divergence watchdog; it observes every 10 ms. *)
}

val default_resilience : resilience
(** Checkpoint every 100 ms, the failure detector on, and the default
    safe-mode config. *)

type t

val create :
  ?obs:Lla_obs.t ->
  ?config:config ->
  ?resilience:resilience ->
  ?journal:Lla_durable.Journal.t ->
  ?transport:Lla_transport.Transport.t ->
  Lla_sim.Engine.t ->
  Workload.t ->
  t
(** When [transport] is omitted, a zero-fault transport with a constant
    [config.message_delay] is created on [engine].
    A supplied transport must run on the same engine
    (@raise Invalid_argument otherwise). [resilience] defaults to off.

    [journal] backs the checkpoint store with a write-ahead journal
    (only meaningful when [resilience.checkpoint_period] is set): every
    accepted snapshot is journaled and {!crash_restart} can recover a
    whole-node crash warm. Omitted (the default), nothing touches
    storage and trajectories are bit-for-bit the journal-free ones.

    [obs] opts the whole deployment into the observability layer: the
    runtime counters land in the handle's registry ([lla_runtime_*]),
    the handle is forwarded to the self-created transport, checkpoint
    store, health detector and safe-mode watchdog, and every price
    update, allocation solve, guard, safe-mode transition and
    checkpoint restore emits a typed {!Lla_obs.Trace} record stamped
    with the engine clock. Omitting it (the default) emits nothing and
    leaves the event schedule bit-for-bit the uninstrumented one — a
    supplied [transport] is never re-instrumented. *)

val create_on :
  ?obs:Lla_obs.t ->
  ?config:config ->
  ?resilience:resilience ->
  ?journal:Lla_durable.Journal.t ->
  ?transport_config:Lla_transport.Transport.config ->
  Engine.t ->
  Lla_model.Workload.t ->
  t
(** Deploy onto an arbitrary engine, one transport per shard (built from
    [transport_config], defaulting to the zero-fault constant-delay one;
    shard [s]'s transport RNG is seeded [seed + s]). Actors shard
    round-robin by index, so a single-shard engine reproduces {!create}
    with a self-built transport exactly.

    With [?obs]: the caller's handle becomes shard 0's and its span ids
    are re-keyed to stride by the shard count ({!Lla_obs.set_span_stride}
    — pass a fresh handle), shards [s > 0] get private handles with span
    base [s], and every shard's trace additionally feeds an internal
    memory sink so {!merged_records} can reassemble the deployment-wide
    stream. Judge merged streams with
    {!Lla_obs.Invariant.spans_well_formed_merged}, not the single-stream
    oracles.

    A domains engine's barriers are 1 ms apart: a cross-shard message
    whose link delay is at least 1 ms lands at exactly its stamped
    time, a shorter one at the next barrier (see {!Engine_domains}). *)

val start : t -> unit
(** Controllers announce initial latencies; agents and controllers begin
    their periodic ticks (plus the detector and watchdog when
    configured). *)

val stop : t -> unit
(** Cancel the periodic agent/controller ticks — and the resilience
    layer's detector and watchdog — so the engine can drain: after [stop],
    [Engine.run] terminates once in-flight messages have been delivered
    and {!Lla_sim.Engine.pending} returns to the in-flight count.
    Idempotent: no-op before {!start} or after a previous [stop]. *)

val run : t -> duration:float -> unit
(** Convenience: {!start} on first use, then advance the engine. *)

val transport : t -> Lla_transport.Transport.t
(** Shard 0's transport (the caller's, when one was passed to {!create}). On a sharded
    deployment see {!transports} and the [*_home] accessors. *)

val shard_count : t -> int

val transports : t -> Lla_transport.Transport.t array
(** One per shard, index-aligned with the engine's shard cores. *)

val agent_endpoint : t -> Ids.Resource_id.t -> Lla_transport.Transport.endpoint
(** The price agent's transport endpoint — crash it, partition it, or give
    its links a heterogeneous delay model. *)

val controller_endpoint : t -> Ids.Task_id.t -> Lla_transport.Transport.endpoint

val agent_home : t -> Ids.Resource_id.t -> Lla_transport.Transport.t * Lla_transport.Transport.endpoint
(** The transport that owns the agent's endpoint — the one outages and
    link faults for this actor must be scheduled on. *)

val controller_home :
  t -> Ids.Task_id.t -> Lla_transport.Transport.t * Lla_transport.Transport.endpoint

val schedule_injection : t -> at:float -> (unit -> unit) -> unit
(** Run a chaos write at simulated time [at] with every shard at rest: an
    ordinary scheduled event on a single-shard engine, a barrier op on a
    domains engine — the engine-generic way to drive {!poison_price},
    {!set_error_offset}, {!set_faults_all} and friends mid-run. *)

val set_faults_all : t -> Lla_transport.Transport.faults -> unit
(** Set the fault profile on every shard transport. *)

val set_extra_jitter_all : t -> float -> unit

val partition :
  t -> at:float -> duration:float -> agents:int list -> controllers:int list -> unit
(** Partition the listed actors (by index) from everything else — on
    every shard transport, with the listed actors' shadow endpoints on
    the matching side, so cross-shard traffic respects the cut. *)

val merged_records : t -> Lla_obs.Trace.record list
(** All shards' trace records merged by {!Lla_obs.Trace.merge}. Only
    populated for {!create_on} with [?obs]; [[]] otherwise ({!create}
    leaves sinks to the caller). *)

val latency : t -> Ids.Subtask_id.t -> float

val mu : t -> Ids.Resource_id.t -> float

val utility : t -> float

val messages_sent : t -> int
(** Control messages handed to the transport (send attempts, before any
    fault injection; retransmissions not included). *)

val price_rounds : t -> int
(** Total agent ticks so far (including safe-mode ticks). *)

val allocation_rounds : t -> int
(** Total optimizing controller ticks so far (safe-mode re-announcement
    ticks are not counted). *)

val merged_metrics : t -> Lla_obs.Metrics.t
(** Snapshot-merge of every shard's registry ({!Lla_obs.Metrics.merge}
    in shard order: counters sum, histograms add bucket-wise, gauges
    resolve last-writer by [(stamp, shard)]). Call
    with the shards at rest — between runs, or from
    {!schedule_injection}. On a single-shard deployment the merge is a
    copy of the one registry (the [obs] handle's when supplied). *)

(** {2 Resilience inspection} *)

val health : t -> Health.t option
(** The failure detector, when the resilience layer runs one. *)

val checkpoint_store : t -> Checkpoint.t option

val in_safe_mode : t -> bool
(** [false] when no watchdog is configured. *)

val safe_entries : t -> int

val safe_exits : t -> int

val fallback_source : t -> string option
(** Which fallback the watchdog would clamp to (see
    {!Safe_mode.fallback_source}). *)

val warm_restores : t -> int
(** Actor restarts recovered from a checkpoint. *)

val cold_restarts : t -> int
(** Actor restarts that fell back to the [mu0] reset (no or mismatched
    snapshot — or checkpointing disabled). *)

(** {2 Whole-node crash drill}

    {!crash_restart} models the process dying and restarting in place:
    the journal store's unsynced tail is lost (torn per its fault
    config), every shard's in-memory checkpoint slots are dropped, the
    journal (when present) is replayed through the checkpoint save path
    — twice, to assert replay idempotence — and every actor restarts,
    warm from recovered snapshots or cold from [mu0]. Transport
    endpoints stay up, unlike an {!Outage}: links survive, memory does
    not. Call it with the shards at rest (from {!schedule_injection} on
    a domains engine). *)

val crash_restart : t -> unit

type crash_stats = {
  crashes : int;  (** {!crash_restart} calls so far. *)
  replayed : int;  (** journal records accepted across all recoveries. *)
  refused : int;  (** journal records refused (non-finite, malformed). *)
  truncated_bytes : int;  (** torn-tail bytes cut from active segments. *)
  warm : int;  (** actors warm-restored after crashes. *)
  cold : int;  (** actors cold-reset after crashes. *)
  resurrected : int;
      (** actors carrying non-finite state right after a recovery — the
          refusal chain failed if this is ever non-zero. *)
  idempotent : bool;
      (** every double-replay restored identical accepted/refused
          counts ([true] when no crash happened yet). *)
}

val crash_stats : t -> crash_stats

val journal_enabled : t -> bool

(** {2 Chaos injection}

    Hooks for {!Lla_chaos} fault schedules. They overwrite live state the
    same way a corrupted message or a drifted plant model would; the
    regular iteration (and the finite-value guards) process the injected
    value on the next tick. *)

val poison_price : t -> Ids.Resource_id.t -> float -> unit
(** Overwrite a price agent's current multiplier ([nan]/[inf] allowed —
    that is the point). The next agent tick announces it. *)

val set_error_offset : t -> Ids.Subtask_id.t -> float -> unit
(** Set the model-error offset (ms) applied to the subtask's latency when
    computing its effective bandwidth share (the §6.3 correction path) —
    a spike here simulates plant/model mismatch. *)

val error_offset : t -> Ids.Subtask_id.t -> float
