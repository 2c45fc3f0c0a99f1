(** OCaml 5 domains-parallel engine.

    [n] shards, each owning a private {!Lla_sim.Engine.t} core, advance
    in lockstep quanta. At each barrier (on the main domain) the queued
    global operations run and cross-shard outboxes swap into inboxes;
    then every shard — shard 0 on the main domain, the rest on a
    lazily-spawned persistent pool of [n - 1] worker domains — merges
    its inbox onto its core and runs it to the quantum end in parallel.
    Everything reachable from a shard is single-writer (the owning
    domain during a phase, the main domain at barriers), with the
    barrier mutex as the publishing happens-before edge, so the message
    hot path takes no locks.

    {b Deterministic merge}: each destination sorts its merged inbox by
    [(at, channel, seq)] — delivery time, source→dest actor channel id,
    per-channel source-side sequence — before scheduling, totally
    ordering cross-shard deliveries independently of domain scheduling.
    Runs replay bit-for-bit.

    {b Timing}: barriers are a constant 1 ms quantum apart. A merged
    message whose cross-shard link delay is at least 1 ms is scheduled
    at exactly its stamped delivery time (it cannot be due before the
    barrier that merges it); a shorter delay defers it to the barrier,
    late by at most one quantum, still deterministically.

    Call {!shutdown} when done: worker domains are OS threads and the
    OCaml runtime caps live domains (~128), so test batteries that
    build many engines must release them. *)

type t

val create : domains:int -> t
(** [domains] shards/cores, clock at 0. @raise Invalid_argument on
    [domains < 1]. Worker domains spawn on the first {!run_until}, not
    here. *)

val shards : t -> int

val core : t -> int -> Lla_sim.Engine.t
(** Shard [s]'s private core. Outside a parallel phase (setup, between
    {!run_until} calls, inside barrier ops) the caller may schedule on
    any core; during a phase only the owning domain may touch it. *)

val now : t -> float
(** The barrier clock (all cores agree at every barrier). *)

val post :
  t -> from:int -> shard:int -> at:float -> channel:int -> (unit -> unit) -> unit
(** Cross the barrier: run [apply] on [shard]'s core at time [at] (or
    the merge barrier, whichever is later). [from] must be the shard
    whose execution context the caller is in — the outbox cell and the
    per-[channel] sequence counter written here are single-writer by
    that discipline. Same-shard posts schedule directly. *)

val at_barrier : t -> at:float -> (unit -> unit) -> unit
(** Queue a global operation: runs sequentially on the main domain at
    the first barrier at or after [at] (ties ordered by queueing
    order), with every shard at rest — the place for cross-shard reads
    and writes (watchdog, safe-mode entry, chaos injection). Call from
    barrier context or setup only, never from a parallel phase. *)

val run_until : t -> float -> unit
(** Advance quantum by quantum to the horizon, firing barrier ops and
    parallel phases as described above. Spawns the worker pool on
    first use. A worker exception aborts the run (re-raised on the
    caller) after the phase's barrier completes. *)

val drain : t -> unit
(** Keep running quanta until no core has pending events and no
    message or barrier op is queued — the post-[stop] flush. *)

val pending : t -> int
(** Live events across all cores + queued cross-shard messages +
    pending barrier ops. Meaningful at rest. *)

val events_fired : t -> int
(** Total events fired across all shard cores. Meaningful at rest. *)

val shutdown : t -> unit
(** Stop and join the worker domains. Idempotent; the engine cannot
    run afterwards. *)
