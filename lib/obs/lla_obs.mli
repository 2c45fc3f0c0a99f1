(** [Lla_obs] — observability for the LLA control plane.

    A zero-dependency metrics registry ({!Metrics}) plus a structured
    iteration-trace layer ({!Trace}) with replayable invariants
    ({!Invariant}) and a line-oriented JSON codec ({!Jsonl}). On top of
    the raw stream sits the analysis tier: causal span trees and
    control-reaction latency ({!Span}, {!Causal}), time-series
    extraction ({!Series}), convergence analytics ({!Analyze}) and a
    hierarchical wall-clock phase profiler ({!Profile}).

    The instrumented layers ({!Lla.Solver}, {!Lla_transport.Transport},
    {!Lla_runtime.Distributed}, ...) take an optional [?obs] handle of
    type {!t}; when it is omitted they skip every emission, and the
    trajectory (and discrete-event schedule) is bit-for-bit the
    uninstrumented one — observation must never perturb the observed
    system. Emission itself schedules nothing and draws no randomness
    (span ids come from a deterministic counter on the handle), so the
    enabled and disabled trajectories also coincide (both properties
    are held by golden-trace tests). *)

module Metrics = Metrics
module Trace = Trace
module Invariant = Invariant
module Jsonl = Jsonl
module Span = Span
module Profile = Profile
module Causal = Causal
module Series = Series
module Analyze = Analyze
module Rotate = Rotate
module Monitor = Monitor

type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  trace_io : bool;
  spans : bool;
  profile : Profile.t;
  mutable next_span : int;
  mutable span_stride : int;
}
(** One handle bundles the registry, the tracer and the profiler so
    call sites thread a single [?obs] argument. [trace_io] opts into
    per-message happy-path transport records; [spans] gates causal
    span emission; [next_span]/[span_stride] back {!alloc_span} (not
    for direct use). *)

val create :
  ?trace_io:bool ->
  ?spans:bool ->
  ?profile:Profile.t ->
  ?span_base:int ->
  ?span_stride:int ->
  unit ->
  t
(** Fresh registry + ring buffer (default capacity 4096 records).

    [trace_io] (default [false]) additionally records every
    [Transport_send] and [Transport_delivered] — the two happy-path,
    per-message event classes that dominate trace volume on a healthy
    deployment (~10x everything else combined). Message {e failures}
    (drops, cuts, down-endpoint losses, stale discards) are always
    traced; the aggregate send/delivery counts and the delay histogram
    are always in the metrics registry. Turn it on for message-level
    forensics dumps, leave it off for always-on tracing.

    [spans] (default [false]) gates the {!Trace.Span} causal records and
    the online [lla_control_latency_ms] histogram. Like [trace_io] it is
    opt-in because its record volume scales with message deliveries
    (several spans per control round), which plain always-on tracing
    deliberately avoids; [bench profile] budgets the enabled cost
    against the control plane's real-time budget instead of the bare
    discrete-event wall clock.

    [profile] defaults to {!Profile.disabled} — instrumented phases pay
    one branch until a caller passes an enabled profiler.

    [span_base] / [span_stride] (defaults [0] / [1]) put the handle's
    span ids on the arithmetic progression [base, base + stride, ...].
    The domains-parallel runtime gives each shard's handle the shard
    index as base and the shard count as stride, so span ids stay
    globally unique across per-shard traces without any cross-domain
    coordination — each handle stays single-writer. *)

val alloc_span : t -> int
(** Next span id: deterministic, strictly increasing, unique per
    handle. Used by the instrumented layers when they open a span. *)

val set_span_stride : t -> base:int -> stride:int -> unit
(** Re-key an unused handle onto the [base + k * stride] progression —
    the domains runtime applies this to the caller's handle when it
    becomes shard 0 of a pool. @raise Invalid_argument if a span was
    already allocated or [stride < 1]. *)

val emit : t -> at:float -> Trace.event -> unit
(** [Trace.emit] on the handle's tracer. *)

val emit_opt : t option -> at:float -> Trace.event -> unit
(** The hot-path form: a no-op on [None]. Call sites should avoid even
    constructing the event when the handle is [None]; this helper is for
    sites where the operands are already at hand. *)
