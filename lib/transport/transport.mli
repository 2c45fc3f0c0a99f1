(** Fault-injecting message transport over the discrete-event engine.

    The distributed LLA deployment (and any other actor system built on
    {!Lla_sim.Engine}) sends its control messages through a [Transport.t]
    instead of scheduling deliveries directly. The transport owns:

    - {b delay models}: one {!Delay_model.t} for every link, sampled
      from a seeded {!Lla_stdx.Rng} so runs are deterministic and
      reproducible;
    - {b fault injection}: probabilistic message drop, duplication and
      reordering (extra random delay on a fraction of messages), plus
      scheduled link {!partition}s with heal times;
    - {b endpoint lifecycle}: endpoints crash and restart on an outage
      schedule ({!schedule_outage}); messages to or from a down endpoint are
      lost, and restart hooks let actors rebuild their state from the next
      received messages;
    - {b delivery policies}: optional retry-with-timeout/backoff on lost
      attempts, and last-write-wins sequence numbering per message key so
      stale reordered updates are discarded instead of applied;
    - {b per-channel counters} (sent / delivered / dropped / cut /
      lost-to-down-endpoints / duplicated / retried / stale) backed by an
      {!Lla_obs.Metrics} registry (labelled [src]/[dst], disambiguated by
      endpoint id), a [lla_transport_delay_ms] histogram, and a delay
      percentile window ({!delay_percentile}). When the
      transport is created with [?obs] it shares that handle's registry
      and additionally emits {!Lla_obs.Trace.Transport_dropped} records
      (always) plus per-message [Transport_send] / [Transport_delivered]
      records (only when the handle was created with [~trace_io:true] —
      they dominate trace volume on a healthy deployment), all stamped
      with the engine clock.

    With the default zero-fault configuration and a [Constant] delay the
    transport schedules exactly one engine event per [send], drawing
    nothing from the RNG — a trajectory routed through it is bit-for-bit
    identical to one using bare [Engine.schedule_after]. *)

(** {1 Configuration} *)

type faults = {
  drop : float;  (** probability a delivery attempt is lost. *)
  duplicate : float;  (** probability a message is delivered twice. *)
  reorder : float;
      (** probability a message is held back by an extra random delay,
          letting later messages overtake it. *)
  reorder_spread : float;  (** maximum extra delay (ms) for held-back messages. *)
}

val no_faults : faults

type retry = {
  timeout : float;  (** ms before the first retransmission. *)
  backoff : float;  (** multiplier on the timeout per attempt (>= 1). *)
  max_attempts : int;  (** total attempts, including the first. *)
  jitter : float;
      (** relative jitter on each retransmit wait:
          [wait = timeout * backoff^n * (1 ± jitter)], uniform in the
          band, drawn from the transport RNG. De-phases synchronized
          retransmit bursts after a shared loss (a partition heal, a
          congested window) so retries can't phase-lock. Must lie in
          [\[0, 1)] (checked at {!create}); at the default [0] no
          randomness is drawn and retry schedules are bit-for-bit the
          pre-jitter ones. *)
}

type policy = {
  retry : retry option;  (** [None] = fire and forget. *)
  last_write_wins : bool;
      (** when [true], a delivery whose per-key sequence number is not
          newer than the last applied one is discarded as stale. Only
          messages sent with [~key] participate. *)
}

type config = {
  delay : Delay_model.t;
  faults : faults;
  policy : policy;
  seed : int;  (** seeds the transport's private RNG. *)
  delay_window : int;  (** samples kept by the delay histogram. *)
  channel_metrics : bool;
      (** [true] (default): every channel owns labelled counters.
          [false]: all channels share one aggregate
          counter block (labelled [src="*"], [dst="*"]) — a memory
          valve for scale scenarios with 10^5+ channels, where
          per-channel registry records would dominate the heap.
          Message routing, randomness and scheduling are identical;
          only attribution granularity changes ({!totals} stays exact,
          {!channel_counters} / {!channels} report the shared
          aggregate for every channel). *)
}

val default_config : config
(** Constant 1 ms delay, no faults, no retries with last-write-wins on,
    seed 0, a 1024-sample delay window, per-channel metrics on. *)

(** {1 Transport and endpoints} *)

type t

type endpoint

val create : ?obs:Lla_obs.t -> ?config:config -> Lla_sim.Engine.t -> t
(** [obs] opts the transport into the observability layer: counters land
    in the handle's shared registry and every send / drop / delivery
    emits a trace record at the current engine time. Omitting it keeps a
    private registry and emits nothing — message fates and schedules are
    identical either way. *)

val engine : t -> Lla_sim.Engine.t

val endpoint : t -> name:string -> endpoint
(** Register a named endpoint (initially up). Names are for inspection
    only and need not be unique. *)

val endpoint_name : endpoint -> string

val endpoints : t -> endpoint list
(** In registration order. *)

(** {1 Scheduled fault windows}

    The probabilistic fault knobs are {e live}: a chaos schedule (see
    {!Lla_chaos.Schedule}) opens a fault window by calling {!set_faults}
    from an engine event at the window's start and closes it by restoring
    the previous value at its end. A transport that never calls these
    behaves exactly as configured at {!create}. *)

val set_faults : t -> faults -> unit
(** Replace the active fault configuration for every message sent from
    now on; in-flight deliveries are unaffected. The transport starts
    with [config.faults]. *)

val active_faults : t -> faults

val set_extra_jitter : t -> float -> unit
(** Add a uniform extra delay in [\[0, spread)] ms to every delivery
    scheduled from now on (on top of the delay model and any reorder
    hold-back). [0.] — the initial value — draws nothing from the RNG,
    preserving the zero-fault determinism guarantee.
    @raise Invalid_argument on a negative spread. *)

(** {1 Sending} *)

val send : ?key:int -> t -> src:endpoint -> dst:endpoint -> (unit -> unit) -> unit
(** Route a message: the callback runs at delivery time unless the message
    is dropped, cut by a partition, addressed to (or sent by) a down
    endpoint, or discarded as stale. [key] identifies the logical variable
    the message updates (e.g. a price's resource index) for last-write-wins
    filtering; omit it to bypass staleness checks. *)

val send_traced :
  ?key:int ->
  ?span:Lla_obs.Span.t ->
  t ->
  src:endpoint ->
  dst:endpoint ->
  (Lla_obs.Span.t option -> unit) ->
  unit
(** {!send} with causal-span propagation. When [span] is given, the
    transport has an [obs] handle and that handle traces spans, every
    {e applied} delivery (not drops, not stale discards) records one
    ["msg"] {!Lla_obs.Trace.Span} under the sender's span and passes the
    callback the forwarded context ([Lla_obs.Span.forward]: fresh id,
    origin timestamp preserved) to parent the receiver's work on;
    otherwise the callback gets [None]. Retransmissions and injected
    duplicates reuse the sender's context, so each surviving copy links
    to the same parent. Identical routing, randomness and scheduling to
    {!send} — span bookkeeping is pure emission. *)

(** {1 Endpoint lifecycle} *)

val is_up : t -> endpoint -> bool

val on_restart : t -> endpoint -> (unit -> unit) -> unit

val schedule_outage : t -> endpoint -> at:float -> duration:float -> unit
(** Crash at absolute engine time [at], restart at [at +. duration]. *)

val outages : t -> endpoint -> int
(** Number of crashes so far. *)

(** {1 Partitions} *)

val partition : t -> at:float -> duration:float -> group_a:endpoint list -> group_b:endpoint list -> unit
(** Cut every link between the two groups (both directions) during
    [\[at, at +. duration)]; the partition heals automatically at the end
    of the interval. Messages crossing a cut link are counted as [cut]
    (and retried, when a retry policy is set — retries that land after the
    heal succeed). *)

(** {1 Inspection} *)

type counters = {
  sent : int;  (** [send] calls. *)
  delivered : int;  (** payloads applied. *)
  dropped : int;  (** attempts lost to the drop probability. *)
  cut : int;  (** attempts lost to a partition. *)
  lost_down : int;  (** attempts lost to a down endpoint. *)
  duplicated : int;  (** extra copies injected. *)
  retried : int;  (** retransmission attempts scheduled. *)
  stale : int;  (** deliveries discarded by last-write-wins. *)
}

val zero_counters : counters

val totals : t -> counters
(** Sum over all channels. *)

val channel_counters : t -> src:endpoint -> dst:endpoint -> counters
(** {!zero_counters} when the channel has never carried a message. *)

val channels : t -> (endpoint * endpoint * counters) list
(** Every channel that has carried at least one message, in a
    deterministic order. *)

val delay_percentile : t -> p:float -> float option
(** Percentile of recently delivered messages' delays (all channels);
    [None] before the first delivery. *)
