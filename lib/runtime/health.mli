(** Heartbeat failure detection over the fault-injecting transport.

    Each watched endpoint periodically sends a heartbeat message {e
    through} the transport to the detector's own endpoint, so heartbeats
    are subject to the same crash / partition / drop / delay faults as the
    control traffic they stand in for: a crashed endpoint stops beating
    because the transport refuses sends from a down source, and a
    partitioned one because its heartbeats are cut. A periodic sweep marks
    an endpoint {e suspect} once no heartbeat has arrived for [timeout]
    ms, and the next heartbeat received from a suspect flips it back to
    {e alive} — a simple deadline detector (the timeout plays the role of
    the phi threshold in accrual detectors).

    Detection latency is bounded by
    [timeout + heartbeat_period + check_period + delivery delay]; under a
    zero-fault transport with [timeout > heartbeat_period + delay] the
    detector never produces a false suspicion (tested).

    The detector itself runs directly on the engine (the observer is
    assumed reliable); only the heartbeats travel the faulty network. *)

val timeout : float
(** 250: silence (ms) after which an endpoint is suspected. Watched
    endpoints heartbeat every 50 ms and the detector sweeps every 25 ms;
    the timeout exceeds the heartbeat period plus the expected delivery
    delay, so healthy endpoints are not flagged. *)

type status = Alive | Suspect

type t

val create : ?obs:Lla_obs.t -> Lla_transport.Transport.t -> t
(** Registers one detector endpoint named ["health"] on
    the transport. [obs] makes every status transition emit a
    {!Lla_obs.Trace.Health_transition} record before the callbacks run. *)

val watch : t -> Lla_transport.Transport.endpoint -> unit
(** Start monitoring an endpoint (idempotent). Watches added after
    {!start} begin heartbeating immediately. *)

val on_transition : t -> (Lla_transport.Transport.endpoint -> status -> now:float -> unit) -> unit
(** Called on every alive->suspect and suspect->alive transition, in
    registration order. *)

val start : t -> unit
(** Begin heartbeating and sweeping.
    @raise Invalid_argument when already started. *)

val stop : t -> unit
(** Cancel all periodic events so the engine can drain. Idempotent; no-op
    before {!start}. *)

val suspects : t -> Lla_transport.Transport.endpoint list
(** Currently suspected endpoints, in watch order. *)

val heartbeats_received : t -> int

val suspicions : t -> int
(** Total alive->suspect transitions so far. *)

val recoveries : t -> int
(** Total suspect->alive transitions so far. *)
