(** Structured iteration tracing for the LLA control plane.

    Each instrumented layer emits typed {!event}s; the tracer stamps them
    with a monotone sequence number and the caller-supplied time (engine
    ms in the distributed runtime, iteration number in the synchronous
    solver) and stores them in a bounded ring buffer. Pluggable sinks see
    every event as it is emitted, before any ring eviction — use
    {!memory_sink} to collect unbounded streams in tests and
    {!write_jsonl} / {!record_to_string} for the JSONL dump.

    Emission never schedules engine events, never draws randomness and
    never mutates the traced layers, so enabling tracing cannot perturb a
    trajectory — the golden-trace test in [test/test_obs.ml] holds the
    runtime to that. *)

type event =
  | Iteration of { iteration : int; utility : float; movement : float; guards : int }
      (** one synchronous solver step (movement = max relative latency change). *)
  | Allocation_solved of { task : int; utility : float }
      (** a task controller re-solved its allocation (Eq. 7); [utility] is
          that task's utility under its new local assignment (sum the
          latest value per task for the global objective). *)
  | Price_updated of {
      resource : int;
      mu : float;
      step : float;
      share_sum : float;
      capacity : float;
      congested : bool;
    }  (** one resource price update (Eq. 8); carries the Eq. 3 operands. *)
  | Path_price_updated of {
      path : int;
      lambda : float;
      step : float;
      latency : float;
      critical_time : float;
    }  (** one path price update (Eq. 9); carries the Eq. 4 operands. *)
  | Guard_fired of { site : string }
      (** a non-finite value was neutralized at [site]. *)
  | Correction_applied of { subtask : string; offset : float }
      (** the model-error corrector published a new offset (§6.3). *)
  | Watchdog_trip of { reason : string }
      (** a safe-mode trip condition fired (emitted by the watchdog itself,
          before the runtime enacts the fallback). *)
  | Safe_mode_entered of { reason : string; fallback : string }
  | Safe_mode_exited
  | Checkpoint_saved of { actor : string }
  | Checkpoint_rejected of { actor : string }
      (** a snapshot was refused because it contained a non-finite value. *)
  | Checkpoint_restored of { actor : string; warm : bool }
      (** [warm = false] is the cold [mu0] reset fallback. *)
  | Transport_send of { src : string; dst : string }
  | Transport_dropped of { src : string; dst : string; reason : string }
      (** [reason]: ["drop"], ["cut"] (partition), ["down"] (endpoint), or
          ["stale"] (superseded under last-write-wins). *)
  | Transport_delivered of { src : string; dst : string; delay : float }
  | Health_transition of { endpoint : string; alive : bool }
  | Span of { span : int; parent : int; trace : int; kind : string; actor : string }
      (** one node of a causal tree: [span] is this node's id, [parent]
          the id of the span that caused it ([-1] for a root), [trace]
          the id of the tree's root. [kind] is ["price"] (Eq. 8 update at
          a resource agent), ["alloc"] (Eq. 7/9 solve at a task
          controller) or ["msg"] (a transport delivery that was applied);
          [actor] names the endpoint doing the work. See {!Causal}. *)
  | Note of { name : string; value : float }  (** free-form escape hatch. *)
  | Alert_raised of { alert : string; severity : string; value : float }
      (** a {!Monitor} alert entered its active state. [severity] is
          ["info"], ["warning"] or ["critical"]; [value] is the signal
          that crossed the threshold (streak length, spread, drift...). *)
  | Alert_cleared of { alert : string; value : float }
      (** the alert's exit hysteresis released; [value] is the signal at
          clear time. *)

type record = { seq : int; at : float; event : event }

type t

val create : ?capacity:int -> unit -> t
(** Ring buffer of the last [capacity] records (default 4096). Events
    are stored column-wise in unboxed arrays, so an emit allocates
    nothing and a large ring costs only memory, not GC work; attach a
    sink rather than raising the capacity when a complete stream is
    needed.
    @raise Invalid_argument on a non-positive capacity. *)

val emit : t -> at:float -> event -> unit
(** Stamp, store and fan out one event. The record is stored in the ring
    {e before} the sinks run, so a sink may itself call [emit] (the
    {!Monitor} alert bus does, to stamp transitions into the stream it
    observes): the nested record lands after its trigger in the ring and
    gets the next sequence number. Sinks attached before the re-entrant
    one still see records in sequence order. *)

val attach : t -> (record -> unit) -> unit
(** Add a sink; sinks run synchronously in attach order on every emit. *)

val records : t -> record list
(** Retained records, oldest first. *)

val event_name : event -> string
(** Stable snake_case tag, also used as ["type"] in the JSON encoding. *)

val record_to_string : record -> string
(** One JSONL line (no trailing newline). *)

val record_of_string : string -> (record, string) result
(** Parse one JSONL line back into a record. *)

val write_jsonl : t -> out_channel -> unit
(** Dump {!records} one JSON object per line. *)

val memory_sink : unit -> (record -> unit) * (unit -> record list)
(** An unbounded collecting sink and its chronological reader. *)

val merge : record list list -> record list
(** Deterministically merge per-shard trace streams into one global
    stream, ordered by [(at, stream index, seq)]. Each input stream must
    be in its own emission order (as {!records} and {!memory_sink}
    readers produce). Records keep their per-stream [seq] stamps, so the
    merged stream's [seq] values are {e not} globally monotone — use
    {!Invariant.spans_well_formed_merged} (not [spans_well_formed] /
    [monotone]) on merged streams.

    The [(at, stream, seq)] order is the same total order the
    deterministic-merge engine imposes on cross-shard deliveries, so a
    replayed run merges to an identical stream. *)
