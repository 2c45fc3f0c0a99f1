(** Price-state checkpointing for the distributed control plane.

    PR 1's transport lets agents and controllers crash; the restart path
    re-priced from scratch ([mu0 = 1], compiled initial latency views),
    paying the full cold-convergence transient on every outage. This store
    turns that into warm recovery: actors periodically snapshot their dual
    state (a price agent: [mu_r], its adaptive step and its latency view;
    a task controller: its price views, path multipliers and per-path
    steps), and a restarted actor rebuilds from its last accepted snapshot
    instead of from [mu0] — the same idea that makes delay/fault-tolerant
    distributed allocation deployable (DTAC-style recovery from stale
    state rather than cold restart).

    Snapshot hygiene:
    - a snapshot containing a non-finite value, or saved at a non-finite
      time, is {e refused at save time} (counted in {!rejected_saves}),
      so a diverging actor can never checkpoint its poisoned state and
      resurrect it after a crash, and a replayed record cannot pin a
      slot's save time where the save cadence never moves it again.

    The in-memory store can be backed by a real write-ahead journal
    ({!Lla_durable.Journal}): with [?journal], every accepted save also
    appends one record to the journal — a JSON object carrying the
    slot's kind, index, save time and state — and {!recover} replays the
    journal back through the normal save path after a process crash,
    so the non-finite refusal applies to disk state exactly as to live
    state. That record is the store's only
    persistence format. Without [?journal] nothing touches storage and
    no record is encoded. Arrays are defensively copied both ways. *)

type agent_state = {
  price : float;  (** [mu_r]. *)
  gamma : float;  (** current adaptive step size. *)
  lat_view : float array;  (** last announced latency per local subtask slot. *)
}

type controller_state = {
  mu_view : float array;  (** stale resource-price view, indexed by resource. *)
  congested_view : bool array;
  lambda : float array;  (** path multipliers, global path indexing. *)
  gamma_p : float array;  (** per own-path step sizes. *)
}

type t

val create :
  ?obs:Lla_obs.t ->
  ?journal:Lla_durable.Journal.t ->
  n_agents:int ->
  n_controllers:int ->
  unit ->
  t
(** [obs] makes every save emit a
    {!Lla_obs.Trace.Checkpoint_saved} or [Checkpoint_rejected] record
    (actor ["agent:<i>"] / ["controller:<i>"], stamped with the save
    time). [journal] persists every accepted save as a write-ahead
    record (see {!recover}); omitted, the store never touches storage.
    @raise Invalid_argument on negative sizes. *)

val save_agent : t -> int -> now:float -> agent_state -> bool
(** Snapshot agent [r]'s state at time [now]. [false] when the state
    contains a non-finite value or [now] is not finite — the previous
    snapshot (if any) is kept. *)

val save_controller : t -> int -> now:float -> controller_state -> bool

val restore_agent : t -> int -> agent_state option
(** The latest accepted snapshot of agent [r], if any. Returned arrays
    are fresh copies. *)

val restore_controller : t -> int -> controller_state option

val last_agent_save : t -> int -> float option
(** Time of the latest accepted snapshot, for save-period gating. *)

val last_controller_save : t -> int -> float option

val saves : t -> int
(** Accepted snapshots (agents + controllers). *)

val restores : t -> int
(** Successful restores. *)

val rejected_saves : t -> int
(** Snapshots refused because they contained a non-finite value or
    carried a non-finite save time. *)

(** {1 Durability}

    The crash-recovery loop: normal operation journals every accepted
    save; after a whole-process crash, a fresh (or {!clear}ed) store
    calls {!recover} to replay the journal's surviving records through
    the save path, then actors warm-restart from the restored slots as
    if the process had never died.

    A journal write failure wedges the journal ({!Lla_durable.Journal}):
    saves keep landing in memory but no longer reach the journal, and
    nothing here un-wedges it, so a {!recover} after a later crash
    replays only the records written before the failure. *)

val clear : t -> unit
(** Drop every in-memory slot (a whole-node crash losing RAM state);
    counters and the journal are untouched. *)

val recover : t -> now:float -> Lla_durable.Recovery.report option
(** Replay the attached journal into this store through the normal
    save path: records with a non-finite value or save time are refused,
    malformed lines (bad JSON, unknown [kind], out-of-range index, wrong
    field type) are refused, never raised on, and a torn tail on the
    active segment is truncated in place. Journal appends are suppressed
    during the replay itself, so recovery is idempotent — replaying
    twice restores the same slots. [None] when the store has no journal.
    Trace/metric emission follows the store's [?obs]. *)
