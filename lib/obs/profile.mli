(** Hierarchical wall-clock phase profiler.

    [time t "phase" f] runs [f] with the elapsed wall-clock time
    accumulated under ["phase"], nested beneath whatever phase is
    currently running on [t] — so call trees (solver step → allocate →
    price update, transport route → deliver, checkpoint save → JSONL
    encode) appear as trees in the {!report}.

    A disabled profiler ({!disabled}, the default inside
    {!Lla_obs.create}) reduces [time] to a single branch plus the call
    to [f]: instrumented hot paths pay nothing measurable until profiling
    is switched on, and the engine schedule is never touched either way
    (the profiler only reads the clock). [bench profile] holds the
    enabled-profiler + span overhead on the distributed deployment under
    the same 5% budget as plain tracing.

    Not thread-safe; the control plane is single-threaded by design. *)

type t

val create : ?clock:(unit -> float) -> unit -> t
(** An enabled profiler. [clock] returns seconds (default
    [Unix.gettimeofday]; inject a fake for tests). *)

val disabled : unit -> t
(** A fresh profiler with [enabled = false]. *)

val enabled : t -> bool

val set_enabled : t -> bool -> unit

val time : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk as a phase nested under the current one. Re-entrant
    (a phase may recursively time itself) and exception-safe: the frame
    is popped and its time charged even when the thunk raises. When the
    profiler is disabled the thunk runs with no bookkeeping at all.

    Allocation discipline: after a phase node is interned (first call),
    [time] itself allocates nothing — totals live in flat [float ref]
    cells (no per-exit float boxing) and the child scan is closure-free —
    so a hot loop may keep hooks in place provided the caller passes a
    preallocated thunk. The clock itself may box its return value; that
    cost only arises when the profiler is enabled. *)

val reset : t -> unit
(** Drop every accumulated phase (keeps the enabled flag and clock). *)

val report : t -> string
(** Text tree: per phase, total ms, call count, ms/call and share of the
    grand total; siblings sorted by total descending, with an implicit
    [(self)] row where a parent spent time outside its sub-phases. *)

type stat = { path : string list; seconds : float; count : int }

val stats : t -> stat list
(** Flat pre-order dump of the tree (root excluded) for programmatic
    assertions; [path] is the chain of phase names from the top. *)
