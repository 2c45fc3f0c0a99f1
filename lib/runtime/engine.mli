(** Pluggable runtime engine: the clock + message scheduler behind
    {!Distributed}, {!Optimizer_loop}, [Lla_soak.Soak] and
    [Lla_chaos.Campaign].

    Two implementations share the {!Lla_sim.Engine} scheduling core:

    - {!Engine_sim} — the deterministic single-threaded simulator.
      Golden traces through this engine are bit-for-bit the
      pre-interface ones ({!of_core} wraps a caller-owned core).
    - {!Engine_domains} — OCaml 5 domains-parallel: actors shard
      across a configurable domain pool, each shard running a private
      core in lockstep quanta; cross-shard traffic crosses at barriers,
      totally ordered by [(at, channel, seq)] in deterministic-merge
      mode so replays reproduce bit-for-bit.

    The variants are exposed: shard topology and barrier scheduling are
    capabilities the runtime wires differently per engine, not details
    to hide. *)

type t =
  | Sim of Engine_sim.t
  | Domains of Engine_domains.t

type kind = [ `Sim | `Domains ]

(** {1 Constructors} *)

val sim : ?start_time:float -> unit -> t

val of_core : Lla_sim.Engine.t -> t
(** A sim engine over an existing caller-owned core — the
    compatibility path for code that already holds a
    [Lla_sim.Engine.t]. *)

val domains :
  ?domains:int -> ?quantum:float -> ?deterministic:bool -> ?start_time:float -> unit -> t
(** See {!Engine_domains.create}. *)

(** {1 Common surface} *)

val kind : t -> kind

val name : t -> string
(** ["sim"] / ["domains"] — the tag benchmark snapshots stamp. *)

val shards : t -> int
(** 1 for sim. *)

val core : t -> shard:int -> Lla_sim.Engine.t
(** Shard [shard]'s scheduling core. @raise Invalid_argument for a
    nonzero shard on a single-shard engine. *)

val now : t -> float
(** Sim: the core clock. Domains: the barrier clock. *)

val run_until : t -> float -> unit

val drain : t -> unit
(** Fire whatever remains (post-[stop] flush). *)

val pending : t -> int

val events_fired : t -> int

(** {1 Sharded capabilities}

    On single-shard engines these degrade to plain scheduling on the
    core (shard arguments must be 0), so engine-generic runtime code
    can use them unconditionally. *)

val post : t -> from:int -> shard:int -> at:float -> channel:int -> (unit -> unit) -> unit
(** See {!Engine_domains.post}. *)

val at_barrier : t -> at:float -> (unit -> unit) -> unit
(** See {!Engine_domains.at_barrier}. On sim this is an ordinary
    scheduled event at [max at now]. *)

val shutdown : t -> unit
(** Join worker domains (domains engine); no-op otherwise. Always safe
    to call. *)
