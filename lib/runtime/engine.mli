(** The runtime engine handle: the clock + message scheduler behind
    {!Distributed} and [Lla_chaos.Campaign].

    Two implementations share the {!Lla_sim.Engine} scheduling core:

    - [Sim] — the deterministic single-threaded simulator: one core,
      held as is, so scheduling through the handle is scheduling on the
      core (same queue, same [(time, seq)] order, same clock).
    - {!Engine_domains} — OCaml 5 domains-parallel: actors shard
      across a domain pool, each shard running a private core in
      lockstep 1 ms quanta; cross-shard traffic crosses at barriers,
      totally ordered by [(at, channel, seq)] so replays reproduce
      bit-for-bit.

    The variants are exposed: shard topology and barrier scheduling are
    capabilities the runtime wires differently per engine, not details
    to hide. *)

type t =
  | Sim of Lla_sim.Engine.t
  | Domains of Engine_domains.t

(** {1 Constructors} *)

val sim : unit -> t
(** A fresh simulator core at time 0. *)

val domains : domains:int -> unit -> t
(** See {!Engine_domains.create}. *)

(** {1 Common surface} *)

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
(** See {!Engine_domains.post}. On sim this is an ordinary scheduled
    event at [max at now]. @raise Invalid_argument for a nonzero
    [from] or [shard] on sim. *)

val at_barrier : t -> at:float -> (unit -> unit) -> unit
(** See {!Engine_domains.at_barrier}. On sim this is an ordinary
    scheduled event at [max at now]. *)

val shutdown : t -> unit
(** Join worker domains (domains engine); no-op otherwise. Always safe
    to call. *)
