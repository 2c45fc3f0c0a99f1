(** Randomized fault campaigns: generate schedules, run them against the
    distributed deployment, judge them with the {!Oracle} suite, and
    shrink any failure to a minimal replayable reproducer.

    Everything here is deterministic: a campaign is fully described by
    [(runs, seed, fragile)] — run [i] executes the schedule generated
    from [seed + i] — and the summary {!summary.report} is byte-identical
    across invocations (it contains no wall-clock times and no
    filesystem paths). *)

type engine = [ `Sim | `Domains of int ]
(** Execution engine for a schedule run. [`Sim] (the default everywhere)
    is the deterministic single-threaded simulator; [`Domains n] deploys
    the same schedule with {!Lla_runtime.Distributed.create_on} on an
    [n]-domain deterministic-merge {!Lla_runtime.Engine_domains}, judging
    the merged per-shard trace with the order-calibrated oracles
    ({!Oracle.evaluate} [~merged:true]). *)

type execution = {
  schedule : Schedule.t;
  outcome : Oracle.outcome;
  verdicts : Oracle.verdict list;
}

val run_schedule : ?engine:engine -> Schedule.t -> (execution, string) result
(** Execute one schedule: resolve and compile its workload (validating
    every event index against it), build a fresh engine + traced
    deployment with the schedule's {!Schedule.setup}, inject the events,
    drive the engine for {!Schedule.duration}, stop the runtime, drain
    the remaining in-flight messages, and judge the outcome with
    {!Oracle.default_config}. [Error] on
    an unknown workload or an out-of-range index; oracle verdicts (even
    all-failing ones) are [Ok].

    The offline optimum ({!Lla_baseline.Centralized}) is computed once
    per workload name and cached for the process lifetime.

    Both engines run one deployment body: {!Lla_runtime.Distributed.create_on}
    on the chosen engine, with the transport-level events applied to
    every shard transport (fault/jitter windows and the other timed
    writes as injections, partitions across real and shadow endpoints,
    outages on the target's home transport). The engine is shut down,
    joining any worker domains, on every path out, a raise included. *)

val generate : ?fragile:bool -> seed:int -> unit -> Schedule.t
(** Sample a random schedule on the ["base"] workload: 1–4 events drawn
    from all six event kinds with bounded severities (drop ≤ 0.3,
    partitions ≤ 3 actors, outages ≤ 2.5 s, ...). [fragile] (default
    [false]) swaps the {!Schedule.robust_setup} for
    {!Schedule.fragile_setup} with an aggressive sampled fixed step —
    the deliberately breakable deployment used to prove the oracles
    bite. Same [seed] (and flag), same schedule. *)

type failure = {
  run_index : int;
  run_seed : int;
  oracles : string list;  (** failing oracle names. *)
  schedule : Schedule.t;
  shrunk : Schedule.t;
  repro_path : string option;  (** where the artifacts were written, when [out] was given. *)
  shrunk_path : string option;
}

type summary = {
  runs : int;
  base_seed : int;
  fragile : bool;
  failures : failure list;
  report : string;  (** one line per run + a footer; deterministic. *)
}

val run :
  ?engine:engine ->
  ?fragile:bool ->
  ?shrink_attempts:int ->
  ?out:string ->
  runs:int ->
  seed:int ->
  unit ->
  summary
(** The campaign loop. Each generated schedule is first round-tripped
    through the JSON codec (a mismatch is reported as a [codec-roundtrip]
    failure). A failing run is shrunk while it still fails one of the
    same oracles on the same engine: delta-debugging (ddmin) over the
    event list, then per-event simplification passes (halve durations,
    spreads and magnitudes; zero fault probabilities one at a time; shed
    partition members; tame non-finite poison values) to a fixpoint,
    spending at most [shrink_attempts] (default 120) runner executions;
    the input is kept when nothing smaller fails. When [out] is given,
    both the original and the minimized schedule are saved there as
    [repro-<seed>.json] / [repro-<seed>.min.json] (the directory is
    created if needed). *)

val replay : ?engine:engine -> path:string -> unit -> (execution, string) result
(** Load a saved schedule artifact and {!run_schedule} it. *)
