(** Seeded planet-scale scenario generator.

    Produces workloads with 10^4..10^6 subtasks spread over thousands of
    resources by composing the three task shapes the model already
    covers — chains, fan-out trees and aggregation DAGs — under
    configurable depth/width/sharing distributions. The output is a
    standard {!Lla_model.Workload.t}, so every existing consumer
    (compile, solver, baseline, obs, chaos) runs unchanged; the
    {!Lla_scale.Kernel} additionally requires the linear-utility /
    reciprocal-share structure this generator always emits.

    Generation is deterministic: the same [params] and [seed] yield a
    byte-identical workload (see [Workload_codec.to_string]), which the
    property suite asserts. Feasibility is by construction — every draw
    carries a witness latency assignment that is rescaled until the
    witness fits all capacities with margin, and critical times / periods
    are set above the witness critical paths — so generated scenarios
    pass [Schedulability] admission. *)

type params = {
  target_subtasks : int;  (** stop adding tasks once this many subtasks exist *)
  n_resources : int;
  chain_weight : float;  (** relative odds of drawing a chain task *)
  fan_out_weight : float;  (** ... a fan-out tree task *)
  aggregation_weight : float;  (** ... an aggregation (join) DAG task *)
  sharing_skew : float;
      (** resource-pick exponent: 1 = uniform; larger concentrates load
          on low-index resources (zipf-ish hot spots) *)
}
(** Every scenario draws chains of 2–8 subtasks and trees or joins of
    2–6 branches, execution times from [U(1, 8)] ms, witness latencies
    of [exec * U(2, 6)], linear utility slopes from [U(1.5, 3)] and
    critical times [U(1.25, 1.6)] over the witness critical path, and
    gives every resource 25 % headroom over its witness shares. *)

val sized : ?resources:int -> subtasks:int -> unit -> params
(** [default_params] resized to [subtasks]; [resources] defaults to
    [max 16 (subtasks / 50)] (thousands of resources at 10^5 and up). *)

val generate : ?params:params -> seed:int -> unit -> Lla_model.Workload.t
(** Deterministic in [(params, seed)]. Raises [Invalid_argument] on
    nonsensical parameters. *)

val describe : Lla_model.Workload.t -> string
(** One-line [tasks/subtasks/paths/resources] summary, in O(workload). *)
