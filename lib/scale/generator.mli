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
  depth_range : int * int;  (** chain length / trunk depth, inclusive, lo >= 2 *)
  width_range : int * int;  (** leaves / parallel branches, inclusive, lo >= 2 *)
  sharing_skew : float;
      (** resource-pick exponent: 1 = uniform; larger concentrates load
          on low-index resources (zipf-ish hot spots) *)
  exec_range : float * float;  (** per-subtask execution time draw, ms *)
  latency_slack : float;  (** witness latency is exec * U(2, 2 + slack) *)
  utility_k_range : float * float;  (** linear utility slope draw, >= 1 *)
  critical_margin_range : float * float;  (** critical time over witness, > 1 *)
  capacity_margin : float;  (** capacity headroom over witness shares, > 1 *)
}

val sized : ?resources:int -> subtasks:int -> unit -> params
(** [default_params] resized to [subtasks]; [resources] defaults to
    [max 16 (subtasks / 50)] (thousands of resources at 10^5 and up). *)

val generate : ?params:params -> seed:int -> unit -> Lla_model.Workload.t
(** Deterministic in [(params, seed)]. Raises [Invalid_argument] on
    nonsensical parameters. *)

val describe : Lla_model.Workload.t -> string
(** One-line [tasks/subtasks/paths/resources] summary, in O(workload). *)
