(** Random workload generation for property tests and ablation studies.

    Workloads are *schedulable by construction*: a witness latency
    assignment is drawn first, critical times are set above the witness
    path latencies, and resource availabilities above the witness share
    sums. {!make_unschedulable} then breaks the witness by shrinking
    either capacities or critical times. *)

open Lla_model

type shape =
  | Chain  (** linear pipeline. *)
  | Fan_out  (** root -> hub -> leaves (push/multicast). *)
  | Diamond  (** root -> branches -> join -> tail (pull/aggregate). *)

type params = {
  n_tasks : int;
  n_resources : int;
  min_subtasks : int;  (** >= 2 per task. *)
  max_subtasks : int;
  exec_range : float * float;  (** WCET bounds, ms. *)
  latency_slack : float;
      (** witness latencies are [exec * uniform(2, 2 + latency_slack)]. *)
  critical_time_margin : float;
      (** critical time = margin * witness critical path ( > 1). *)
  capacity_margin : float;
      (** availability = min(1, margin * witness share sum) ( > 1). *)
  variant : Utility.variant;
}

val generate : ?params:params -> seed:int -> unit -> Workload.t
(** Deterministic in [seed]. *)

val make_unschedulable : ?severity:float -> seed:int -> Workload.t -> Workload.t
(** Shrinks every critical time by [severity] (default 2.5) — the
    resulting demand cannot be met, mirroring the paper's §5.4 experiment.
    [seed] picks which tasks shrink first when severity is mild. *)
