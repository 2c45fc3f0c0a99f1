(** Workloads: a set of tasks competing for a set of resources (§3). *)

open Ids

type t = private {
  tasks : Task.t list;
  resources : Resource.t list;
}

val make : tasks:Task.t list -> resources:Resource.t list -> (t, string) result
(** Validates: non-empty tasks and resources, unique task ids, unique
    resource ids, globally unique subtask ids, every subtask's resource
    declared. *)

val make_exn : tasks:Task.t list -> resources:Resource.t list -> t

val task : t -> Task_id.t -> Task.t
(** @raise Not_found on unknown ids. *)

val subtask : t -> Subtask_id.t -> Subtask.t

val owner : t -> Subtask_id.t -> Task.t
(** The task a subtask belongs to. *)

val subtasks : t -> Subtask.t list
(** All subtasks across tasks, grouped by task in declaration order. *)

val subtasks_on : t -> Resource_id.t -> Subtask.t list
(** [S_r]: the subtasks competing for resource [r]. *)

val share_function : t -> Subtask_id.t -> Share.t
(** The subtask's share function, instantiated with its resource's lag. *)

val utilization : t -> Resource_id.t -> float
(** Long-run demand on the resource: [sum over S_r of rate * exec_time]
    (dimensionless fraction). The workload is rate-stable on [r] only if
    this is at most the resource's availability. *)

val min_share : t -> Subtask_id.t -> float
(** Rate-stability floor for the subtask's share: [rate * exec_time]
    (§6.2: a fast subtask with WCET 5 ms arriving 40/s needs 0.2). Below
    this share, jobs queue without bound. *)

val total_utility : t -> latency:(Subtask_id.t -> float) -> float
(** The optimization objective (Eq. 2) under the given latency
    assignment. *)

val share_sum : t -> Resource_id.t -> latency:(Subtask_id.t -> float) -> float
(** Left-hand side of the resource constraint (Eq. 3). *)

val constraint_violations : t -> latency:(Subtask_id.t -> float) -> tolerance:float -> string list
(** Human-readable list of violated resource (Eq. 3) and critical-time
    (Eq. 4) constraints; empty when the assignment is feasible within
    [tolerance] (relative). *)

val stats : t -> string
(** One-line summary (task/subtask/resource counts, utilization range). *)
