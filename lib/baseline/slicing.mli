(** Deadline-slicing baselines (paper §7, "Deadline slicing").

    These are the offline heuristics LLA is positioned against: they cut
    each task's end-to-end deadline into per-subtask latency budgets using
    only local rules, with no notion of resource prices or utility. All
    three produce assignments that satisfy the critical-time constraints
    by construction; whether the resource constraints hold is up to luck —
    {!respects_resources} checks, and the ablation bench compares their
    utility against LLA's. *)

open Lla_model

type t = Ids.Subtask_id.t -> float
(** A latency assignment. *)

val proportional_slice : Workload.t -> t
(** Each subtask receives a slice of [C_i] proportional to its WCET,
    normalized so the heaviest path exactly meets the deadline:
    [lat_s = c_s * C_i / max_p sum_{u in p} c_u]. *)

val utility : Workload.t -> t -> float
(** Total utility of an assignment (Eq. 2). *)

val respects_deadlines : Workload.t -> t -> bool

val respects_resources : Workload.t -> t -> bool

val name_of : [ `Equal | `Proportional | `Laxity ] -> string

val get : [ `Equal | `Proportional | `Laxity ] -> Workload.t -> t
(** [`Equal] is Bettati–Liu style: every subtask of task [i] receives
    [C_i / longest-path-length] — the deadline divided evenly along the
    longest chain. [`Proportional] is {!proportional_slice}. [`Laxity]
    is BST-flavoured (Natale & Stankovic): the critical path's laxity
    [C_i - sum of WCETs] is distributed evenly over the subtasks of the
    WCET-critical path; subtasks off that path get the same per-stage
    budget, [lat_s = c_s + laxity / critical-path-length]. *)
