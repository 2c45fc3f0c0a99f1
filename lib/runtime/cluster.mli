(** A simulated cluster: one proportional-share scheduler per workload
    resource, living on a shared discrete-event engine. Scheduler class
    ids are subtask ids ({!Lla_model.Ids.Subtask_id.to_int}). *)

open Lla_model

type t

val create : ?kind:Lla_sched.Scheduler.kind -> Lla_sim.Engine.t -> Workload.t -> t
(** Default scheduler: [Sfs {quantum = 1.0}] — the paper's kernel ran a
    modified Surplus Fair Scheduler. Each scheduler's capacity is its
    resource's availability [B_r]. *)

val engine : t -> Lla_sim.Engine.t

val workload : t -> Workload.t

val set_share : t -> Ids.Subtask_id.t -> float -> unit
(** Enact a share for the subtask on its resource. *)

val share : t -> Ids.Subtask_id.t -> float

val submit : t -> Ids.Subtask_id.t -> work:float -> on_complete:(float -> unit) -> unit

val backlog : t -> Ids.Subtask_id.t -> int
