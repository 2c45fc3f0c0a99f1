(** Tasks (§2): a subtask graph, a triggering event, a critical time and a
    utility function. *)

open Ids

type t = private {
  id : Task_id.t;
  name : string;
  subtasks : Subtask.t list;
  graph : Graph.t;
  critical_time : float;  (** [C_i], ms — the deadline analogue. *)
  utility : Utility.t;
  variant : Utility.variant;
  trigger : Trigger.t;
  latency_percentile : float;
      (** Which percentile of observed job latencies the model targets when
          correcting predictions at runtime (§2.1/§6.3); 100 = worst case. *)
  paths : Subtask_id.t list array;  (** cached {!Graph.paths}. *)
  weights : float Subtask_id.Map.t;  (** cached {!Graph.weights} for [variant]. *)
}

val make :
  ?name:string ->
  ?variant:Utility.variant ->
  ?latency_percentile:float ->
  id:int ->
  subtasks:Subtask.t list ->
  graph:Graph.t ->
  critical_time:float ->
  utility:Utility.t ->
  trigger:Trigger.t ->
  unit ->
  (t, string) result
(** Validates: non-empty subtasks, unique subtask ids, every subtask
    declares this task as owner, the graph's nodes are exactly the subtask
    ids, positive critical time, percentile in (0, 100]. *)

val make_exn :
  ?name:string ->
  ?variant:Utility.variant ->
  ?latency_percentile:float ->
  id:int ->
  subtasks:Subtask.t list ->
  graph:Graph.t ->
  critical_time:float ->
  utility:Utility.t ->
  trigger:Trigger.t ->
  unit ->
  t

val subtask_ids : t -> Subtask_id.t list

val find_subtask : t -> Subtask_id.t -> Subtask.t option

val weight : t -> Subtask_id.t -> float
(** Aggregation weight of a subtask (§3.2). *)

val utility_value : t -> latency:(Subtask_id.t -> float) -> float
(** [U_i] (Eq. 1 with the §3.2 aggregation). *)

val critical_path : t -> latency:(Subtask_id.t -> float) -> Subtask_id.t list * float

val arrival_rate : t -> float
(** Mean job releases per ms of every subtask (one per task release). *)

val with_critical_time : t -> float -> t
(** Same task with a different critical time (utility is rebuilt only if it
    referenced the old one — the caller passes the utility already scaled,
    so this simply replaces the field and revalidates). *)

val with_utility : t -> Utility.t -> t
