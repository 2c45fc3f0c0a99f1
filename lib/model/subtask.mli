(** Subtasks: the unit of resource consumption (§2). Each subtask belongs
    to exactly one task and consumes exactly one resource. *)

type t = {
  id : Ids.Subtask_id.t;
  name : string;
  task : Ids.Task_id.t;
  resource : Ids.Resource_id.t;
  exec_time : float;  (** worst-case execution time, ms. *)
  share_spec : Share.spec;
}

val make :
  ?name:string ->
  ?share_spec:Share.spec ->
  id:int ->
  task:Ids.Task_id.t ->
  resource:int ->
  exec_time:float ->
  unit ->
  t
(** @raise Invalid_argument when [exec_time <= 0]. *)

val share_function : t -> lag:float -> Share.t
(** The subtask's share function on a resource with the given lag. *)
