open Ids

type t = {
  id : Task_id.t;
  name : string;
  subtasks : Subtask.t list;
  graph : Graph.t;
  critical_time : float;
  utility : Utility.t;
  variant : Utility.variant;
  trigger : Trigger.t;
  latency_percentile : float;
  paths : Subtask_id.t list array;
  weights : float Subtask_id.Map.t;
}

let ( let* ) = Result.bind

let make ?name ?(variant = Utility.Path_weighted) ?(latency_percentile = 100.) ~id ~subtasks
    ~graph ~critical_time ~utility ~trigger () =
  let task_id = Task_id.make id in
  let name = match name with Some n -> n | None -> Task_id.to_string task_id in
  let* () = if subtasks = [] then Error (name ^ ": no subtasks") else Ok () in
  let* () =
    if critical_time <= 0. then Error (name ^ ": non-positive critical time") else Ok ()
  in
  let* () =
    if latency_percentile <= 0. || latency_percentile > 100. then
      Error (name ^ ": latency percentile outside (0, 100]")
    else Ok ()
  in
  let ids = Sorted.of_list (fun (s : Subtask.t) -> Subtask_id.to_int s.id) subtasks in
  let* () =
    if Sorted.has_duplicate ids then Error (name ^ ": duplicate subtask ids") else Ok ()
  in
  let* () =
    match List.find_opt (fun (s : Subtask.t) -> not (Task_id.equal s.task task_id)) subtasks with
    | Some s -> Error (Printf.sprintf "%s: subtask %s declares another owner task" name s.name)
    | None -> Ok ()
  in
  (* The ids are distinct and so are the graph's nodes: the two sets are
     equal iff they have one size and the graph holds every id. *)
  let* () =
    if
      Graph.node_count graph <> Array.length ids
      || List.exists (fun (s : Subtask.t) -> not (Graph.mem graph s.id)) subtasks
    then Error (name ^ ": graph nodes differ from the task's subtask ids")
    else Ok ()
  in
  Ok
    {
      id = task_id;
      name;
      subtasks;
      graph;
      critical_time;
      utility;
      variant;
      trigger;
      latency_percentile;
      paths = Array.of_list (Graph.paths graph);
      weights = Graph.weights graph ~variant;
    }

let make_exn ?name ?variant ?latency_percentile ~id ~subtasks ~graph ~critical_time ~utility
    ~trigger () =
  match
    make ?name ?variant ?latency_percentile ~id ~subtasks ~graph ~critical_time ~utility ~trigger
      ()
  with
  | Ok t -> t
  | Error msg -> invalid_arg ("Task.make: " ^ msg)

let subtask_ids t = List.map (fun (s : Subtask.t) -> s.id) t.subtasks

let find_subtask t id = List.find_opt (fun (s : Subtask.t) -> Subtask_id.equal s.id id) t.subtasks

let weight t s =
  match Subtask_id.Map.find_opt s t.weights with
  | Some w -> w
  | None -> invalid_arg "Task.weight: unknown subtask"

let aggregate_latency t ~latency =
  Subtask_id.Map.fold (fun s w acc -> acc +. (w *. latency s)) t.weights 0.

let utility_value t ~latency = t.utility.Utility.f (aggregate_latency t ~latency)

let critical_path t ~latency = Graph.critical_path t.graph ~latency

let arrival_rate t = Trigger.mean_rate t.trigger

let with_critical_time t critical_time =
  if critical_time <= 0. then invalid_arg "Task.with_critical_time: non-positive";
  { t with critical_time }

let with_utility t utility = { t with utility }
