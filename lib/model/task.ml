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
  weights : float array;
  path_off : int array;
  path_members : int array;
}

(* The checks run in order and the first failure wins. They are plain
   conditionals rather than a [Result] chain, whose continuations would
   allocate a closure per check for every task a generator builds. *)
let make ?name ?(variant = Utility.Path_weighted) ?(latency_percentile = 100.) ~id ~subtasks
    ~graph ~critical_time ~utility ~trigger () =
  let task_id = Task_id.make id in
  let name = match name with Some n -> n | None -> Task_id.to_string task_id in
  if subtasks = [] then Error (name ^ ": no subtasks")
  else if critical_time <= 0. then Error (name ^ ": non-positive critical time")
  else if latency_percentile <= 0. || latency_percentile > 100. then
    Error (name ^ ": latency percentile outside (0, 100]")
  else
    let ids = Sorted.of_list (fun (s : Subtask.t) -> Subtask_id.to_int s.id) subtasks in
    if Sorted.has_duplicate ids then Error (name ^ ": duplicate subtask ids")
    else
      match
        List.find_opt (fun (s : Subtask.t) -> not (Task_id.equal s.task task_id)) subtasks
      with
      | Some s -> Error (Printf.sprintf "%s: subtask %s declares another owner task" name s.name)
      | None ->
        (* The ids are distinct and so are the graph's nodes: the two
           sets are equal iff they have one size and the graph holds
           every id. *)
        if
          Graph.node_count graph <> Array.length ids
          || List.exists (fun (s : Subtask.t) -> not (Graph.mem graph s.id)) subtasks
        then Error (name ^ ": graph nodes differ from the task's subtask ids")
        else
          let path_off, path_members = Graph.paths graph in
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
              weights = Graph.weights graph ~variant;
              path_off;
              path_members;
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
  let i = Graph.index t.graph s in
  if i < 0 then invalid_arg "Task.weight: unknown subtask";
  t.weights.(i)

let n_paths t = Array.length t.path_off - 1

let path t q =
  List.init
    (t.path_off.(q + 1) - t.path_off.(q))
    (fun e -> Graph.node t.graph t.path_members.(t.path_off.(q) + e))

(* In node order, which is ascending id order. *)
let aggregate_latency t ~latency =
  let acc = ref 0. in
  Array.iteri (fun i w -> acc := !acc +. (w *. latency (Graph.node t.graph i))) t.weights;
  !acc

let utility_value t ~latency = t.utility.Utility.f (aggregate_latency t ~latency)

let critical_path t ~latency = Graph.critical_path t.graph ~latency

let arrival_rate t = Trigger.mean_rate t.trigger

let with_critical_time t critical_time =
  if critical_time <= 0. then invalid_arg "Task.with_critical_time: non-positive";
  { t with critical_time }

let with_utility t utility = { t with utility }
