open Lla_model

type t = Ids.Subtask_id.t -> float

let assignment_of_table table sid =
  match Ids.Subtask_id.Map.find_opt sid table with
  | Some lat -> lat
  | None -> invalid_arg "Slicing: unknown subtask"

let longest_path_length (task : Task.t) =
  let longest = ref 0 in
  for q = 0 to Task.n_paths task - 1 do
    longest := Stdlib.max !longest (task.Task.path_off.(q + 1) - task.Task.path_off.(q))
  done;
  !longest

let equal_slice (workload : Workload.t) =
  let table =
    List.fold_left
      (fun acc (task : Task.t) ->
        let slice = task.Task.critical_time /. float_of_int (longest_path_length task) in
        List.fold_left
          (fun acc (s : Subtask.t) -> Ids.Subtask_id.Map.add s.id slice acc)
          acc task.Task.subtasks)
      Ids.Subtask_id.Map.empty workload.Workload.tasks
  in
  assignment_of_table table

let wcet_of (task : Task.t) sid =
  match Task.find_subtask task sid with
  | Some s -> s.Subtask.exec_time
  | None -> invalid_arg "Slicing: subtask not in task"

let proportional_slice (workload : Workload.t) =
  let table =
    List.fold_left
      (fun acc (task : Task.t) ->
        let _, heaviest = Graph.critical_path task.Task.graph ~latency:(wcet_of task) in
        let scale = task.Task.critical_time /. heaviest in
        List.fold_left
          (fun acc (s : Subtask.t) -> Ids.Subtask_id.Map.add s.id (s.exec_time *. scale) acc)
          acc task.Task.subtasks)
      Ids.Subtask_id.Map.empty workload.Workload.tasks
  in
  assignment_of_table table

let laxity_slice (workload : Workload.t) =
  let table =
    List.fold_left
      (fun acc (task : Task.t) ->
        let path, heaviest = Graph.critical_path task.Task.graph ~latency:(wcet_of task) in
        let laxity = Float.max 0. (task.Task.critical_time -. heaviest) in
        let per_stage = laxity /. float_of_int (List.length path) in
        List.fold_left
          (fun acc (s : Subtask.t) -> Ids.Subtask_id.Map.add s.id (s.exec_time +. per_stage) acc)
          acc task.Task.subtasks)
      Ids.Subtask_id.Map.empty workload.Workload.tasks
  in
  assignment_of_table table

let utility workload assignment = Workload.total_utility workload ~latency:assignment

let respects_deadlines (workload : Workload.t) assignment =
  List.for_all
    (fun (task : Task.t) ->
      let _, cost = Graph.critical_path task.Task.graph ~latency:assignment in
      cost <= task.Task.critical_time *. (1. +. 1e-9))
    workload.Workload.tasks

let respects_resources (workload : Workload.t) assignment =
  List.for_all
    (fun (r : Resource.t) ->
      Workload.share_sum workload r.id ~latency:assignment <= r.availability +. 1e-9)
    workload.Workload.resources

let name_of = function
  | `Equal -> "equal-slice"
  | `Proportional -> "wcet-proportional"
  | `Laxity -> "laxity-distribution"

let get = function
  | `Equal -> equal_slice
  | `Proportional -> proportional_slice
  | `Laxity -> laxity_slice
