open Ids

type t = {
  tasks : Task.t list;
  resources : Resource.t list;
}

let ( let* ) = Result.bind

let make ~tasks ~resources =
  let* () = if tasks = [] then Error "workload: no tasks" else Ok () in
  let* () = if resources = [] then Error "workload: no resources" else Ok () in
  let* () =
    if Sorted.has_duplicate (Sorted.of_list (fun (t : Task.t) -> Task_id.to_int t.id) tasks) then
      Error "workload: duplicate task ids"
    else Ok ()
  in
  let resource_ids = Sorted.of_list (fun (r : Resource.t) -> Resource_id.to_int r.id) resources in
  let* () =
    if Sorted.has_duplicate resource_ids then Error "workload: duplicate resource ids" else Ok ()
  in
  let subtask_ids =
    Array.make (List.fold_left (fun n (t : Task.t) -> n + List.length t.subtasks) 0 tasks) 0
  in
  let fill = ref 0 in
  List.iter
    (fun (t : Task.t) ->
      List.iter
        (fun (s : Subtask.t) ->
          subtask_ids.(!fill) <- Subtask_id.to_int s.id;
          incr fill)
        t.subtasks)
    tasks;
  Sorted.sort subtask_ids;
  let* () =
    if Sorted.has_duplicate subtask_ids then Error "workload: subtask ids are not globally unique"
    else Ok ()
  in
  let undeclared (s : Subtask.t) = not (Sorted.mem resource_ids (Resource_id.to_int s.resource)) in
  let* () =
    match List.find_map (fun (t : Task.t) -> List.find_opt undeclared t.subtasks) tasks with
    | Some s ->
      Error
        (Printf.sprintf "workload: subtask %s uses undeclared resource %s" s.name
           (Resource_id.to_string s.resource))
    | None -> Ok ()
  in
  Ok { tasks; resources }

let make_exn ~tasks ~resources =
  match make ~tasks ~resources with
  | Ok t -> t
  | Error msg -> invalid_arg ("Workload.make: " ^ msg)

let task t id = List.find (fun (task : Task.t) -> Task_id.equal task.id id) t.tasks

let resource t id = List.find (fun (r : Resource.t) -> Resource_id.equal r.id id) t.resources

let subtasks t = List.concat_map (fun (task : Task.t) -> task.subtasks) t.tasks

let subtask t id = List.find (fun (s : Subtask.t) -> Subtask_id.equal s.id id) (subtasks t)

let owner t id =
  List.find
    (fun (task : Task.t) ->
      List.exists (fun (s : Subtask.t) -> Subtask_id.equal s.id id) task.subtasks)
    t.tasks

let subtasks_on t r =
  List.filter (fun (s : Subtask.t) -> Resource_id.equal s.resource r) (subtasks t)

let share_function t id =
  let s = subtask t id in
  let r = resource t s.resource in
  Subtask.share_function s ~lag:r.lag

let utilization t r =
  List.fold_left
    (fun acc (s : Subtask.t) ->
      let rate = Task.arrival_rate (owner t s.id) in
      acc +. (rate *. s.exec_time))
    0. (subtasks_on t r)

let min_share t id =
  let s = subtask t id in
  Task.arrival_rate (owner t id) *. s.exec_time

let total_utility t ~latency =
  List.fold_left (fun acc task -> acc +. Task.utility_value task ~latency) 0. t.tasks

let share_sum t r ~latency =
  List.fold_left
    (fun acc (s : Subtask.t) ->
      let share = share_function t s.id in
      acc +. share.Share.eval (latency s.id))
    0. (subtasks_on t r)

let constraint_violations t ~latency ~tolerance =
  let resource_violations =
    List.filter_map
      (fun (r : Resource.t) ->
        let used = share_sum t r.id ~latency in
        if used > r.availability *. (1. +. tolerance) then
          Some
            (Printf.sprintf "resource %s over capacity: share sum %.4f > B=%.4f" r.name used
               r.availability)
        else None)
      t.resources
  in
  let path_violations =
    List.concat_map
      (fun (task : Task.t) ->
        List.init (Task.n_paths task) (Task.path task)
        |> List.filter_map (fun path ->
               let lat = Graph.path_latency path ~latency in
               if lat > task.critical_time *. (1. +. tolerance) then
                 Some
                   (Printf.sprintf "task %s path [%s] misses critical time: %.2f > C=%.2f"
                      task.name
                      (String.concat " " (List.map Subtask_id.to_string path))
                      lat task.critical_time)
               else None))
      t.tasks
  in
  resource_violations @ path_violations

(* One pass over the subtasks. Each resource's sum takes its terms in the
   order [utilization] does, so the figures are the same to the bit. *)
let stats t =
  let n_resources = List.length t.resources in
  let index = Resource_id.Tbl.create n_resources in
  List.iteri (fun i (r : Resource.t) -> Resource_id.Tbl.replace index r.id i) t.resources;
  let utils = Array.make n_resources 0. and n_subtasks = ref 0 in
  List.iter
    (fun (task : Task.t) ->
      let rate = Task.arrival_rate task in
      List.iter
        (fun (s : Subtask.t) ->
          let i = Resource_id.Tbl.find index s.resource in
          utils.(i) <- utils.(i) +. (rate *. s.exec_time);
          incr n_subtasks)
        task.subtasks)
    t.tasks;
  let lo = Array.fold_left Float.min infinity utils
  and hi = Array.fold_left Float.max neg_infinity utils in
  Printf.sprintf "%d tasks, %d subtasks, %d resources, utilization %.2f..%.2f"
    (List.length t.tasks) !n_subtasks n_resources lo hi
