open Ids

let subtask_percentile ~task_percentile ~path_length =
  if task_percentile <= 0. || task_percentile > 100. then
    invalid_arg "Percentile_map.for_task: percentile outside (0, 100]";
  if path_length < 1 then invalid_arg "Percentile_map.for_task: path_length < 1";
  let n = float_of_int path_length in
  (* p^(1/n) * 100^((n-1)/n); equals 100 * (p/100)^(1/n). *)
  (task_percentile ** (1. /. n)) *. (100. ** ((n -. 1.) /. n))

let for_task (task : Task.t) =
  let p = task.Task.latency_percentile in
  (* Longest path through each graph node. *)
  let longest = Array.make (Graph.node_count task.Task.graph) 0 in
  for q = 0 to Task.n_paths task - 1 do
    let first = task.Task.path_off.(q) and last = task.Task.path_off.(q + 1) in
    for e = first to last - 1 do
      let i = task.Task.path_members.(e) in
      longest.(i) <- Stdlib.max longest.(i) (last - first)
    done
  done;
  List.fold_left
    (fun acc sid ->
      let len = longest.(Graph.index task.Task.graph sid) in
      Subtask_id.Map.add sid (subtask_percentile ~task_percentile:p ~path_length:len) acc)
    Subtask_id.Map.empty (Task.subtask_ids task)
