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
  (* Longest path through each subtask. *)
  let longest = Subtask_id.Tbl.create 16 in
  Array.iter
    (fun path ->
      let len = List.length path in
      List.iter
        (fun sid ->
          match Subtask_id.Tbl.find_opt longest sid with
          | Some best when best >= len -> ()
          | _ -> Subtask_id.Tbl.replace longest sid len)
        path)
    task.Task.paths;
  List.fold_left
    (fun acc sid ->
      let len = Subtask_id.Tbl.find longest sid in
      Subtask_id.Map.add sid (subtask_percentile ~task_percentile:p ~path_length:len) acc)
    Subtask_id.Map.empty (Task.subtask_ids task)
