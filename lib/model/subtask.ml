type t = {
  id : Ids.Subtask_id.t;
  name : string;
  task : Ids.Task_id.t;
  resource : Ids.Resource_id.t;
  exec_time : float;
  share_spec : Share.spec;
}

let make ?name ?(share_spec = Share.Reciprocal) ~id ~task ~resource ~exec_time () =
  if exec_time <= 0. then invalid_arg "Subtask.make: exec_time <= 0";
  let id = Ids.Subtask_id.make id in
  let name = match name with Some n -> n | None -> Ids.Subtask_id.to_string id in
  { id; name; task; resource = Ids.Resource_id.make resource; exec_time; share_spec }

let share_function t ~lag = Share.instantiate t.share_spec ~exec:t.exec_time ~lag
