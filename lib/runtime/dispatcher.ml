open Lla_model

type work_model =
  | Wcet
  | Uniform_fraction of { lo : float }

type job_set = {
  task : Task.t;
  release_time : float;
  eligible_at : float Ids.Subtask_id.Tbl.t;
  remaining_preds : int Ids.Subtask_id.Tbl.t;
  mutable pending_leaves : int;
}

type release_window = {
  times : float array;  (* ring buffer of release times *)
  mutable count : int;
}

type t = {
  cluster : Cluster.t;
  work_model : work_model;
  rng : Lla_stdx.Rng.t;
  release_times : release_window Ids.Task_id.Tbl.t;
  mutable subtask_observers : (Ids.Subtask_id.t -> latency:float -> now:float -> unit) list;
  mutable task_observers : (Ids.Task_id.t -> latency:float -> now:float -> unit) list;
  mutable releases : int;
  mutable completions : int;
  mutable started : bool;
}

let create ?(work_model = Wcet) ~cluster () =
  (match work_model with
  | Uniform_fraction { lo } ->
    if lo <= 0. || lo > 1. then invalid_arg "Dispatcher.create: Uniform_fraction lo outside (0, 1]"
  | Wcet -> ());
  {
    cluster;
    work_model;
    rng = Lla_stdx.Rng.create ~seed:1;
    release_times = Ids.Task_id.Tbl.create 8;
    subtask_observers = [];
    task_observers = [];
    releases = 0;
    completions = 0;
    started = false;
  }

let on_subtask_completion t f = t.subtask_observers <- f :: t.subtask_observers

let on_task_completion t f = t.task_observers <- f :: t.task_observers

let releases t = t.releases

let completions t = t.completions

let in_flight t = t.releases - t.completions

let job_work t (s : Subtask.t) =
  match t.work_model with
  | Wcet -> s.exec_time
  | Uniform_fraction { lo } -> s.exec_time *. Lla_stdx.Rng.uniform t.rng ~lo ~hi:1.

let rec submit_subtask t job_set sid =
  let engine = Cluster.engine t.cluster in
  let now = Lla_sim.Engine.now engine in
  Ids.Subtask_id.Tbl.replace job_set.eligible_at sid now;
  let subtask = Workload.subtask (Cluster.workload t.cluster) sid in
  let work = job_work t subtask in
  Cluster.submit t.cluster sid ~work ~on_complete:(fun completion_time ->
      complete_subtask t job_set sid ~completion_time)

and complete_subtask t job_set sid ~completion_time =
  let latency = completion_time -. Ids.Subtask_id.Tbl.find job_set.eligible_at sid in
  List.iter (fun f -> f sid ~latency ~now:completion_time) t.subtask_observers;
  let graph = job_set.task.Task.graph in
  let successors = Graph.successors graph sid in
  if successors = [] then begin
    job_set.pending_leaves <- job_set.pending_leaves - 1;
    if job_set.pending_leaves = 0 then begin
      t.completions <- t.completions + 1;
      let task_latency = completion_time -. job_set.release_time in
      List.iter
        (fun f -> f job_set.task.Task.id ~latency:task_latency ~now:completion_time)
        t.task_observers
    end
  end
  else
    List.iter
      (fun next ->
        let remaining = Ids.Subtask_id.Tbl.find job_set.remaining_preds next - 1 in
        Ids.Subtask_id.Tbl.replace job_set.remaining_preds next remaining;
        if remaining = 0 then submit_subtask t job_set next)
      successors

let window_size = 32

let note_release t (task : Task.t) ~now =
  let w =
    match Ids.Task_id.Tbl.find_opt t.release_times task.Task.id with
    | Some w -> w
    | None ->
      let w = { times = Array.make window_size 0.; count = 0 } in
      Ids.Task_id.Tbl.replace t.release_times task.Task.id w;
      w
  in
  w.times.(w.count mod window_size) <- now;
  w.count <- w.count + 1

let measured_rate t tid =
  match Ids.Task_id.Tbl.find_opt t.release_times tid with
  | None -> None
  | Some w ->
    let n = Stdlib.min w.count window_size in
    if n < 2 then None
    else begin
      let newest = w.times.((w.count - 1) mod window_size) in
      let oldest = w.times.(w.count mod window_size) in
      let oldest = if w.count <= window_size then w.times.(0) else oldest in
      let span = newest -. oldest in
      if span <= 0. then None else Some (float_of_int (n - 1) /. span)
    end

let release_task t (task : Task.t) ~now =
  t.releases <- t.releases + 1;
  note_release t task ~now;
  let graph = task.Task.graph in
  let job_set =
    {
      task;
      release_time = now;
      eligible_at = Ids.Subtask_id.Tbl.create 8;
      remaining_preds = Ids.Subtask_id.Tbl.create 8;
      pending_leaves = List.length (Graph.leaves graph);
    }
  in
  List.iter
    (fun sid -> Ids.Subtask_id.Tbl.replace job_set.remaining_preds sid (Graph.in_degree graph sid))
    (Graph.nodes graph);
  submit_subtask t job_set (Graph.root graph)

let start t =
  if t.started then invalid_arg "Dispatcher.start: already started";
  t.started <- true;
  let engine = Cluster.engine t.cluster in
  let workload = Cluster.workload t.cluster in
  List.iter
    (fun (task : Task.t) ->
      let rng = Lla_stdx.Rng.split t.rng in
      let rec schedule_next ~after =
        let at = Trigger.next_arrival task.Task.trigger rng ~after in
        ignore
          (Lla_sim.Engine.schedule engine ~at (fun eng ->
               release_task t task ~now:(Lla_sim.Engine.now eng);
               schedule_next ~after:at))
      in
      schedule_next ~after:(Lla_sim.Engine.now engine))
    workload.Workload.tasks
