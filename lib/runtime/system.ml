open Lla_model

type config = {
  scheduler : Lla_sched.Scheduler.kind;
  optimizer : Optimizer_loop.config;
  work_model : Dispatcher.work_model;
}

let default_config =
  {
    scheduler = Lla_sched.Scheduler.Sfs { quantum = 1.0 };
    optimizer = Optimizer_loop.default_config;
    work_model = Dispatcher.Wcet;
  }

(* per-task window for measured latency percentiles *)
let latency_window = 512

type task_measurement = {
  window : Lla_stdx.Percentile.Window.t;
  stats : Lla_stdx.Stats.t;
  mutable misses : int;
}

type t = {
  config : config;
  workload : Workload.t;
  engine : Lla_sim.Engine.t;
  cluster : Cluster.t;
  dispatcher : Dispatcher.t;
  optimizer : Optimizer_loop.t;
  measurements : task_measurement Ids.Task_id.Tbl.t;
  utility_trace : Lla_stdx.Series.t;
  mutable started : bool;
  mutable horizon : float;
}

let measured_utility t =
  (* Evaluate each task's utility at its windowed latency percentile; a
     task with no samples yet contributes its utility at latency 0. *)
  List.fold_left
    (fun acc (task : Task.t) ->
      let m = Ids.Task_id.Tbl.find t.measurements task.Task.id in
      let latency =
        match
          Lla_stdx.Percentile.Window.percentile m.window ~p:task.Task.latency_percentile
        with
        | Some l -> l
        | None -> 0.
      in
      acc +. task.Task.utility.Utility.f latency)
    0. t.workload.Workload.tasks

let create ?(config = default_config) workload =
  let engine = Lla_sim.Engine.create () in
  let cluster = Cluster.create ~kind:config.scheduler engine workload in
  let dispatcher = Dispatcher.create ~work_model:config.work_model ~cluster () in
  let optimizer = Optimizer_loop.create ~config:config.optimizer ~cluster ~dispatcher () in
  let measurements = Ids.Task_id.Tbl.create 8 in
  List.iter
    (fun (task : Task.t) ->
      Ids.Task_id.Tbl.replace measurements task.Task.id
        {
          window = Lla_stdx.Percentile.Window.create ~capacity:latency_window;
          stats = Lla_stdx.Stats.create ();
          misses = 0;
        })
    workload.Workload.tasks;
  let t =
    {
      config;
      workload;
      engine;
      cluster;
      dispatcher;
      optimizer;
      measurements;
      utility_trace = Lla_stdx.Series.create ();
      started = false;
      horizon = 0.;
    }
  in
  Dispatcher.on_task_completion dispatcher (fun tid ~latency ~now:_ ->
      let m = Ids.Task_id.Tbl.find t.measurements tid in
      Lla_stdx.Percentile.Window.add m.window latency;
      Lla_stdx.Stats.add m.stats latency;
      let task = Workload.task t.workload tid in
      if latency > task.Task.critical_time then m.misses <- m.misses + 1);
  t

let rec sample_utility t =
  ignore
    (Lla_sim.Engine.schedule_after t.engine ~delay:Optimizer_loop.period
       (fun eng ->
         if Lla_sim.Engine.now eng <= t.horizon then
           Lla_stdx.Series.add t.utility_trace ~x:(Lla_sim.Engine.now eng) ~y:(measured_utility t);
         sample_utility t))

let run t ~until =
  t.horizon <- until;
  if not t.started then begin
    t.started <- true;
    Dispatcher.start t.dispatcher;
    Optimizer_loop.start t.optimizer;
    sample_utility t
  end;
  Lla_sim.Engine.run_until t.engine until

let cluster t = t.cluster

let dispatcher t = t.dispatcher

let optimizer t = t.optimizer

let measured_task_latency t tid ~p =
  let m = Ids.Task_id.Tbl.find t.measurements tid in
  Lla_stdx.Percentile.Window.percentile m.window ~p

let task_latency_stats t tid =
  let m = Ids.Task_id.Tbl.find t.measurements tid in
  Lla_stdx.Stats.summary m.stats

let deadline_misses t tid = (Ids.Task_id.Tbl.find t.measurements tid).misses

let measured_utility_series t = t.utility_trace
