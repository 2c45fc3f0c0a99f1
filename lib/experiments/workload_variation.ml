open Lla_model

type result = {
  fast_share_series : Lla_stdx.Series.t;
  slow_share_series : Lla_stdx.Series.t;
  fast_share_before : float;
  fast_share_after : float;
  slow_share_before : float;
  slow_share_after : float;
  fast_floor_after : float;
  misses_after_switch : int;
  completions : int;
  backlog_bounded : bool;
}

let share_around series ~time =
  let xs, ys = Lla_stdx.Series.to_arrays series in
  let value = ref (if Array.length ys > 0 then ys.(0) else 0.) in
  Array.iteri (fun i x -> if x <= time then value := ys.(i)) xs;
  !value

let run ?(duration = 180_000.) ?(switch_at = 90_000.) () =
  let fast_period_after = 1000. /. 60. in
  let workload =
    Lla_workloads.Prototype.workload_with_rate_change ~switch_at ~fast_period_after ()
  in
  let optimizer =
    {
      Lla_runtime.Optimizer_loop.default_config with
      error_correction = `Enabled_at 20_000.;
      track_arrival_rates = true;
      iterations_per_round = 100;
    }
  in
  let config = { Lla_runtime.System.default_config with optimizer } in
  let system = Lla_runtime.System.create ~config workload in
  Lla_runtime.System.run system ~until:duration;
  let opt = Lla_runtime.System.optimizer system in
  let fast = Ids.Subtask_id.make 10 and slow = Ids.Subtask_id.make 30 in
  let fast_share_series = Lla_runtime.Optimizer_loop.share_trace opt fast in
  let slow_share_series = Lla_runtime.Optimizer_loop.share_trace opt slow in
  let misses, completions =
    List.fold_left
      (fun (m, c) (task : Task.t) ->
        ( m + Lla_runtime.System.deadline_misses system task.Task.id,
          c + (Lla_runtime.System.task_latency_stats system task.Task.id).Lla_stdx.Stats.n ))
      (0, 0) workload.Workload.tasks
  in
  let dispatcher = Lla_runtime.System.dispatcher system in
  {
    fast_share_series;
    slow_share_series;
    fast_share_before = share_around fast_share_series ~time:(switch_at -. 1.);
    fast_share_after = share_around fast_share_series ~time:duration;
    slow_share_before = share_around slow_share_series ~time:(switch_at -. 1.);
    slow_share_after = share_around slow_share_series ~time:duration;
    fast_floor_after = 5. /. fast_period_after;
    misses_after_switch = misses;
    completions;
    backlog_bounded = Lla_runtime.Dispatcher.in_flight dispatcher < 40;
  }

let report r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Report.header
       "Workload variation - fast tasks silently jump from 40/s to 60/s mid-run");
  Buffer.add_string buf
    (Report.series_block ~title:"enacted share vs time (rate change mid-run)"
       [ ("fast subtask", r.fast_share_series); ("slow subtask", r.slow_share_series) ]);
  Buffer.add_string buf
    (Printf.sprintf
       "fast share: %.3f -> %.3f (new stability floor %.3f)\nslow share: %.3f -> %.3f\n"
       r.fast_share_before r.fast_share_after r.fast_floor_after r.slow_share_before
       r.slow_share_after);
  Buffer.add_string buf
    (Printf.sprintf "deadline misses: %d of %d; backlog bounded at end: %b\n"
       r.misses_after_switch r.completions r.backlog_bounded);
  Buffer.add_string buf
    "The optimizer is never told about the rate change - it adapts from measured\n\
     inter-arrival times alone (Section 2's 'measured at runtime').\n";
  Buffer.contents buf
