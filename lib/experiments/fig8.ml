open Lla_model

type result = {
  fast_share_series : Lla_stdx.Series.t;
  slow_share_series : Lla_stdx.Series.t;
  fast_error_series : Lla_stdx.Series.t;
  shares : (string * float * float) list;
  fast_change_percent : float;
  slow_change_percent : float;
  deadline_misses : int;
  completions : int;
  measured_utility : Lla_stdx.Series.t;
}

let share_around series ~time =
  (* Last enacted share at or before [time]. *)
  let xs, ys = Lla_stdx.Series.to_arrays series in
  let value = ref (if Array.length ys > 0 then ys.(0) else 0.) in
  Array.iteri (fun i x -> if x <= time then value := ys.(i)) xs;
  !value

let run ?(duration = 120_000.) ?(enable_correction_at = 60_000.) () =
  let workload = Lla_workloads.Prototype.workload () in
  let optimizer =
    {
      Lla_runtime.Optimizer_loop.default_config with
      error_correction = `Enabled_at enable_correction_at;
      iterations_per_round = 100;
    }
  in
  let config =
    {
      Lla_runtime.System.default_config with
      scheduler = Lla_sched.Scheduler.Sfs { quantum = 1.0 };
      optimizer;
    }
  in
  let system = Lla_runtime.System.create ~config workload in
  Lla_runtime.System.run system ~until:duration;
  let opt = Lla_runtime.System.optimizer system in
  (* Representative subtasks, as in the paper's figure: the first stage of
     a fast and of a slow task. *)
  let fast = Ids.Subtask_id.make 10 and slow = Ids.Subtask_id.make 30 in
  let fast_share_series = Lla_runtime.Optimizer_loop.share_trace opt fast in
  let slow_share_series = Lla_runtime.Optimizer_loop.share_trace opt slow in
  let before = enable_correction_at -. 1. and at_end = duration in
  let fast_before = share_around fast_share_series ~time:before in
  let fast_after = share_around fast_share_series ~time:at_end in
  let slow_before = share_around slow_share_series ~time:before in
  let slow_after = share_around slow_share_series ~time:at_end in
  let paper label = List.assoc label Lla_workloads.Prototype.reported_shares in
  let misses, completions =
    List.fold_left
      (fun (m, c) (task : Task.t) ->
        ( m + Lla_runtime.System.deadline_misses system task.Task.id,
          c + (Lla_runtime.System.task_latency_stats system task.Task.id).Lla_stdx.Stats.n ))
      (0, 0) workload.Workload.tasks
  in
  {
    fast_share_series;
    slow_share_series;
    fast_error_series = Lla_runtime.Optimizer_loop.offset_trace opt fast;
    shares =
      [
        ("fast-before", paper "fast-before", fast_before);
        ("fast-after", paper "fast-after", fast_after);
        ("slow-before", paper "slow-before", slow_before);
        ("slow-after", paper "slow-after", slow_after);
      ];
    fast_change_percent = 100. *. (fast_after -. fast_before) /. fast_before;
    slow_change_percent = 100. *. (slow_after -. slow_before) /. slow_before;
    deadline_misses = misses;
    completions;
    measured_utility = Lla_runtime.System.measured_utility_series system;
  }

let report r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Report.header "Figure 8 - prototype emulation with online model error correction");
  Buffer.add_string buf
    (Report.series_block ~title:"enacted share vs time (ms); correction enabled mid-run"
       [ ("fast subtask", r.fast_share_series); ("slow subtask", r.slow_share_series) ]);
  Buffer.add_string buf
    (Report.series_block ~title:"smoothed model error (ms) of the fast subtask"
       [ ("error", r.fast_error_series) ]);
  Buffer.add_string buf "Share levels (paper's Figure 8 annotations):\n";
  Buffer.add_string buf (Report.paper_vs_measured ~rows:r.shares ());
  Buffer.add_string buf
    (Printf.sprintf
       "Share change from error correction: fast %+.0f%% (paper -23%%), slow %+.0f%% (paper +32%%)\n"
       r.fast_change_percent r.slow_change_percent);
  Buffer.add_string buf
    (Printf.sprintf "Deadline misses: %d of %d job sets\n" r.deadline_misses r.completions);
  Buffer.contents buf
