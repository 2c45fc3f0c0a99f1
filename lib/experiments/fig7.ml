open Lla_model

type result = {
  verdict : Lla.Schedulability.verdict;
  utility_series : Lla_stdx.Series.t;
  share_series : (string * Lla_stdx.Series.t) list;
  overrun_range : float * float;
  capacity_overrun_range : float * float;
  schedulable_control : bool;
}

let run ?(iterations = 500) () =
  let workload = Lla_workloads.Paper_sim.unschedulable_six () in
  let config =
    {
      Lla.Solver.step_policy = Lla.Step_size.adaptive ~initial:1.0 ~cap:1e6 ();
      record_shares = true;
    }
  in
  let solver = Lla.Solver.create ~config workload in
  Lla.Solver.run solver ~iterations;
  let ratios =
    List.map
      (fun ((task : Task.t), _, cost) -> cost /. task.Task.critical_time)
      (Lla.Solver.critical_paths solver)
  in
  let overrun_range =
    ( List.fold_left Float.min infinity ratios,
      List.fold_left Float.max neg_infinity ratios )
  in
  let capacity_ratios =
    List.map
      (fun (r : Resource.t) ->
        let latency sid = Lla.Solver.latency solver sid in
        Workload.share_sum workload r.id ~latency /. r.availability)
      workload.Workload.resources
  in
  let capacity_overrun_range =
    ( List.fold_left Float.min infinity capacity_ratios,
      List.fold_left Float.max neg_infinity capacity_ratios )
  in
  let verdict = Lla.Schedulability.probe ~config ~iterations workload in
  let control =
    Lla.Schedulability.probe ~iterations:2000
      (Lla_workloads.Paper_sim.scaled ~copies:2 ())
  in
  {
    verdict;
    utility_series = Lla.Solver.utility_series solver;
    share_series =
      List.map
        (fun (rid, s) -> (Ids.Resource_id.to_string rid, s))
        (Lla.Solver.share_series solver);
    overrun_range;
    capacity_overrun_range;
    schedulable_control = Lla.Schedulability.is_schedulable control;
  }

let report r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Report.header "Figure 7 - schedulability probe (6 tasks, original critical times)");
  Format.kasprintf (Buffer.add_string buf) "Verdict: %a@." Lla.Schedulability.pp r.verdict;
  Buffer.add_string buf
    (Report.series_block ~title:"total utility vs iteration" [ ("utility", r.utility_series) ]);
  Buffer.add_string buf
    (Report.series_block ~title:"share sum per resource vs iteration"
       (List.filteri (fun i _ -> i < 4) r.share_series));
  let lo, hi = r.overrun_range in
  Buffer.add_string buf
    (Printf.sprintf "Critical-path overrun ratios at end of run: %.2f..%.2fx (paper: 1.75..2.41x)\n"
       lo hi);
  let clo, chi = r.capacity_overrun_range in
  Buffer.add_string buf
    (Printf.sprintf "Resource share-sum / availability ratios:   %.2f..%.2fx\n" clo chi);
  Buffer.add_string buf
    (Printf.sprintf
       "Control: the same 6 tasks with over-provisioned critical times converge: %b\n"
       r.schedulable_control);
  Buffer.contents buf
