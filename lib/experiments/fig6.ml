type point = {
  n_tasks : int;
  critical_time_factor : float;
  converged_at : int option;
  utility : float;
  utility_per_task_normalized : float;
  series : Lla_stdx.Series.t;
}

type result = { points : point list }

let run ?(iterations = 2000) () =
  let points =
    List.map
      (fun n_copies ->
        let factor = if n_copies = 1 then 1.0 else 1.25 *. float_of_int n_copies in
        let workload =
          Lla_workloads.Paper_sim.scaled ~critical_time_factor:factor ~copies:n_copies ()
        in
        let solver = Lla.Solver.create workload in
        let converged_at = Lla.Solver.run_until_converged solver ~max_iterations:iterations in
        let utility = Lla.Solver.utility solver in
        let n_tasks = 3 * n_copies in
        {
          n_tasks;
          critical_time_factor = factor;
          converged_at;
          utility;
          utility_per_task_normalized = utility /. float_of_int n_tasks /. factor;
          series = Lla.Solver.utility_series solver;
        })
      [ 1; 2; 4 ]
  in
  { points }

let report r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Report.header "Figure 6 - scaling the number of tasks");
  Buffer.add_string buf
    (Report.series_block ~title:"total utility vs iteration"
       (List.map (fun p -> (Printf.sprintf "%d tasks" p.n_tasks, p.series)) r.points));
  let table =
    Lla_stdx.Table.create
      ~columns:
        [
          ("tasks", Lla_stdx.Table.Right);
          ("C factor", Lla_stdx.Table.Right);
          ("converged at", Lla_stdx.Table.Right);
          ("utility", Lla_stdx.Table.Right);
          ("utility/task/factor", Lla_stdx.Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Lla_stdx.Table.add_row table
        [
          string_of_int p.n_tasks;
          Lla_stdx.Table.cell_f p.critical_time_factor;
          (match p.converged_at with Some i -> string_of_int i | None -> "never");
          Lla_stdx.Table.cell_f p.utility;
          Lla_stdx.Table.cell_f p.utility_per_task_normalized;
        ])
    r.points;
  Buffer.add_string buf (Lla_stdx.Table.render table);
  Buffer.add_string buf
    "Paper shape: convergence speed independent of the task count; utility grows linearly\n\
     with the number of tasks (the normalized column stays flat).\n";
  Buffer.contents buf
