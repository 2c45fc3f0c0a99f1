open Lla_model

type phase = {
  phase_name : string;
  start_iteration : int;
  capacity : float;
  reconverged_at : int option;
  utility : float;
  feasible : bool;
}

type result = {
  resource : string;
  phases : phase list;
  series : Lla_stdx.Series.t;
}

let run ?(iterations_per_phase = 1500) () =
  (* The paper's base workload is engineered so that critical paths sit
     exactly at the critical times — any capacity loss there is
     unschedulable by construction. Adaptation needs headroom, so the
     critical times are relaxed by 50%. *)
  let workload = Lla_workloads.Paper_sim.scaled ~copies:1 ~critical_time_factor:1.5 () in
  let solver = Lla.Solver.create workload in
  let rid = Ids.Resource_id.make 4 in
  let original = Lla.Solver.capacity solver rid in
  let run_phase phase_name capacity =
    let start_iteration = Lla.Solver.iteration solver in
    Lla.Solver.set_capacity solver rid capacity;
    Lla.Solver.run solver ~iterations:iterations_per_phase;
    (* Re-convergence within this phase: the utility spread settles after
       the perturbation. *)
    let series = Lla.Solver.utility_series solver in
    let reconverged_at =
      match Lla_stdx.Series.converged_at series ~tolerance:0.01 ~window:50 with
      | Some i when i >= start_iteration -> Some i
      | Some _ | None ->
        (* the settle point may predate the phase if the perturbation was
           absorbed instantly; treat that as immediate re-convergence. *)
        if Lla.Solver.feasible solver then Some start_iteration else None
    in
    {
      phase_name;
      start_iteration;
      capacity;
      reconverged_at;
      utility = Lla.Solver.utility solver;
      feasible = Lla.Solver.feasible solver;
    }
  in
  (* Sequential lets: OCaml evaluates list elements right to left, and the
     phases are stateful. *)
  let nominal = run_phase "nominal" original in
  let degraded = run_phase "degraded" (original *. 0.75) in
  let recovered = run_phase "recovered" original in
  let phases = [ nominal; degraded; recovered ] in
  { resource = Ids.Resource_id.to_string rid; phases; series = Lla.Solver.utility_series solver }

let report r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Report.header
       (Printf.sprintf "Adaptation - capacity of %s drops and recovers while LLA keeps running"
          r.resource));
  Buffer.add_string buf
    (Report.series_block ~title:"total utility vs iteration (three capacity phases)"
       [ ("utility", r.series) ]);
  let table =
    Lla_stdx.Table.create
      ~columns:
        [
          ("phase", Lla_stdx.Table.Left);
          ("B_r", Lla_stdx.Table.Right);
          ("starts at", Lla_stdx.Table.Right);
          ("reconverged at", Lla_stdx.Table.Right);
          ("utility", Lla_stdx.Table.Right);
          ("feasible", Lla_stdx.Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Lla_stdx.Table.add_row table
        [
          p.phase_name;
          Lla_stdx.Table.cell_f ~decimals:3 p.capacity;
          string_of_int p.start_iteration;
          (match p.reconverged_at with Some i -> string_of_int i | None -> "never");
          Lla_stdx.Table.cell_f p.utility;
          string_of_bool p.feasible;
        ])
    r.phases;
  Buffer.add_string buf (Lla_stdx.Table.render table);
  Buffer.add_string buf
    "Losing capacity lowers the achievable utility; recovering it restores the original\n\
     optimum. No restart, no re-provisioning: prices re-adjust online.\n";
  Buffer.contents buf
