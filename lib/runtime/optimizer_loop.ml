open Lla_model

let log = Logs.Src.create "lla.optimizer" ~doc:"LLA runtime optimizer actor"

module Log = (val Logs.src_log log)


type config = {
  iterations_per_round : int;
  error_correction : [ `Disabled | `Enabled_at of float ];
  correction_per_task_percentiles : bool;
  enact_threshold : float;
  track_arrival_rates : bool;
}

let default_config =
  {
    iterations_per_round = 50;
    error_correction = `Disabled;
    correction_per_task_percentiles = false;
    enact_threshold = 0.;
    track_arrival_rates = false;
  }

(* LLA iterations before the first enactment, and ms between rounds *)
let warmup_iterations = 2000

let period = 1000.

(* The flat sampling percentile of error correction (§6.3 uses > 90th
   percentile samples), and the samples a subtask needs before a
   correction round. *)
let correction_percentile = 95.

let correction_min_samples = 8

type t = {
  config : config;
  obs : Lla_obs.t option;
  cluster : Cluster.t;
  dispatcher : Dispatcher.t;
  solver : Lla.Solver.t;
  correctors : Lla.Error_correction.t Ids.Subtask_id.Tbl.t;
  share_traces : Lla_stdx.Series.t Ids.Subtask_id.Tbl.t;
  offset_traces : Lla_stdx.Series.t Ids.Subtask_id.Tbl.t;
  mutable rounds : int;
  mutable enactments : int;
  mutable skipped : int;
}

let create ?obs ?(config = default_config) ~cluster ~dispatcher () =
  let workload = Cluster.workload cluster in
  let solver = Lla.Solver.create ?obs workload in
  let correctors = Ids.Subtask_id.Tbl.create 32 in
  let share_traces = Ids.Subtask_id.Tbl.create 32 in
  let offset_traces = Ids.Subtask_id.Tbl.create 32 in
  let percentile_of =
    if config.correction_per_task_percentiles then begin
      let table = Ids.Subtask_id.Tbl.create 32 in
      List.iter
        (fun (task : Task.t) ->
          Ids.Subtask_id.Map.iter (Ids.Subtask_id.Tbl.replace table)
            (Percentile_map.for_task task))
        workload.Workload.tasks;
      fun sid -> Ids.Subtask_id.Tbl.find table sid
    end
    else fun _ -> correction_percentile
  in
  List.iter
    (fun (s : Subtask.t) ->
      Ids.Subtask_id.Tbl.replace correctors s.id
        (Lla.Error_correction.create ?obs ~name:s.name ~percentile:(percentile_of s.id) ());
      Ids.Subtask_id.Tbl.replace share_traces s.id
        (Lla_stdx.Series.create ());
      Ids.Subtask_id.Tbl.replace offset_traces s.id
        (Lla_stdx.Series.create ()))
    (Workload.subtasks workload);
  let t =
    {
      config;
      obs;
      cluster;
      dispatcher;
      solver;
      correctors;
      share_traces;
      offset_traces;
      rounds = 0;
      enactments = 0;
      skipped = 0;
    }
  in
  Dispatcher.on_subtask_completion dispatcher (fun sid ~latency ~now ->
      Lla.Error_correction.observe ~at:now
        (Ids.Subtask_id.Tbl.find t.correctors sid)
        ~measured_latency:latency);
  t

let solver t = t.solver

let share_trace t sid =
  match Ids.Subtask_id.Tbl.find_opt t.share_traces sid with
  | Some s -> s
  | None -> invalid_arg "Optimizer_loop.share_trace: unknown subtask"

let offset_trace t sid =
  match Ids.Subtask_id.Tbl.find_opt t.offset_traces sid with
  | Some s -> s
  | None -> invalid_arg "Optimizer_loop.offset_trace: unknown subtask"

let offset t sid = Lla.Solver.offset t.solver sid

let correction_active t ~now =
  match t.config.error_correction with `Disabled -> false | `Enabled_at at -> now >= at

(* One correction pass: compare each subtask's measured high-percentile
   latency with the *uncorrected* model prediction at the share currently
   enacted, and smooth the difference into the solver's offset (§6.3). *)
let apply_corrections t ~now =
  let workload = Cluster.workload t.cluster in
  Ids.Subtask_id.Tbl.iter
    (fun sid corrector ->
      let enacted = Cluster.share t.cluster sid in
      if
        enacted > 0.
        && Lla.Error_correction.sample_count corrector >= correction_min_samples
      then begin
        let share_fn = Workload.share_function workload sid in
        let predicted = share_fn.Share.inverse enacted in
        match Lla.Error_correction.correct ~at:now corrector ~predicted with
        | Some new_offset -> Lla.Solver.set_offset t.solver sid new_offset
        | None -> ()
      end)
    t.correctors

let enact t ~now =
  List.iter
    (fun (sid, share) ->
      let current = Cluster.share t.cluster sid in
      let significant =
        current <= 0.
        || Float.abs (share -. current) /. current > t.config.enact_threshold
      in
      if significant then begin
        Cluster.set_share t.cluster sid share;
        t.enactments <- t.enactments + 1
      end
      else t.skipped <- t.skipped + 1;
      (* Traces record what is enacted on the scheduler. *)
      Lla_stdx.Series.add
        (Ids.Subtask_id.Tbl.find t.share_traces sid)
        ~x:now
        ~y:(Cluster.share t.cluster sid);
      Lla_stdx.Series.add
        (Ids.Subtask_id.Tbl.find t.offset_traces sid)
        ~x:now
        ~y:(Lla.Solver.offset t.solver sid))
    (Lla.Solver.shares t.solver)

let enactments t = t.enactments

let skipped_enactments t = t.skipped

let apply_rate_measurements t =
  List.iter
    (fun (task : Task.t) ->
      match Dispatcher.measured_rate t.dispatcher task.Task.id with
      | Some rate -> Lla.Solver.set_arrival_rate t.solver task.Task.id rate
      | None -> ())
    (Cluster.workload t.cluster).Workload.tasks

let prof t name f =
  match t.obs with Some o -> Lla_obs.Profile.time o.Lla_obs.profile name f | None -> f ()

let round t ~now =
  prof t "optimizer.round" @@ fun () ->
  if t.config.track_arrival_rates then apply_rate_measurements t;
  if correction_active t ~now then prof t "corrections" (fun () -> apply_corrections t ~now);
  prof t "solve" (fun () ->
      Lla.Solver.run t.solver ~iterations:t.config.iterations_per_round);
  t.rounds <- t.rounds + 1;
  prof t "enact" (fun () -> enact t ~now);
  Log.debug (fun m ->
      m "round %d at t=%.0fms: utility %.3f, %d enactments (%d suppressed)" t.rounds now
        (Lla.Solver.utility t.solver) t.enactments t.skipped)

let start t =
  let core = Cluster.engine t.cluster in
  ignore (Lla.Solver.run_until_converged t.solver ~max_iterations:warmup_iterations);
  enact t ~now:(Lla_sim.Engine.now core);
  let rec tick () =
    ignore
      (Lla_sim.Engine.schedule_after core ~delay:period (fun eng ->
           round t ~now:(Lla_sim.Engine.now eng);
           tick ()))
  in
  tick ()
