open Lla_model

let log = Logs.Src.create "lla.solver" ~doc:"LLA synchronous solver"

module Log = (val Logs.src_log log)


type config = { step_policy : Step_size.policy; record_shares : bool }

let default_config = { step_policy = Step_size.adaptive ~initial:1.0 (); record_shares = false }

(* Initial resource and path prices. *)
let mu0 = 1.0

let lambda0 = 0.0

(* Gauss-Seidel sweeps per allocation (non-linear utilities). *)
let sweeps = 2

(* Convergence: the utility's relative spread over [convergence_window]
   iterations stays below [convergence_tolerance] (the paper's prototype
   stops at "utility improvement below 1%"). *)
let convergence_tolerance = 0.01

let convergence_window = 50

(* Relative slack allowed on Eq. 3 and 4. *)
let feasibility_tolerance = 0.005

type obs_meters = {
  iterations_c : Lla_obs.Metrics.counter;
  guards_c : Lla_obs.Metrics.counter;
  utility_g : Lla_obs.Metrics.gauge;
}

type t = {
  problem : Problem.t;
  config : config;
  lat : float array;
  mu : float array;
  lambda : float array;
  offsets : float array;
  steps : Step_size.t;
  obs : Lla_obs.t option;
  meters : obs_meters option;
  mutable iteration : int;
  mutable guard_events : int;
      (* non-finite iterate components neutralized by the allocation and
         price-update guards; the first one logs a warning. *)
  utility_trace : Lla_stdx.Series.t;
  movement_trace : Lla_stdx.Series.t;
      (* max relative latency change per iteration: flat utilities can hide
         a price limit cycle from the utility spread, so convergence also
         requires the allocation itself to stop moving. *)
  prev_lat : float array;
  share_traces : Lla_stdx.Series.t array;
}

let create ?obs ?(config = default_config) workload =
  let problem = Problem.compile workload in
  let n = Problem.n_subtasks problem in
  let lat = Array.init n (fun i -> problem.subtasks.(i).lat_hi) in
  let share_traces =
    if config.record_shares then
      Array.init (Problem.n_resources problem) (fun _ -> Lla_stdx.Series.create ())
    else [||]
  in
  let meters =
    Option.map
      (fun (o : Lla_obs.t) ->
        {
          iterations_c =
            Lla_obs.Metrics.counter o.Lla_obs.metrics "lla_solver_iterations_total"
              ~help:"Synchronous solver iterations executed.";
          guards_c =
            Lla_obs.Metrics.counter o.Lla_obs.metrics "lla_solver_guard_events_total"
              ~help:"Non-finite iterate components neutralized by the solver guards.";
          utility_g =
            Lla_obs.Metrics.gauge o.Lla_obs.metrics "lla_solver_utility"
              ~help:"Total utility of the current allocation.";
        })
      obs
  in
  {
    problem;
    config;
    lat;
    mu = Array.make (Problem.n_resources problem) mu0;
    lambda = Array.make (Problem.n_paths problem) lambda0;
    offsets = Array.make n 0.;
    steps = Step_size.create problem config.step_policy;
    obs;
    meters;
    iteration = 0;
    guard_events = 0;
    utility_trace = Lla_stdx.Series.create ();
    movement_trace = Lla_stdx.Series.create ();
    prev_lat = Array.copy lat;
    share_traces;
  }

let problem t = t.problem

let iteration t = t.iteration

let utility t = Problem.total_utility t.problem ~lat:t.lat

(* Phase timing: a [None] obs (or a disabled profiler) reduces each hook
   to a branch around the phase body. *)
let prof t name f =
  match t.obs with Some o -> Lla_obs.Profile.time o.Lla_obs.profile name f | None -> f ()

let step t =
  prof t "solver.step" @@ fun () ->
  Array.blit t.lat 0 t.prev_lat 0 (Array.length t.lat);
  (* Trace time axis = iteration number, matching the utility series' x. *)
  let at = float_of_int (t.iteration + 1) in
  let guards = ref 0 in
  prof t "allocate" (fun () ->
      Allocation.allocate ?obs:t.obs ~at ~guards t.problem ~mu:t.mu ~lambda:t.lambda
        ~offsets:t.offsets ~sweeps:sweeps ~lat:t.lat);
  let congestion =
    prof t "price_update" (fun () ->
        Price_update.update ?obs:t.obs ~at t.problem ~lat:t.lat ~offsets:t.offsets ~steps:t.steps
          ~mu:t.mu ~lambda:t.lambda)
  in
  let guards = !guards + congestion.Price_update.guards in
  if guards > 0 then begin
    if t.guard_events = 0 then
      Log.warn (fun m ->
          m "iteration %d: %d non-finite iterate component(s) guarded — check inputs" t.iteration
            guards);
    t.guard_events <- t.guard_events + guards
  end;
  Step_size.observe t.steps ~congested_resources:congestion.Price_update.resources;
  t.iteration <- t.iteration + 1;
  Lla_stdx.Series.add t.utility_trace ~x:(float_of_int t.iteration) ~y:(utility t);
  let movement = ref 0. in
  Array.iteri
    (fun i lat ->
      movement := Float.max !movement (Float.abs (lat -. t.prev_lat.(i)) /. Float.max lat 1e-9))
    t.lat;
  Lla_stdx.Series.add t.movement_trace ~x:(float_of_int t.iteration) ~y:!movement;
  (match (t.obs, t.meters) with
  | Some o, Some m ->
    let u = utility t in
    Lla_obs.emit o ~at
      (Lla_obs.Trace.Iteration
         { iteration = t.iteration; utility = u; movement = !movement; guards });
    Lla_obs.Metrics.incr m.iterations_c;
    Lla_obs.Metrics.add m.guards_c guards;
    Lla_obs.Metrics.set m.utility_g u
  | _ -> ());
  if t.iteration mod 100 = 0 then
    Log.debug (fun m ->
        m "iteration %d: utility %.3f, movement %.2e, congested %d/%d resources" t.iteration
          (utility t) !movement
          (Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0
             congestion.Price_update.resources)
          (Array.length congestion.Price_update.resources));
  Array.iteri
    (fun r trace ->
      Lla_stdx.Series.add trace ~x:(float_of_int t.iteration)
        ~y:congestion.Price_update.share_sums.(r))
    t.share_traces

let run t ~iterations =
  for _ = 1 to iterations do
    step t
  done

let latency t id = t.lat.(Problem.subtask_index t.problem id)

let latencies t =
  Array.to_list (Array.mapi (fun i s -> (s.Problem.sid, t.lat.(i))) t.problem.subtasks)

let share t id =
  let i = Problem.subtask_index t.problem id in
  Problem.effective_share t.problem i ~lat:t.lat.(i) ~offset:t.offsets.(i)

let shares t =
  Array.to_list
    (Array.mapi
       (fun i s ->
         (s.Problem.sid, Problem.effective_share t.problem i ~lat:t.lat.(i) ~offset:t.offsets.(i)))
       t.problem.subtasks)

let utility_series t = t.utility_trace

let movement_series t = t.movement_trace

let share_series t =
  Array.to_list (Array.mapi (fun r trace -> (t.problem.resource_ids.(r), trace)) t.share_traces)

let critical_paths t =
  List.map
    (fun (task : Task.t) ->
      let latency_of id = latency t id in
      let path, cost = Task.critical_path task ~latency:latency_of in
      (task, path, cost))
    t.problem.workload.Workload.tasks

(* Constraint checks read the problem's capacity array (not the immutable
   workload) so that Solver.set_capacity is reflected. *)
let violations t =
  let tolerance = feasibility_tolerance in
  let resource_violations = ref [] in
  for r = Problem.n_resources t.problem - 1 downto 0 do
    let used = Problem.share_sum t.problem r ~lat:t.lat ~offsets:t.offsets in
    let cap = t.problem.Problem.capacities.(r) in
    if used > cap *. (1. +. tolerance) then
      resource_violations :=
        Printf.sprintf "resource %s over capacity: share sum %.4f > B=%.4f"
          (Ids.Resource_id.to_string t.problem.Problem.resource_ids.(r))
          used cap
        :: !resource_violations
  done;
  let path_violations = ref [] in
  for p = Problem.n_paths t.problem - 1 downto 0 do
    let info = t.problem.Problem.paths.(p) in
    let cost = Problem.path_latency t.problem p ~lat:t.lat in
    if cost > info.Problem.critical_time *. (1. +. tolerance) then
      path_violations :=
        Printf.sprintf "task %s path %d misses critical time: %.2f > C=%.2f"
          t.problem.Problem.tasks.(info.Problem.task).Problem.task_name info.Problem.index_in_task
          cost info.Problem.critical_time
        :: !path_violations
  done;
  !resource_violations @ !path_violations

let feasible t = violations t = []

(* Earliest iteration after which the utility stays within
   [convergence_tolerance] over every [convergence_window] span, with the
   allocation also still and the current point feasible. *)
let converged_at t =
  if not (feasible t) then None
  else begin
    match
      Lla_stdx.Series.converged_at t.utility_trace ~tolerance:convergence_tolerance
        ~window:convergence_window
    with
    | None -> None
    | Some settled ->
      (* The allocation itself must also have stopped moving over the
         trailing window (a flat utility can mask a price limit cycle). *)
      let ys = Lla_stdx.Series.ys t.movement_trace in
      let n = Array.length ys in
      let from = Stdlib.max 0 (n - convergence_window) in
      let still = ref true in
      for i = from to n - 1 do
        if ys.(i) > convergence_tolerance then still := false
      done;
      if !still then Some settled else None
  end

let run_until_converged t ~max_iterations =
  let batch = Stdlib.max 1 convergence_window in
  let rec loop () =
    if t.iteration >= max_iterations then converged_at t
    else begin
      run t ~iterations:(Stdlib.min batch (max_iterations - t.iteration));
      match converged_at t with Some i -> Some i | None -> loop ()
    end
  in
  loop ()

let set_capacity t id value =
  if value < 0. || value > 1. then invalid_arg "Solver.set_capacity: outside [0, 1]";
  Log.info (fun m -> m "capacity of %a set to %.3f" Ids.Resource_id.pp id value);
  t.problem.Problem.capacities.(Problem.resource_index t.problem id) <- value

let capacity t id = t.problem.Problem.capacities.(Problem.resource_index t.problem id)

let set_arrival_rate t tid rate =
  if rate < 0. then invalid_arg "Solver.set_arrival_rate: negative rate";
  let ti = Problem.task_index t.problem tid in
  Array.iter
    (fun i ->
      let s = t.problem.Problem.subtasks.(i) in
      let floor_share = rate *. s.Problem.exec in
      s.Problem.stability <-
        (if floor_share > 0. then s.Problem.share.Lla_model.Share.inverse floor_share
         else infinity))
    t.problem.Problem.tasks.(ti).Problem.subtask_indices

let set_offset t id value = t.offsets.(Problem.subtask_index t.problem id) <- value

let offset t id = t.offsets.(Problem.subtask_index t.problem id)

let lat_array t = t.lat

let mu_array t = t.mu

let lambda_array t = t.lambda
