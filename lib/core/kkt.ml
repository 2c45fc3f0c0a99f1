open Lla_model

type residuals = {
  stationarity : float;
  primal_resource : float;
  primal_path : float;
  complementary_resource : float;
  complementary_path : float;
}

let residuals (problem : Problem.t) ~lat ~mu ~lambda ~offsets =
  let stationarity = ref 0. in
  Array.iteri
    (fun i (s : Problem.subtask) ->
      let info = problem.tasks.(s.task) in
      let agg = Problem.aggregate_latency problem s.task ~lat in
      let lsum = Array.fold_left (fun acc p -> acc +. lambda.(p)) 0. s.paths in
      let arg = Float.max s.share.Share.lat_min (lat.(i) -. offsets.(i)) in
      let g =
        (info.utility.Utility.df agg *. s.weight) -. lsum
        -. (mu.(s.resource) *. s.share.Share.deval arg)
      in
      let lo, hi = Allocation.effective_bounds problem i ~offset:offsets.(i) in
      let slack_lo = lat.(i) -. lo <= 1e-6 *. Float.max 1. lo in
      let slack_hi = hi -. lat.(i) <= 1e-6 *. Float.max 1. hi in
      (* Interior: g = 0. At the lower bound the gradient may push down
         (g <= 0); at the upper bound it may push up (g >= 0). *)
      let r =
        if slack_lo && slack_hi then 0.
        else if slack_lo then Float.max 0. g
        else if slack_hi then Float.max 0. (-.g)
        else Float.abs g
      in
      (* Normalize by the price scale so residuals are comparable across
         problems. *)
      let scale = Float.max 1. (lsum +. mu.(s.resource)) in
      stationarity := Float.max !stationarity (r /. scale))
    problem.subtasks;
  let primal_resource = ref 0. and complementary_resource = ref 0. in
  for r = 0 to Problem.n_resources problem - 1 do
    let used = Problem.share_sum problem r ~lat ~offsets in
    let cap = problem.capacities.(r) in
    let rel_slack = (cap -. used) /. Float.max cap 1e-9 in
    primal_resource := Float.max !primal_resource (Float.max 0. (-.rel_slack));
    complementary_resource :=
      Float.max !complementary_resource (mu.(r) *. Float.max 0. rel_slack /. Float.max 1. mu.(r))
  done;
  let primal_path = ref 0. and complementary_path = ref 0. in
  for p = 0 to Problem.n_paths problem - 1 do
    let info = problem.paths.(p) in
    let latency = Problem.path_latency problem p ~lat in
    let rel_slack = (info.critical_time -. latency) /. info.critical_time in
    primal_path := Float.max !primal_path (Float.max 0. (-.rel_slack));
    complementary_path :=
      Float.max !complementary_path
        (lambda.(p) *. Float.max 0. rel_slack /. Float.max 1. lambda.(p))
  done;
  {
    stationarity = !stationarity;
    primal_resource = !primal_resource;
    primal_path = !primal_path;
    complementary_resource = !complementary_resource;
    complementary_path = !complementary_path;
  }

let of_solver solver =
  residuals (Solver.problem solver) ~lat:(Solver.lat_array solver) ~mu:(Solver.mu_array solver)
    ~lambda:(Solver.lambda_array solver)
    ~offsets:
      (Array.map
         (fun (s : Problem.subtask) -> Solver.offset solver s.sid)
         (Solver.problem solver).subtasks)

let worst r =
  List.fold_left Float.max 0.
    [
      r.stationarity;
      r.primal_resource;
      r.primal_path;
      r.complementary_resource;
      r.complementary_path;
    ]
