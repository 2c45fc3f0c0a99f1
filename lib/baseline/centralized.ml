open Lla_model

type result = {
  latencies : float Ids.Subtask_id.Map.t;
  utility : float;
  iterations : int;
  kkt_worst : float;
}

let solve ?(iterations = 20000) workload =
  let problem = Lla.Problem.compile workload in
  let n = Lla.Problem.n_subtasks problem in
  let lat = Array.init n (fun i -> problem.subtasks.(i).lat_hi) in
  let mu = Array.make (Lla.Problem.n_resources problem) 1. in
  let lambda = Array.make (Lla.Problem.n_paths problem) 0. in
  let offsets = Array.make n 0. in
  (* Classic diminishing-step dual ascent: guaranteed convergence for the
     convex program, at the cost of speed LLA gets from adaptive steps. *)
  for k = 1 to iterations do
    Lla.Allocation.allocate problem ~mu ~lambda ~offsets ~sweeps:2 ~lat;
    let gamma = 2. /. sqrt (float_of_int k) in
    for r = 0 to Lla.Problem.n_resources problem - 1 do
      ignore (Lla.Price_update.update_resource problem r ~lat ~offsets ~gamma ~mu)
    done;
    for p = 0 to Lla.Problem.n_paths problem - 1 do
      ignore (Lla.Price_update.update_path problem p ~lat ~gamma ~lambda)
    done
  done;
  Lla.Allocation.allocate problem ~mu ~lambda ~offsets ~sweeps:4 ~lat;
  let residuals = Lla.Kkt.residuals problem ~lat ~mu ~lambda ~offsets in
  let latencies =
    Array.to_list problem.subtasks
    |> List.mapi (fun i (s : Lla.Problem.subtask) -> (s.sid, lat.(i)))
    |> List.fold_left (fun acc (sid, l) -> Ids.Subtask_id.Map.add sid l acc)
         Ids.Subtask_id.Map.empty
  in
  {
    latencies;
    utility = Lla.Problem.total_utility problem ~lat;
    iterations;
    kkt_worst = Lla.Kkt.worst residuals;
  }

let assignment result sid =
  match Ids.Subtask_id.Map.find_opt sid result.latencies with
  | Some l -> l
  | None -> invalid_arg "Centralized.assignment: unknown subtask"
