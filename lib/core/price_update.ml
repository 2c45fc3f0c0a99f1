type congestion = {
  resources : bool array;
  paths : bool array;
  share_sums : float array;
  path_latencies : float array;
  guards : int;
}

let resource_step ~mu ~gamma ~capacity ~used =
  Float.max 0. (mu -. (gamma *. (capacity -. used)))

let path_step ~lambda ~gamma ~latency ~critical_time =
  Float.max 0. (lambda -. (gamma *. (1. -. (latency /. critical_time))))

(* Dual ascent is defenceless against a poisoned iterate: one NaN latency
   makes a share sum NaN, and [max 0 nan = nan] then keeps the price NaN
   forever. Both update functions therefore never *write* a non-finite
   value — a non-finite observation (or an externally poisoned price)
   leaves the multiplier at its last finite value (healing an already
   non-finite one to the projection at 0); {!update} counts these events
   in [congestion.guards]. *)
let update_resource (problem : Problem.t) r ~lat ~offsets ~gamma ~mu =
  if not (Float.is_finite mu.(r)) then mu.(r) <- 0.;
  let used = Problem.share_sum problem r ~lat ~offsets in
  if Float.is_finite used then begin
    let next = resource_step ~mu:mu.(r) ~gamma ~capacity:problem.capacities.(r) ~used in
    if Float.is_finite next then mu.(r) <- next
  end;
  used

let update_path (problem : Problem.t) p ~lat ~gamma ~lambda =
  if not (Float.is_finite lambda.(p)) then lambda.(p) <- 0.;
  let latency = Problem.path_latency problem p ~lat in
  if Float.is_finite latency then begin
    let next =
      path_step ~lambda:lambda.(p) ~gamma ~latency ~critical_time:problem.paths.(p).critical_time
    in
    if Float.is_finite next then lambda.(p) <- next
  end;
  latency

(* Heal well below the watchdog's divergence threshold: a price that is
   finite but orders of magnitude above the dual scale (chaos campaigns
   found mu = 1e4 with mu_cap = 1e6) decays only by ~gamma per round, so
   it cannot recover within a safe-mode dwell and poisons every
   re-entered optimization — permanent enter/exit thrash. *)
let heal_resource_price ~mu_cap ~mu0 mu =
  if (not (Float.is_finite mu)) || mu > Float.min mu_cap (1_000. *. Float.max 1. mu0) then mu0
  else mu

let update ?obs ?(at = 0.) problem ~lat ~offsets ~steps ~mu ~lambda =
  let n_r = Problem.n_resources problem and n_p = Problem.n_paths problem in
  let share_sums = Array.make n_r 0. and path_latencies = Array.make n_p 0. in
  let resources = Array.make n_r false and paths = Array.make n_p false in
  let guards = ref 0 in
  let guard site =
    incr guards;
    Lla_obs.emit_opt obs ~at (Lla_obs.Trace.Guard_fired { site })
  in
  for r = 0 to n_r - 1 do
    if not (Float.is_finite mu.(r)) then guard "price_update.mu";
    let gamma = Step_size.resource_gamma steps r in
    let used = update_resource problem r ~lat ~offsets ~gamma ~mu in
    if not (Float.is_finite used) then guard "price_update.share_sum";
    share_sums.(r) <- used;
    (* A NaN comparison is false, so a guarded resource reads uncongested. *)
    resources.(r) <- used > problem.capacities.(r) +. 1e-12;
    (match obs with
    | None -> ()
    | Some o ->
      Lla_obs.emit o ~at
        (Lla_obs.Trace.Price_updated
           {
             resource = r;
             mu = mu.(r);
             step = gamma;
             share_sum = used;
             capacity = problem.capacities.(r);
             congested = resources.(r);
           }))
  done;
  for p = 0 to n_p - 1 do
    if not (Float.is_finite lambda.(p)) then guard "price_update.lambda";
    let gamma = Step_size.path_gamma steps p in
    let latency = update_path problem p ~lat ~gamma ~lambda in
    if not (Float.is_finite latency) then guard "price_update.path_latency";
    path_latencies.(p) <- latency;
    paths.(p) <- latency > problem.paths.(p).critical_time +. 1e-12;
    (match obs with
    | None -> ()
    | Some o ->
      Lla_obs.emit o ~at
        (Lla_obs.Trace.Path_price_updated
           {
             path = p;
             lambda = lambda.(p);
             step = gamma;
             latency;
             critical_time = problem.paths.(p).critical_time;
           }))
  done;
  { resources; paths; share_sums; path_latencies; guards = !guards }
