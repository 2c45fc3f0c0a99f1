open Lla_model

let effective_bounds (problem : Problem.t) i ~offset =
  (* A poisoned error-correction offset would turn both bounds NaN and the
     clamp useless; treat it as "no correction". *)
  let offset = if Float.is_finite offset then offset else 0. in
  let s = problem.subtasks.(i) in
  let critical_time = problem.tasks.(s.task).critical_time in
  let lo = Float.max 1e-9 (s.lat_lo +. offset) in
  let hi = Float.max lo (Float.min (s.stability +. offset) critical_time) in
  (lo, hi)

let lambda_sum (problem : Problem.t) i ~lambda =
  let s = problem.subtasks.(i) in
  Array.fold_left (fun acc p -> acc +. lambda.(p)) 0. s.paths

(* Closed form for a constant utility slope [slope] (<= 0):
   mu * (c + l) / (lat - offset)^2 = |slope| * w + lambda_sum. *)
let closed_form (problem : Problem.t) i ~mu_r ~lsum ~slope ~offset =
  let s = problem.subtasks.(i) in
  let lo, hi = effective_bounds problem i ~offset in
  let pressure = (Float.abs slope *. s.weight) +. lsum in
  if mu_r <= 0. then
    (* The resource is free: shrink latency as far as the bounds allow. *)
    if pressure > 0. then lo else hi
  else if pressure <= 0. then hi
  else begin
    (* Share.lat_min is exactly (c + l) for the reciprocal model; this
       branch only runs for reciprocal shares (see [reciprocal_share]). *)
    let work = s.share.Share.lat_min in
    let lat = offset +. sqrt (mu_r *. work /. pressure) in
    Lla_numeric.Solve.clamp ~lo ~hi lat
  end

(* General stationarity: g(lat) = f'(agg) * w - lsum - mu * share'(lat-offset)
   with agg = rest + w * lat. g is strictly decreasing, so the root (if
   interior) is found by bisection on [lo, hi]. *)
let general (problem : Problem.t) i ~mu_r ~lsum ~offset ~rest_aggregate ~utility =
  let s = problem.subtasks.(i) in
  let lo, hi = effective_bounds problem i ~offset in
  let df = utility.Utility.df in
  let g lat =
    let agg = rest_aggregate +. (s.weight *. lat) in
    let arg = Float.max s.share.Share.lat_min (lat -. offset) in
    (df agg *. s.weight) -. lsum -. (mu_r *. s.share.Share.deval arg)
  in
  if g lo <= 0. then lo
  else if g hi >= 0. then hi
  else Lla_numeric.Solve.bisect ~lo ~hi g

let reciprocal_share (s : Problem.subtask) =
  (* The closed form is only valid for the reciprocal share model; detect
     it by name (set by Share.instantiate). *)
  String.equal s.share.Share.name "reciprocal"

let tally ?obs ~at ~site = function
  | Some g ->
    incr g;
    Lla_obs.emit_opt obs ~at (Lla_obs.Trace.Guard_fired { site })
  | None -> Lla_obs.emit_opt obs ~at (Lla_obs.Trace.Guard_fired { site })

(* Never write a non-finite latency: NaN prices or a poisoned aggregate
   make the stationarity candidate NaN, which the clamp cannot fix
   ([max nan x = nan]). Keep the previous finite value, or retreat to the
   upper bound (maximum latency = minimum share, the conservative side)
   when the old value is itself poisoned. *)
let sanitize problem i ~offset ?obs ~at ?guards ~old value =
  if Float.is_finite value then value
  else begin
    tally ?obs ~at ~site:"allocation.candidate" guards;
    if Float.is_finite old then old else snd (effective_bounds problem i ~offset)
  end

let allocate_task ?obs ?(at = 0.) ?guards (problem : Problem.t) ti ~mu ~lambda ~offsets ~sweeps
    ~lat =
  let info = problem.tasks.(ti) in
  let closed_ok =
    match info.linear_slope with
    | Some _ -> Array.for_all (fun i -> reciprocal_share problem.subtasks.(i)) info.subtask_indices
    | None -> false
  in
  match (info.linear_slope, closed_ok) with
  | Some slope, true ->
    Array.iter
      (fun i ->
        let s = problem.subtasks.(i) in
        let lsum = lambda_sum problem i ~lambda in
        let lat' = closed_form problem i ~mu_r:mu.(s.resource) ~lsum ~slope ~offset:offsets.(i) in
        lat.(i) <- sanitize problem i ~offset:offsets.(i) ?obs ~at ?guards ~old:lat.(i) lat')
      info.subtask_indices
  | _ ->
    (* Gauss–Seidel sweeps: the aggregate latency is kept incrementally as
       coordinates move, so a non-finite input latency must be repaired
       first or it poisons every coordinate of the task. *)
    Array.iter
      (fun i ->
        if not (Float.is_finite lat.(i)) then begin
          tally ?obs ~at ~site:"allocation.input" guards;
          lat.(i) <- snd (effective_bounds problem i ~offset:offsets.(i))
        end)
      info.subtask_indices;
    let sweeps = Stdlib.max 1 sweeps in
    let aggregate = ref (Problem.aggregate_latency problem ti ~lat) in
    for _ = 1 to sweeps do
      Array.iter
        (fun i ->
          let s = problem.subtasks.(i) in
          let lsum = lambda_sum problem i ~lambda in
          let rest = !aggregate -. (s.weight *. lat.(i)) in
          let lat' =
            general problem i ~mu_r:mu.(s.resource) ~lsum ~offset:offsets.(i)
              ~rest_aggregate:rest ~utility:info.utility
          in
          let lat' = sanitize problem i ~offset:offsets.(i) ?obs ~at ?guards ~old:lat.(i) lat' in
          aggregate := rest +. (s.weight *. lat');
          lat.(i) <- lat')
        info.subtask_indices
    done

let allocate ?obs ?at ?guards problem ~mu ~lambda ~offsets ~sweeps ~lat =
  for ti = 0 to Problem.n_tasks problem - 1 do
    allocate_task ?obs ?at ?guards problem ti ~mu ~lambda ~offsets ~sweeps ~lat
  done
