type t =
  | Periodic of { period : float; phase : float }
  | Poisson of { rate : float }
  | Bursty of { on_duration : float; off_duration : float; period_in_burst : float }
  | Phased of { before : t; switch_at : float; after : t }

let periodic ?(phase = 0.) ~period () =
  if period <= 0. then invalid_arg "Trigger.periodic: period <= 0";
  if phase < 0. then invalid_arg "Trigger.periodic: negative phase";
  Periodic { period; phase }

let poisson ~rate_per_second =
  if rate_per_second <= 0. then invalid_arg "Trigger.poisson: rate <= 0";
  Poisson { rate = rate_per_second /. 1000. }

let bursty ~on_duration ~off_duration ~period_in_burst =
  if on_duration <= 0. || off_duration < 0. || period_in_burst <= 0. then
    invalid_arg "Trigger.bursty: non-positive duration";
  if period_in_burst > on_duration then
    invalid_arg "Trigger.bursty: period_in_burst exceeds on_duration";
  Bursty { on_duration; off_duration; period_in_burst }

let phased ~before ~switch_at ~after =
  if switch_at < 0. then invalid_arg "Trigger.phased: negative switch time";
  (match (before, after) with
  | Phased _, _ | _, Phased _ -> invalid_arg "Trigger.phased: nesting not supported"
  | _ -> ());
  Phased { before; switch_at; after }

let rec mean_rate = function
  | Periodic { period; _ } -> 1. /. period
  | Poisson { rate } -> rate
  | Bursty { on_duration; off_duration; period_in_burst } ->
    let arrivals_per_cycle = Float.floor (on_duration /. period_in_burst) +. 1. in
    arrivals_per_cycle /. (on_duration +. off_duration)
  | Phased { after; _ } -> mean_rate after

let rec next_arrival t rng ~after =
  match t with
  | Phased { before; switch_at; after = later } ->
    if after >= switch_at then next_arrival later rng ~after
    else begin
      let candidate = next_arrival before rng ~after in
      if candidate < switch_at then candidate
      else next_arrival later rng ~after:(Float.max after switch_at)
    end
  | Periodic { period; phase } ->
    if after < phase then phase
    else begin
      let k = Float.floor ((after -. phase) /. period) +. 1. in
      let candidate = phase +. (k *. period) in
      (* phase + k*period can round down to exactly [after] when [after]
         itself is a multiple of the period; force strict progress. *)
      if candidate > after then candidate else phase +. ((k +. 1.) *. period)
    end
  | Poisson { rate } -> after +. Lla_stdx.Rng.exponential rng ~rate
  | Bursty { on_duration; off_duration; period_in_burst } ->
    let cycle = on_duration +. off_duration in
    let base = Float.floor (after /. cycle) *. cycle in
    let offset = after -. base in
    if offset < on_duration then begin
      (* Inside an on-phase: next slot within the burst, or next cycle.
         Guard against float rounding returning [after] itself. *)
      let k = Float.floor (offset /. period_in_burst) +. 1. in
      let k = if base +. (k *. period_in_burst) > after then k else k +. 1. in
      let candidate = k *. period_in_burst in
      if candidate <= on_duration then base +. candidate else base +. cycle
    end
    else base +. cycle
