module Schedule = Lla_chaos.Schedule

type params = { every : int; duration : int }

let default_params = { every = 20_000; duration = 400 }

(* What each window holds: price poisons, latency error spikes of up to
   this many ms, a per-tick chance a control tick is lost, and the chance
   of a capacity dip by a factor drawn from [U(dip_floor, 1)]. *)
let poisons_per_window = 2

let spikes_per_window = 3

let spike_magnitude = 25.

let stall_drop = 0.1

let dip_probability = 0.5

let dip_floor = 0.7

type op =
  | Poison of { resource : int; value : float }
  | Spike of { subtask : int; magnitude : float }
  | Dip of { resource : int; factor : float }
  | Restore of { resource : int }
  | Stall

type t = {
  params : params;
  rng : Lla_stdx.Rng.t;
  n_resources : int;
  n_subtasks : int;
  mutable agenda : (int * op) list;  (* absolute tick, ascending *)
  mutable window_start : int;
  mutable window_end : int;
  mutable stall_until : int;  (* exclusive *)
  mutable stall_p : float;
  mutable windows : int;
  mutable stalls : int;
  mutable events : Schedule.event list;
}

let create ?(params = default_params) ~seed ~n_resources ~n_subtasks () =
  if params.duration <= 0 && params.every > 0 then invalid_arg "Rota.create: non-positive duration";
  if params.every > 0 && params.duration >= params.every then
    invalid_arg "Rota.create: window duration must be shorter than the rota period";
  {
    params;
    rng = Lla_stdx.Rng.create ~seed;
    n_resources;
    n_subtasks;
    agenda = [];
    window_start = -1;
    window_end = -1;
    stall_until = -1;
    stall_p = 0.;
    windows = 0;
    stalls = 0;
    events = [];
  }

let in_window t ~now = t.windows > 0 && now >= t.window_start && now <= t.window_end

let windows t = t.windows

let last_window_end t = t.window_end

let stalls t = t.stalls

(* The poison menu matches the campaign generator's taste: non-finite
   values exercise the guards, the huge finite one the mu_cap watchdog,
   zero the price-collapse path. *)
let poison_value rng =
  match Lla_stdx.Rng.int rng ~bound:4 with
  | 0 -> Float.nan
  | 1 -> Float.infinity
  | 2 -> 1e12
  | _ -> 0.

(* Generate one window as Schedule events (window-relative [at] times) —
   the same vocabulary campaign reproducers use — then expand them onto
   the per-tick agenda. *)
let open_window t ~now =
  let p = t.params in
  let horizon = float_of_int p.duration in
  let events = ref [] in
  for _ = 1 to poisons_per_window do
    let at = float_of_int (Lla_stdx.Rng.int t.rng ~bound:p.duration) in
    let resource = Lla_stdx.Rng.int t.rng ~bound:t.n_resources in
    events := Schedule.Price_poison { at; resource; value = poison_value t.rng } :: !events
  done;
  for _ = 1 to spikes_per_window do
    let at = Lla_stdx.Rng.int t.rng ~bound:p.duration in
    let duration = float_of_int (p.duration - at) in
    let subtask = Lla_stdx.Rng.int t.rng ~bound:t.n_subtasks in
    let magnitude = Lla_stdx.Rng.uniform t.rng ~lo:(0.2 *. spike_magnitude) ~hi:spike_magnitude in
    events :=
      Schedule.Error_spike { at = float_of_int at; duration; subtask; magnitude } :: !events
  done;
  events :=
    Schedule.Faults
      {
        at = 0.;
        duration = horizon;
        faults =
          { Lla_transport.Transport.drop = stall_drop; duplicate = 0.; reorder = 0.; reorder_spread = 0. };
      }
    :: !events;
  t.events <- List.rev !events;
  t.window_start <- now;
  t.window_end <- now + p.duration;
  t.windows <- t.windows + 1;
  (* Expand onto the agenda. Spikes release (negated) at window end;
     Faults become the probabilistic stall window sampled per tick. *)
  let agenda = ref [] in
  List.iter
    (fun (e : Schedule.event) ->
      match e with
      | Schedule.Price_poison { at; resource; value } ->
          agenda := (now + int_of_float at, Poison { resource; value }) :: !agenda
      | Schedule.Error_spike { at; duration; subtask; magnitude } ->
          let start = now + int_of_float at in
          agenda :=
            (start + int_of_float duration, Spike { subtask; magnitude = -.magnitude })
            :: (start, Spike { subtask; magnitude })
            :: !agenda
      | Schedule.Faults { at; duration; faults } ->
          t.stall_until <- now + int_of_float at + int_of_float duration;
          t.stall_p <- faults.Lla_transport.Transport.drop
      | Schedule.Jitter _ | Schedule.Partition _ | Schedule.Outage _
      | Schedule.Node_crash _ | Schedule.Storage_faults _ -> ())
    t.events;
  if t.n_resources > 0 && Lla_stdx.Rng.float t.rng < dip_probability then begin
    let resource = Lla_stdx.Rng.int t.rng ~bound:t.n_resources in
    let factor = Lla_stdx.Rng.uniform t.rng ~lo:dip_floor ~hi:1. in
    agenda := (t.window_end, Restore { resource }) :: (now, Dip { resource; factor }) :: !agenda
  end;
  t.agenda <- List.stable_sort (fun (a, _) (b, _) -> compare a b) !agenda

let step t ~now =
  let p = t.params in
  if p.every <= 0 then []
  else begin
    if now > 0 && now mod p.every = 0 then open_window t ~now;
    let ops =
      (* fast path: outside windows the agenda is empty or entirely in
         the future, and the tick allocates nothing here *)
      match t.agenda with
      | [] -> []
      | (tk, _) :: _ when tk > now -> []
      | _ ->
          let due, later = List.partition (fun (tk, _) -> tk <= now) t.agenda in
          t.agenda <- later;
          List.map snd due
    in
    if now < t.stall_until && Lla_stdx.Rng.float t.rng < t.stall_p then begin
      t.stalls <- t.stalls + 1;
      Stall :: ops
    end
    else ops
  end
