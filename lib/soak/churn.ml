type params = {
  roster_fraction : float;
  every : int;
  base_load : float;
  diurnal_period : int;
  flash_every : int;
  flash_duration : int;
}

let default_params =
  {
    roster_fraction = 0.4;
    every = 200;
    base_load = 0.6;
    diurnal_period = 100_000;
    flash_every = 150_000;
    flash_duration = 8_000;
  }

(* Amplitude of the diurnal swing and the extra active fraction during a
   flash crowd, as fractions of the roster. *)
let diurnal_amplitude = 0.25

let flash_boost = 0.3

(* Chance of one steady-state swap per churn step. *)
let turnover = 0.5

type op = Admit of int | Retire of int

(* The roster lives in [slots], partitioned: positions [0, active_n) hold
   the active tasks, [active_n, roster_n) the inactive ones; [pos] maps a
   task index back to its slot so activation state flips in O(1). *)
type t = {
  params : params;
  rng : Lla_stdx.Rng.t;
  roster_lo : int;  (* roster = task indices [roster_lo, n_tasks) *)
  roster_n : int;
  slots : int array;
  pos : int array;  (* task index -> slot position; -1 off-roster *)
  priority : float array;  (* per slot task, sampled at creation *)
  mutable active_n : int;
  mutable max_active : int;
  mutable admits : int;
  mutable retires : int;
  initially_retired : int list;
}

let clamp01 v = if v < 0. then 0. else if v > 1. then 1. else v

let in_flash t ~now =
  let p = t.params in
  p.flash_every > 0 && p.flash_duration > 0 && now >= p.flash_every
  && now mod p.flash_every < p.flash_duration

let target t ~now =
  let p = t.params in
  let diurnal =
    if p.diurnal_period <= 0 then 0.
    else
      diurnal_amplitude
      *. sin (2. *. Float.pi *. float_of_int now /. float_of_int p.diurnal_period)
  in
  let flash = if in_flash t ~now then flash_boost else 0. in
  let f = clamp01 (p.base_load +. diurnal +. flash) in
  let n = int_of_float (Float.round (f *. float_of_int t.roster_n)) in
  Stdlib.min t.max_active (Stdlib.max 0 n)

let swap_slots t a b =
  if a <> b then begin
    let ta = t.slots.(a) and tb = t.slots.(b) in
    t.slots.(a) <- tb;
    t.slots.(b) <- ta;
    t.pos.(ta) <- b;
    t.pos.(tb) <- a
  end

(* Flip task (by slot position) out of / into the active region. *)
let deactivate_at t slot_pos =
  swap_slots t slot_pos (t.active_n - 1);
  t.active_n <- t.active_n - 1

let activate_at t slot_pos =
  swap_slots t slot_pos t.active_n;
  t.active_n <- t.active_n + 1

let create ?(params = default_params) ~seed ~n_tasks ~priority () =
  if not (params.roster_fraction >= 0. && params.roster_fraction <= 1.) then
    invalid_arg "Churn.create: roster_fraction outside [0,1]";
  let roster_n = int_of_float (params.roster_fraction *. float_of_int n_tasks) in
  let roster_n = Stdlib.min n_tasks (Stdlib.max 0 roster_n) in
  let roster_lo = n_tasks - roster_n in
  let t =
    {
      params;
      rng = Lla_stdx.Rng.create ~seed;
      roster_lo;
      roster_n;
      slots = Array.init roster_n (fun i -> roster_lo + i);
      pos = Array.init n_tasks (fun k -> if k < roster_lo then -1 else k - roster_lo);
      priority = Array.init n_tasks (fun k -> if k < roster_lo then 0. else priority k);
      active_n = roster_n;
      max_active = roster_n;
      admits = 0;
      retires = 0;
      initially_retired = [];
    }
  in
  (* Start the stream at its tick-0 target: randomly retire the excess.
     These retires are reported via [initially_retired], not [step]. *)
  let tgt = target t ~now:0 in
  let retired = ref [] in
  while t.active_n > tgt do
    let k = Lla_stdx.Rng.int t.rng ~bound:t.active_n in
    let task = t.slots.(k) in
    deactivate_at t k;
    retired := task :: !retired
  done;
  { t with initially_retired = List.rev !retired }

let initially_retired t = t.initially_retired

let roster_size t = t.roster_n

let active_in_roster t = t.active_n

let set_max_active t n = t.max_active <- Stdlib.min t.roster_n (Stdlib.max 0 n)

let shed t ~count =
  (* Evict the lowest-priority actives: selection by scan, O(count *
     active) — rosters are hundreds of tasks and sheds rare, so simple
     beats clever. *)
  let out = ref [] in
  for _ = 1 to count do
    if t.active_n > 0 then begin
      let best = ref 0 in
      for k = 1 to t.active_n - 1 do
        if t.priority.(t.slots.(k)) < t.priority.(t.slots.(!best)) then best := k
      done;
      let task = t.slots.(!best) in
      deactivate_at t !best;
      t.retires <- t.retires + 1;
      out := task :: !out
    end
  done;
  List.rev !out

let step t ~now =
  let p = t.params in
  if p.every <= 0 || t.roster_n = 0 || now mod p.every <> 0 then []
  else begin
    let tgt = target t ~now in
    let ops = ref [] in
    while t.active_n > tgt do
      let k = Lla_stdx.Rng.int t.rng ~bound:t.active_n in
      let task = t.slots.(k) in
      deactivate_at t k;
      t.retires <- t.retires + 1;
      ops := Retire task :: !ops
    done;
    while t.active_n < tgt do
      let inactive = t.roster_n - t.active_n in
      let k = t.active_n + Lla_stdx.Rng.int t.rng ~bound:inactive in
      let task = t.slots.(k) in
      activate_at t k;
      t.admits <- t.admits + 1;
      ops := Admit task :: !ops
    done;
    (* Steady-state turnover: same-count swaps, retire before admit. The
       admit candidate is drawn first so a swap never re-admits the task
       it just retired. *)
    let swaps = if Lla_stdx.Rng.float t.rng < turnover then 1 else 0 in
    for _ = 1 to swaps do
      let inactive = t.roster_n - t.active_n in
      if t.active_n > 0 && inactive > 0 then begin
        let kin = t.active_n + Lla_stdx.Rng.int t.rng ~bound:inactive in
        let task_in = t.slots.(kin) in
        let kout = Lla_stdx.Rng.int t.rng ~bound:t.active_n in
        let task_out = t.slots.(kout) in
        deactivate_at t kout;
        t.retires <- t.retires + 1;
        activate_at t t.pos.(task_in);
        t.admits <- t.admits + 1;
        ops := Admit task_in :: Retire task_out :: !ops
      end
    done;
    List.rev !ops
  end

let admits t = t.admits

let retires t = t.retires
