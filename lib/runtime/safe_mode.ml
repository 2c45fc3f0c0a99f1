type config = {
  violation_rounds : int;
  oscillation_window : int;
  oscillation_threshold : float;
  min_reversals : int;
  warmup_rounds : int;
  reentry_grace_rounds : int;
  settle_rounds : int;
  min_safe_time : float;
}

(* A resource price above this is treated as divergence. *)
let mu_cap = 1e6

(* Eq. 3/4 slack before an observation counts as a violation, as in the
   monitor. *)
let infeasibility_tolerance = Lla_obs.Monitor.infeasibility_tolerance

(* Max relative per-price movement for an observation to count as
   settled. *)
let settle_threshold = 0.02

let default_config =
  {
    violation_rounds = 10;
    oscillation_window = Lla_obs.Monitor.oscillation_window;
    oscillation_threshold = Lla_obs.Monitor.oscillation_threshold;
    min_reversals = Lla_obs.Monitor.min_reversals;
    warmup_rounds = 500;
    (* = warmup_rounds: entry resets prices and controller dual state to
       the cold point, so the post-exit transient is a full cold
       transient. A 50-round grace left the infeasibility detector arming
       mid-transient and re-tripping at exit+600 ms forever (campaign
       repro: price poison, base workload). *)
    reentry_grace_rounds = 500;
    settle_rounds = 10;
    min_safe_time = 1_000.;
  }

type state = Optimizing | Safe of { since : float; reason : string }

type event =
  | Entered of { reason : string }
  | Exited

module Streak = Lla_obs.Monitor.Streak
module Oscillation = Lla_obs.Monitor.Oscillation

type t = {
  config : config;
  obs : Lla_obs.t option;
  problem : Lla.Problem.t;
  fallback : float array;
  fallback_source : string;
  fallback_guaranteed : bool;
  mutable state : state;
  mutable grace : int;  (* detector-silence observations remaining *)
  violations : Streak.t;  (* consecutive violating observations *)
  utilities : Oscillation.t;
  prev_mu : float array;
  mutable settled_streak : int;
  mutable entries : int;
  mutable exits : int;
}

let of_assignment (problem : Lla.Problem.t) assignment =
  Array.map (fun (s : Lla.Problem.subtask) -> assignment s.Lla.Problem.sid) problem.subtasks

(* The fallback must hold Eq. 3 and Eq. 4 on THIS workload, not in general:
   the slicing heuristics guarantee deadlines by construction but can
   oversubscribe a tight resource, in which case an offline solver run is
   the next candidate. Selection happens once, at create time — safe mode
   must not depend on online state that may itself be poisoned. *)
let select_fallback (problem : Lla.Problem.t) =
  let workload = problem.Lla.Problem.workload in
  let feasible_slice kind =
    let a = Lla_baseline.Slicing.get kind workload in
    if
      Lla_baseline.Slicing.respects_resources workload a
      && Lla_baseline.Slicing.respects_deadlines workload a
    then Some (of_assignment problem a, Lla_baseline.Slicing.name_of kind, true)
    else None
  in
  let rec first_slice = function
    | [] -> None
    | kind :: rest ->
      (match feasible_slice kind with Some r -> Some r | None -> first_slice rest)
  in
  match first_slice [ `Proportional; `Laxity; `Equal ] with
  | Some r -> r
  | None ->
    let solver = Lla.Solver.create workload in
    ignore (Lla.Solver.run_until_converged solver ~max_iterations:4000);
    if Lla.Solver.feasible solver then
      (Array.copy (Lla.Solver.lat_array solver), "offline-solver", true)
    else
      ( of_assignment problem (Lla_baseline.Slicing.proportional_slice workload),
        "proportional-best-effort",
        false )

let create ?obs ?(config = default_config) problem =
  if config.violation_rounds <= 0 || config.settle_rounds <= 0 then
    invalid_arg "Safe_mode.create: non-positive round count";
  (* A streak trips once it exceeds its budget, so a budget one short of
     [violation_rounds] trips on exactly the [violation_rounds]-th
     consecutive violation. *)
  let violations = Streak.create ~budget:(config.violation_rounds - 1) in
  let utilities =
    Oscillation.create ~window:config.oscillation_window
      ~threshold:config.oscillation_threshold ~min_reversals:config.min_reversals
  in
  let fallback, fallback_source, fallback_guaranteed = select_fallback problem in
  {
    config;
    obs;
    problem;
    fallback;
    fallback_source;
    fallback_guaranteed;
    state = Optimizing;
    grace = config.warmup_rounds;
    violations;
    utilities;
    (* infinity: the first observation can never look settled. *)
    prev_mu = Array.make (Lla.Problem.n_resources problem) infinity;
    settled_streak = 0;
    entries = 0;
    exits = 0;
  }

let in_safe_mode t = match t.state with Safe _ -> true | Optimizing -> false

let fallback t = Array.copy t.fallback

let fallback_source t = t.fallback_source

let fallback_guaranteed t = t.fallback_guaranteed

let entries t = t.entries

let exits t = t.exits

let violating t ~lat ~offsets =
  let p = t.problem in
  let tol = 1. +. infeasibility_tolerance in
  let resource_violated =
    let n = Lla.Problem.n_resources p in
    let rec loop r =
      r < n
      && (Lla.Problem.share_sum p r ~lat ~offsets > p.Lla.Problem.capacities.(r) *. tol
         || loop (r + 1))
    in
    loop 0
  in
  resource_violated
  ||
  let n = Lla.Problem.n_paths p in
  let rec loop i =
    i < n
    &&
    let path = p.Lla.Problem.paths.(i) in
    Lla.Problem.path_latency p i ~lat > path.Lla.Problem.critical_time *. tol || loop (i + 1)
  in
  loop 0

let enter t ~now ~reason =
  (* The trip record precedes the runtime's Safe_mode_entered record: an
     entry without a preceding trip in a trace is an invariant violation
     (see Lla_obs.Invariant.safe_entries_preceded_by_trip). *)
  Lla_obs.emit_opt t.obs ~at:now (Lla_obs.Trace.Watchdog_trip { reason });
  t.state <- Safe { since = now; reason };
  t.entries <- t.entries + 1;
  t.settled_streak <- 0;
  (* Nothing feeds the trip detectors while safe, so emptying them here
     makes the re-entered optimization start from an empty streak and
     window. *)
  Streak.reset t.violations;
  Oscillation.reset t.utilities;
  Some (Entered { reason })

let observe_optimizing t ~now ~mu ~utility ~violating_now =
  (* The streak and oscillation detectors only arm after the grace period:
     a cold start on a tight workload is legitimately infeasible for
     seconds while prices find the constraint surface (measured: >5%
     streaks of ~2 s on the paper workload), and clamping a converging
     transient would make safe mode a steady-state oscillator. The
     non-finite / price-cap trip below stays armed throughout. *)
  let silent = t.grace > 0 in
  if silent then t.grace <- t.grace - 1;
  let price_blown =
    Array.exists (fun m -> (not (Float.is_finite m)) || m > mu_cap) mu
  in
  if price_blown || not (Float.is_finite utility) then
    enter t ~now
      ~reason:(if price_blown then "price divergence" else "non-finite utility")
  else begin
    Oscillation.push t.utilities utility;
    match Streak.observe t.violations ~ok:(silent || not (violating_now ())) ~step:1 with
    | Some _ -> enter t ~now ~reason:"sustained infeasibility"
    | None ->
      if (not silent) && Oscillation.oscillating t.utilities then
        enter t ~now ~reason:"utility oscillation"
      else None
  end

let observe_safe t ~now ~since ~mu =
  (* Settled = no resource price moved more than settle_threshold relative
     since the previous observation. Non-finite prices never settle. *)
  let n = Array.length mu in
  let settled = ref true in
  for r = 0 to n - 1 do
    let m = mu.(r) and p = t.prev_mu.(r) in
    if
      (not (Float.is_finite m))
      || not (Float.abs (m -. p) <= settle_threshold *. Float.max 1. (Float.abs p))
    then settled := false
  done;
  if !settled then t.settled_streak <- t.settled_streak + 1 else t.settled_streak <- 0;
  if
    t.settled_streak >= t.config.settle_rounds
    && now -. since >= t.config.min_safe_time
  then begin
    t.state <- Optimizing;
    t.exits <- t.exits + 1;
    t.grace <- t.config.reentry_grace_rounds;
    Some Exited
  end
  else None

let observe_core t ~now ~mu ~utility ~violating_now =
  if Array.length mu <> Array.length t.prev_mu then
    invalid_arg "Safe_mode.observe: mu length mismatch";
  let event =
    match t.state with
    | Optimizing -> observe_optimizing t ~now ~mu ~utility ~violating_now
    | Safe { since; _ } -> observe_safe t ~now ~since ~mu
  in
  (* Track prices across observations for the settle detector. *)
  Array.blit mu 0 t.prev_mu 0 (Array.length mu);
  event

let observe t ~now ~mu ~lat ~offsets =
  observe_core t ~now ~mu
    ~utility:(Lla.Problem.total_utility t.problem ~lat)
    ~violating_now:(fun () -> violating t ~lat ~offsets)

let observe_signals t ~now ~mu ~feasible ~utility =
  observe_core t ~now ~mu ~utility ~violating_now:(fun () -> not feasible)
