type config = {
  tolerance : float;
  sustained_fraction : float;
  regret_bound : float;
}

let default_config =
  {
    tolerance = 0.12;
    sustained_fraction = 0.02;
    regret_bound = 0.08;
  }

(* absolute violation count below which the sustained fraction is moot *)
let min_violations = 10

(* ms after the last fault heals before the trace oracle judges *)
let heal_grace = 6000.

(* ending inside a safe-mode dwell at least this long (ms) is a lockout *)
let lockout_window = 10_000.

(* slack on the final enacted point *)
let final_tolerance = 0.30

type recovery_outcome = {
  crashes : int;
  replayed : int;
  refused : int;
  crash_warm : int;
  crash_cold : int;
  resurrected : int;
  idempotent : bool;
  journal_enabled : bool;
}

type outcome = {
  records : Lla_obs.Trace.record list;
  last_fault_end : float;
  end_time : float;
  final_utility : float;
  optimum_utility : float;
  in_safe_mode : bool;
  safe_entries : int;
  warm_restores : int;
  cold_restarts : int;
  outages : int;
  crash_restores : int;
  checkpoints_enabled : bool;
  max_share_violation : float;
  max_path_violation : float;
  recovery : recovery_outcome option;
}

type verdict = { oracle : string; violations : string list }

let pass oracle = { oracle; violations = [] }

let fail oracle violations = { oracle; violations }

(* A merged multi-shard stream interleaves per-shard sequence counters,
   so the single-stream seq-monotonicity oracle would trip on perfectly
   healthy runs (the engine test battery keeps a repro). The calibrated
   merged variant judges what {!Lla_obs.Trace.merge} actually
   guarantees: global time-sortedness. *)
let time_sorted records =
  let rec go = function
    | (a : Lla_obs.Trace.record) :: (b :: _ as rest) -> a.Lla_obs.Trace.at <= b.Lla_obs.Trace.at && go rest
    | _ -> true
  in
  go records

let trace_monotone ~merged o =
  let healthy = if merged then time_sorted o.records else Lla_obs.Invariant.monotone o.records in
  if healthy then pass "trace-monotone"
  else
    fail "trace-monotone"
      [
        (if merged then "merged trace not time-sorted"
         else "trace sequence/time not monotone");
      ]

(* Records carrying Eq. 3/4 operands — the denominator of the sustained
   fraction. *)
let judged_price_records ~from records =
  List.length
    (List.filter
       (fun (r : Lla_obs.Trace.record) ->
         r.at >= from
         &&
         match r.event with
         | Lla_obs.Trace.Price_updated _ | Lla_obs.Trace.Path_price_updated _ -> true
         | _ -> false)
       records)

let constraints_after_heal o =
  let from = o.last_fault_end +. heal_grace in
  let vs = Lla_obs.Invariant.check_constraints ~tolerance:default_config.tolerance ~from o.records in
  let n = List.length vs in
  let judged = judged_price_records ~from o.records in
  let fraction = if judged = 0 then 0. else float_of_int n /. float_of_int judged in
  if n >= min_violations && fraction > default_config.sustained_fraction then
    let sample =
      List.filteri (fun i _ -> i < 3) vs
      |> List.map (Format.asprintf "%a" Lla_obs.Invariant.pp_violation)
    in
    fail "constraints-after-heal"
      (Printf.sprintf
         "%d of %d judged price records (%.1f%%) violate Eq.3/4 beyond tol %.2f after t=%.0f"
         n judged (100. *. fraction) default_config.tolerance from
      :: sample)
  else pass "constraints-after-heal"

let safe_mode_causality o =
  if Lla_obs.Invariant.safe_entries_preceded_by_trip o.records then pass "safe-mode-causality"
  else fail "safe-mode-causality" [ "a safe-mode entry without a preceding watchdog trip" ]

(* Time of the last safe-mode entry, when the run ends inside safe mode. *)
let last_safe_entry o =
  List.fold_left
    (fun acc (r : Lla_obs.Trace.record) ->
      match r.event with Lla_obs.Trace.Safe_mode_entered _ -> Some r.at | _ -> acc)
    None o.records

let reconvergence o =
  if o.in_safe_mode then pass "reconvergence"
  else
    let opt = o.optimum_utility in
    let scale = Float.max 1. (Float.abs opt) in
    let gap = (opt -. o.final_utility) /. scale in
    if Float.is_nan o.final_utility then fail "reconvergence" [ "final utility is nan" ]
    else if gap > default_config.regret_bound then
      fail "reconvergence"
        [
          Printf.sprintf "final utility %.4f vs optimum %.4f: relative regret %.4f > bound %.4f"
            o.final_utility opt gap default_config.regret_bound;
        ]
    else pass "reconvergence"

let no_lockout o =
  if not o.in_safe_mode then pass "no-lockout"
  else
    match last_safe_entry o with
    | None -> fail "no-lockout" [ "in safe mode at the end without any recorded entry" ]
    | Some entered ->
        let dwell = o.end_time -. entered in
        if dwell >= lockout_window then
          fail "no-lockout"
            [
              Printf.sprintf
                "in safe mode for the last %.0f ms (>= lockout window %.0f; entries=%d)" dwell
                lockout_window o.safe_entries;
            ]
        else pass "no-lockout"

let warm_restore_consistency o =
  let restores = o.warm_restores + o.cold_restarts in
  let vs = ref [] in
  (* node crashes restart every actor without an endpoint outage, so
     their restores are accounted separately *)
  if restores <> o.outages + o.crash_restores then
    vs :=
      Printf.sprintf "restores (%d warm + %d cold) != endpoint outages (%d) + crash restores (%d)"
        o.warm_restores o.cold_restarts o.outages o.crash_restores
      :: !vs;
  if (not o.checkpoints_enabled) && o.warm_restores > 0 then
    vs := Printf.sprintf "%d warm restores with checkpointing disabled" o.warm_restores :: !vs;
  match !vs with [] -> pass "warm-restore-consistency" | vs -> fail "warm-restore-consistency" vs

let recovery o =
  match o.recovery with
  | None -> pass "recovery"
  | Some r ->
      let vs = ref [] in
      if r.resurrected > 0 then
        vs :=
          Printf.sprintf "%d actors resurrected non-finite state after a crash recovery"
            r.resurrected
          :: !vs;
      if not r.idempotent then
        vs := "journal double-replay restored different accepted/refused counts" :: !vs;
      if (not r.journal_enabled) && r.crash_warm > 0 then
        vs :=
          Printf.sprintf "%d warm crash recoveries without a journal (refused state resurrected?)"
            r.crash_warm
          :: !vs;
      if r.crash_warm > 0 && r.replayed = 0 then
        vs :=
          Printf.sprintf "%d warm crash recoveries but 0 journal records replayed" r.crash_warm
          :: !vs;
      match List.rev !vs with [] -> pass "recovery" | vs -> fail "recovery" vs

let final_feasibility o =
  let vs = ref [] in
  if not (Float.is_finite o.max_share_violation) || o.max_share_violation > final_tolerance
  then
    vs :=
      Printf.sprintf "final Eq.3 excess %.4f > tolerance %.2f" o.max_share_violation
        final_tolerance
      :: !vs;
  if not (Float.is_finite o.max_path_violation) || o.max_path_violation > final_tolerance then
    vs :=
      Printf.sprintf "final Eq.4 excess %.4f > tolerance %.2f" o.max_path_violation
        final_tolerance
      :: !vs;
  match List.rev !vs with [] -> pass "final-feasibility" | vs -> fail "final-feasibility" vs

let evaluate ?(merged = false) o =
  [
    trace_monotone ~merged o;
    constraints_after_heal o;
    safe_mode_causality o;
    reconvergence o;
    no_lockout o;
    warm_restore_consistency o;
    recovery o;
    final_feasibility o;
  ]

let failures verdicts = List.filter (fun v -> v.violations <> []) verdicts

let ok verdicts = failures verdicts = []

let render verdicts =
  let line v =
    match v.violations with
    | [] -> Printf.sprintf "ok   %s" v.oracle
    | first :: rest ->
        let more = match rest with [] -> "" | _ -> Printf.sprintf " (+%d more)" (List.length rest) in
        Printf.sprintf "FAIL %s: %s%s" v.oracle first more
  in
  String.concat "\n" (List.map line verdicts)
