(* Online SLO monitors. Each observation updates O(1) detector state;
   readouts that need the tail half of a series replay a retained
   compact (unboxed, doubling) buffer through the offline Analyze code,
   so the two tiers cannot drift apart. *)

module Int_tbl = Lla_stdx.Int_tbl

(* --- shared detector primitives --------------------------------------- *)

(* Online suffix-stable settling: the earliest time from which the series
   never leaves the band [tolerance * max |target| 1e-12] around
   [target] — exactly [Analyze.settling_time]'s criterion, in O(1) per
   sample; a non-finite [target] never settles, as offline. *)
module Settle = struct
  type t = {
    target : float;
    tolerance : float;
    mutable cand : float option;  (* start of the current all-within suffix *)
    mutable any : bool;
  }

  let create ?(tolerance = Analyze.default_tolerance) ~target () =
    { target; tolerance; cand = None; any = false }

  (* Invariant: [cand] is the [at] of the first sample of the longest
     suffix whose samples all sit inside the band — i.e. exactly the
     index Analyze.settling_time's backwards scan stops at. *)
  let observe t ~at v =
    t.any <- true;
    if not (Float.is_finite t.target) then ()
    else begin
      let scale = Float.max (Float.abs t.target) 1e-12 in
      let within = Float.is_finite v && Float.abs (v -. t.target) <= t.tolerance *. scale in
      if within then (match t.cand with None -> t.cand <- Some at | Some _ -> ())
      else t.cand <- None
    end

  let settled_since t = if t.any then t.cand else None
end

module Streak = struct
  type t = { budget : int; mutable acc : int }

  let create ~budget = { budget; acc = 0 }

  let observe t ~ok ~step =
    if ok then begin
      t.acc <- 0;
      None
    end
    else begin
      t.acc <- t.acc + step;
      if t.acc > t.budget then begin
        let streak = t.acc in
        t.acc <- 0;
        Some streak
      end
      else None
    end

  let reset t = t.acc <- 0

  let current t = t.acc
end

(* Windowed oscillation: relative spread of the last [window] samples
   plus a direction-reversal count, so a monotone transient (large
   spread, no reversals) does not read as a limit cycle. *)
module Oscillation = struct
  type t = {
    threshold : float;
    min_reversals : int;
    ring : float array;
    mutable pos : int;
    mutable len : int;
  }

  let create ~window ~threshold ~min_reversals =
    if window < 4 then invalid_arg "Monitor.Oscillation.create: window < 4";
    { threshold; min_reversals; ring = Array.make window 0.; pos = 0; len = 0 }

  let push t v =
    if Float.is_finite v then begin
      t.ring.(t.pos) <- v;
      t.pos <- (t.pos + 1) mod Array.length t.ring;
      if t.len < Array.length t.ring then t.len <- t.len + 1
    end

  let reset t =
    t.pos <- 0;
    t.len <- 0

  let oscillating t =
    t.len = Array.length t.ring
    &&
    let n = Array.length t.ring in
    let start = t.pos in
    let v k = t.ring.((start + k) mod n) in
    let lo = ref infinity and hi = ref neg_infinity and sum = ref 0. in
    for k = 0 to n - 1 do
      let x = v k in
      if x < !lo then lo := x;
      if x > !hi then hi := x;
      sum := !sum +. x
    done;
    let mean = !sum /. float_of_int n in
    let spread = (!hi -. !lo) /. Float.max 1. (Float.abs mean) in
    spread > t.threshold
    &&
    let reversals = ref 0 and dir = ref 0 and prev = ref (v 0) in
    for k = 1 to n - 1 do
      let x = v k in
      let d = compare x !prev in
      if d <> 0 then begin
        if !dir <> 0 && d <> !dir then incr reversals;
        dir := d
      end;
      prev := x
    done;
    !reversals >= t.min_reversals

  (* Summed in slot order, not chronologically: the value is quoted in
     [Alert_raised] records, so its rounding is part of the trace. *)
  let spread t =
    if t.len = 0 then 0.
    else begin
      let lo = ref infinity and hi = ref neg_infinity and sum = ref 0. in
      for k = 0 to t.len - 1 do
        let x = t.ring.(k) in
        if x < !lo then lo := x;
        if x > !hi then hi := x;
        sum := !sum +. x
      done;
      (!hi -. !lo) /. Float.max 1. (Float.abs (!sum /. float_of_int t.len))
    end
end

(* Settling against the final value, as offline: the target is only
   known at judgement time, so the retained samples are replayed through
   [Settle]. *)
let settling_against_last ?tolerance samples =
  match Lla_stdx.Series.last samples with
  | None -> None
  | Some (_, target) ->
    let s = Settle.create ?tolerance ~target () in
    Lla_stdx.Series.iter samples (fun at v -> Settle.observe s ~at v);
    Settle.settled_since s

module Probe = struct
  type t = Lla_stdx.Series.t

  let start = Lla_stdx.Series.create

  let sample t ~at ~value = Lla_stdx.Series.add t ~x:at ~y:value

  let settling p = settling_against_last ~tolerance:0.02 p
end

let drift ~baseline v = Float.abs (v -. baseline) /. Float.max 1. (Float.abs baseline)

(* --- the monitor ------------------------------------------------------- *)

type severity = Info | Warning | Critical

let severity_label = function Info -> "info" | Warning -> "warning" | Critical -> "critical"

(* Eq. 3/4 slack, the oscillation detector's window, spread and
   reversals; the safe-mode watchdog's defaults read these. *)
let infeasibility_tolerance = 0.05

let oscillation_window = 32

let oscillation_threshold = 0.2

let min_reversals = 8

(* Settling band; the load factor opening an overload episode (as in
   [Analyze.episodes]); time a condition must hold before its alert
   raises, and time of health before an active alert clears (the
   asymmetric exit hysteresis); relative drift against the baseline. *)
let tolerance = Analyze.default_tolerance

let overload_threshold = 1.

let sustain_budget = 200.

let clear_after = 500.

let drift_tolerance = 0.25

(* Asymmetric hysteresis state: [bad]/[good] accumulate contiguous
   condition time; entering needs [bad >= enter_after], leaving needs
   [good >= exit_after]. Time deltas come from the observation stamps,
   so replaying a trace reproduces every transition. *)
type alert = {
  a_name : string;
  a_severity : severity;
  enter_after : float;
  exit_after : float;
  mutable a_active : bool;
  mutable a_since : float;
  mutable a_value : float;
  mutable a_raised : int;
  mutable a_cleared : int;
  mutable bad : float;
  mutable good : float;
  mutable last_at : float;  (* nan until the first observation *)
}

type res_state = {
  mutable ep_open : (float * float) option;  (* current overload episode *)
  mutable eps_rev : (float * float) list;  (* closed episodes, newest first *)
  mutable infeasible : bool;  (* load > 1 + tol at the last sample *)
}

type t = {
  mutable emit : (at:float -> Trace.event -> unit) option;
  (* utility stream *)
  series : Lla_stdx.Series.t;
  settle : Settle.t option;
  tasks : int option;
  latest : float Int_tbl.t;  (* task -> latest local utility *)
  mutable latest_sum : float;
  mutable saw_iteration : bool;
  osc : Oscillation.t;
  (* Eq. 3/4 state *)
  res : res_state Int_tbl.t;
  mutable res_order : int list;  (* reverse first-seen *)
  mutable res_bad : int;  (* resources currently infeasible *)
  path_bad : unit Int_tbl.t;
  mutable baseline : float option;
  (* alert bus, fixed order *)
  a_eq3 : alert;
  a_eq4 : alert;
  a_osc : alert;
  a_drift : alert;
  a_div : alert;
  a_recovery : alert;
}

let mk_alert ~name ~severity ~enter =
  {
    a_name = name;
    a_severity = severity;
    enter_after = enter;
    exit_after = clear_after;
    a_active = false;
    a_since = Float.nan;
    a_value = Float.nan;
    a_raised = 0;
    a_cleared = 0;
    bad = 0.;
    good = 0.;
    last_at = Float.nan;
  }

let create ?target ?tasks () =
  {
    emit = None;
    series = Lla_stdx.Series.create ();
    settle = Option.map (fun target -> Settle.create ~tolerance ~target ()) target;
    tasks;
    latest = Int_tbl.create 64;
    latest_sum = 0.;
    saw_iteration = false;
    osc =
      Oscillation.create ~window:oscillation_window ~threshold:oscillation_threshold
        ~min_reversals;
    res = Int_tbl.create 16;
    res_order = [];
    res_bad = 0;
    path_bad = Int_tbl.create 16;
    baseline = None;
    a_eq3 = mk_alert ~name:"eq3_sustained" ~severity:Critical ~enter:sustain_budget;
    a_eq4 = mk_alert ~name:"eq4_sustained" ~severity:Critical ~enter:sustain_budget;
    a_osc = mk_alert ~name:"oscillation" ~severity:Warning ~enter:0.;
    a_drift =
      mk_alert ~name:"utility_drift" ~severity:Warning ~enter:sustain_budget;
    a_div = mk_alert ~name:"diverged" ~severity:Critical ~enter:0.;
    a_recovery =
      mk_alert ~name:"recovery_stuck" ~severity:Critical ~enter:sustain_budget;
  }

let on_alert t f = t.emit <- Some f

let emit_transition t ~at event =
  match t.emit with None -> () | Some f -> f ~at event

let raise_alert t a ~at =
  a.a_active <- true;
  a.a_since <- at;
  a.a_raised <- a.a_raised + 1;
  a.good <- 0.;
  emit_transition t ~at
    (Trace.Alert_raised
       { alert = a.a_name; severity = severity_label a.a_severity; value = a.a_value })

let clear_alert t a ~at =
  a.a_active <- false;
  a.a_cleared <- a.a_cleared + 1;
  a.bad <- 0.;
  emit_transition t ~at (Trace.Alert_cleared { alert = a.a_name; value = a.a_value })

(* One hysteresis step. [value] is the signal quoted in transitions. *)
let observe_alert t a ~at ~ok ~value =
  let dt = if Float.is_nan a.last_at then 0. else Float.max 0. (at -. a.last_at) in
  a.last_at <- at;
  a.a_value <- value;
  if ok then begin
    a.bad <- 0.;
    if a.a_active then begin
      a.good <- a.good +. dt;
      if a.good >= a.exit_after then clear_alert t a ~at
    end
  end
  else begin
    a.good <- 0.;
    a.bad <- a.bad +. dt;
    if (not a.a_active) && a.bad >= a.enter_after then raise_alert t a ~at
  end

let observe_utility t ~at v =
  Lla_stdx.Series.add t.series ~x:at ~y:v;
  (match t.settle with Some s -> Settle.observe s ~at v | None -> ());
  Oscillation.push t.osc v;
  observe_alert t t.a_div ~at ~ok:(Float.is_finite v) ~value:v;
  observe_alert t t.a_osc ~at
    ~ok:(not (Oscillation.oscillating t.osc))
    ~value:(Oscillation.spread t.osc);
  match t.baseline with
  | Some b ->
    let d = drift ~baseline:b v in
    observe_alert t t.a_drift ~at ~ok:(d <= drift_tolerance) ~value:d
  | None -> ()

let res_state t resource =
  match Int_tbl.find t.res resource with
  | st -> st
  | exception Not_found ->
    let st = { ep_open = None; eps_rev = []; infeasible = false } in
    Int_tbl.add t.res resource st;
    t.res_order <- resource :: t.res_order;
    st

let observe_load t ~at ~resource ~load =
  let st = res_state t resource in
  (* overload episodes: Analyze.episodes semantics, online *)
  if load > overload_threshold then
    st.ep_open <- (match st.ep_open with None -> Some (at, at) | Some (s, _) -> Some (s, at))
  else (
    match st.ep_open with
    | None -> ()
    | Some ep ->
      st.eps_rev <- ep :: st.eps_rev;
      st.ep_open <- None);
  (* Eq. 3 sustained-infeasibility: a resource is bad while its load
     exceeds 1 + tol; the alert sees the aggregate verdict. *)
  let bad = load > 1. +. infeasibility_tolerance in
  if bad && not st.infeasible then t.res_bad <- t.res_bad + 1
  else if (not bad) && st.infeasible then t.res_bad <- t.res_bad - 1;
  st.infeasible <- bad;
  observe_alert t t.a_eq3 ~at ~ok:(t.res_bad = 0) ~value:(float_of_int t.res_bad)

let observe_path_slack t ~at ~path ~latency ~critical_time =
  let bad = latency > critical_time *. (1. +. infeasibility_tolerance) in
  if bad then Int_tbl.replace t.path_bad path () else Int_tbl.remove t.path_bad path;
  observe_alert t t.a_eq4 ~at
    ~ok:(Int_tbl.length t.path_bad = 0)
    ~value:(float_of_int (Int_tbl.length t.path_bad))

let observe_feasible t ~at ~resources_ok ~paths_ok =
  observe_alert t t.a_eq3 ~at ~ok:resources_ok ~value:(if resources_ok then 0. else 1.);
  observe_alert t t.a_eq4 ~at ~ok:paths_ok ~value:(if paths_ok then 0. else 1.)

let observe_recovery t ~at ~ok ~value = observe_alert t t.a_recovery ~at ~ok ~value

let set_baseline t ~at v =
  t.baseline <- Some v;
  emit_transition t ~at (Trace.Note { name = "monitor.baseline"; value = v })

(* --- trace-driven feed ------------------------------------------------- *)

let sink t (r : Trace.record) =
  match r.Trace.event with
  | Trace.Iteration { utility; _ } ->
    t.saw_iteration <- true;
    observe_utility t ~at:r.Trace.at utility
  | Trace.Allocation_solved { task; utility } ->
    if not t.saw_iteration then begin
      (* Rebuild the global objective as Series.utility does, but with
         the expected task count supplied up front: sample once every
         task has reported, keeping a running sum (O(1) per event). *)
      let prev = match Int_tbl.find t.latest task with u -> u | exception Not_found -> 0. in
      Int_tbl.replace t.latest task utility;
      t.latest_sum <- t.latest_sum +. utility -. prev;
      match t.tasks with
      | Some n when Int_tbl.length t.latest >= n ->
        observe_utility t ~at:r.Trace.at t.latest_sum
      | _ -> ()
    end
  | Trace.Price_updated { resource; share_sum; capacity; _ } ->
    observe_load t ~at:r.Trace.at ~resource
      ~load:(if capacity > 0. then share_sum /. capacity else infinity)
  | Trace.Path_price_updated { path; latency; critical_time; _ } ->
    observe_path_slack t ~at:r.Trace.at ~path ~latency ~critical_time
  | Trace.Alert_raised _ | Trace.Alert_cleared _ -> ()
  | _ -> ()

let attach t trace =
  Trace.attach trace (sink t);
  t.emit <- Some (fun ~at event -> Trace.emit trace ~at event)

(* --- readouts ---------------------------------------------------------- *)

let settling_tick t =
  match t.settle with
  | Some s -> Settle.settled_since s
  | None -> settling_against_last ~tolerance t.series

let overload_episodes t ~resource =
  match Int_tbl.find_opt t.res resource with
  | None -> []
  | Some st ->
    List.rev (match st.ep_open with None -> st.eps_rev | Some ep -> ep :: st.eps_rev)

let resources_seen t = List.rev t.res_order

let utility_samples t = Lla_stdx.Series.length t.series

let last_utility t = Option.map snd (Lla_stdx.Series.last t.series)

(* --- alert bus readouts ------------------------------------------------ *)

type alert_view = {
  name : string;
  severity : severity;
  active : bool;
  since : float;
  last_value : float;
  raised : int;
  cleared : int;
}

let all_alerts t = [ t.a_eq3; t.a_eq4; t.a_osc; t.a_drift; t.a_div; t.a_recovery ]

let view (a : alert) =
  {
    name = a.a_name;
    severity = a.a_severity;
    active = a.a_active;
    since = a.a_since;
    last_value = a.a_value;
    raised = a.a_raised;
    cleared = a.a_cleared;
  }

let alerts t = List.map view (all_alerts t)

let alerts_raised t = List.fold_left (fun acc a -> acc + a.a_raised) 0 (all_alerts t)

let alerts_cleared t = List.fold_left (fun acc a -> acc + a.a_cleared) 0 (all_alerts t)

let render t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (a : alert) ->
      Printf.bprintf buf "[%s] %-15s %s  raised=%d cleared=%d%s\n"
        (match a.a_severity with Info -> "INFO" | Warning -> "WARN" | Critical -> "CRIT")
        a.a_name
        (if a.a_active then Printf.sprintf "ACTIVE since %.0f" a.a_since else "ok")
        a.a_raised a.a_cleared
        (if Float.is_nan a.a_value then "" else Printf.sprintf " value=%.4g" a.a_value))
    (all_alerts t);
  Printf.bprintf buf "utility: %s over %d samples; settling: %s\n"
    (match last_utility t with Some u -> Printf.sprintf "%.6f" u | None -> "n/a")
    (utility_samples t)
    (match settling_tick t with Some s -> Printf.sprintf "%.0f" s | None -> "not settled");
  Buffer.contents buf
