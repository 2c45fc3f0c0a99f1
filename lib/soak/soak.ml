module Kernel = Lla_scale.Kernel
module Generator = Lla_scale.Generator
module Safe_mode = Lla_runtime.Safe_mode
module Trace = Lla_obs.Trace
module Monitor = Lla_obs.Monitor
module Jsonl = Lla_obs.Jsonl
module Journal = Lla_durable.Journal
module Recovery = Lla_durable.Recovery
module P = Lla.Problem

type ceilings = {
  max_rss_kb : int;
  max_words_per_tick : float;
  min_ticks_per_s : float;
}

type config = {
  subtasks : int;
  resources : int option;
  seed : int;
  horizon : int;
  churn : Churn.params;
  chaos : Rota.params;
  ceilings : ceilings;
  watchdog_every : int;
  health_every : int;
  reconverge_budget : int;
  sustain_budget : int;
  baseline_every : int;
  safe_mode : Safe_mode.config;
  warmstart_iterations : int;
  crash_every : int;
  journal_every : int;
}

(* Relative utility drift allowed against the baseline optimum. *)
let drift_tolerance = 0.25

(* Iterations of each baseline optimum solve. *)
let baseline_iterations = 2_000

let shed_levels = 3

(* Roster fraction shed per degradation rung. *)
let shed_fraction = 0.2

(* Healthy watchdog samples before the ladder climbs back one rung. *)
let recover_after = 50

(* The soak watchdog observes every [watchdog_every] ticks rather than
   every 10 ms, so the safe-mode machine's round counts and dwell are
   re-based to tick units; the oscillation detector is also widened —
   churn moves the active set's utility up and down legitimately, and
   diurnal + flash arrival must not read as divergence. *)
let soak_safe_mode =
  {
    Safe_mode.default_config with
    warmup_rounds = 100;
    reentry_grace_rounds = 20;
    oscillation_threshold = 0.35;
    min_reversals = 12;
    min_safe_time = 2_000.;
  }

let default_config =
  {
    subtasks = 800;
    resources = None;
    seed = 42;
    horizon = 1_000_000;
    churn = Churn.default_params;
    chaos = Rota.default_params;
    ceilings = { max_rss_kb = 2 * 1024 * 1024; max_words_per_tick = 0.; min_ticks_per_s = 0. };
    watchdog_every = 100;
    (* prime cadence: the scale kernel converges to a small limit cycle,
       and a sampling period sharing a factor with the cycle length could
       observe only its infeasible phase *)
    health_every = 47;
    reconverge_budget = 4_000;
    sustain_budget = 2_000;
    baseline_every = 250_000;
    safe_mode = soak_safe_mode;
    warmstart_iterations = 5_000;
    crash_every = 0;
    journal_every = 0;
  }

let smoke_config =
  {
    default_config with
    subtasks = 600;
    horizon = 60_000;
    churn =
      {
        Churn.default_params with
        every = 150;
        diurnal_period = 30_000;
        flash_every = 25_000;
        flash_duration = 3_000;
      };
    chaos = { Rota.every = 15_000; duration = 300 };
    reconverge_budget = 2_500;
    baseline_every = 25_000;
  }

type report = {
  ticks : int;
  elapsed_s : float;
  ticks_per_s : float;
  tasks : int;
  subtasks : int;
  admits : int;
  retires : int;
  chaos_windows : int;
  stalls : int;
  guard_events : int;
  safe_entries : int;
  safe_exits : int;
  degradations : int;
  recoveries : int;
  max_level : int;
  oracle_violations : string list;
  violation_count : int;
  peak_rss_kb : int;
  words_per_tick_early : float;
  words_per_tick_late : float;
  words_per_tick_max : float;
  reconverge_episodes : int;
  worst_settle_ticks : float;
  baseline_checks : int;
  worst_drift : float;
  final_utility : float;
  final_feasible : bool;
  final_active_tasks : int;
  alerts_raised : int;
  alerts_cleared : int;
  crashes : int;
  warm_recoveries : int;
  cold_recoveries : int;
  journal_replayed : int;
  journal_refused : int;
  worst_recovery_ticks : int;
}

(* Journal codec for the kernel iterate: one JSONL record per cadence
   point, replayed last-write-wins at recovery. The encode allocates
   freely, so journal windows are marked [heavy] like baseline
   recomputes. *)
let encode_iterate ~at kernel =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("kind", Jsonl.Str "kernel");
         ("at", Jsonl.Num (float_of_int at));
         ("iteration", Jsonl.Num (float_of_int (Kernel.iteration kernel)));
         ("lat", Jsonl.floats (Kernel.lat_array kernel));
         ("mu", Jsonl.floats (Kernel.mu_array kernel));
         ("lambda", Jsonl.floats (Kernel.lambda_array kernel));
       ])

let decode_iterate line =
  let floats = Jsonl.array_field Jsonl.num in
  match Jsonl.parse line with
  | Error _ -> None
  | Ok json -> (
      match Option.bind (Jsonl.member "kind" json) Jsonl.str with
      | Some "kernel" -> (
          match (floats "lat" json, floats "mu" json, floats "lambda" json) with
          | Some lat, Some mu, Some lambda -> Some (lat, mu, lambda)
          | _ -> None)
      | _ -> None)

let run ?obs ?monitor ?journal ?on_progress config =
  if config.horizon <= 0 then Error "Soak.run: non-positive horizon"
  else if config.watchdog_every <= 0 || config.health_every <= 0 then
    Error "Soak.run: non-positive watchdog/health cadence"
  else
    let params = Generator.sized ?resources:config.resources ~subtasks:config.subtasks () in
    let workload = Generator.generate ~params ~seed:config.seed () in
    let problem = P.compile workload in
    match Kernel.of_problem ?obs ~config:Kernel.scale_config problem with
    | Error e -> Error e
    | Ok kernel ->
        let n_task = P.n_tasks problem in
        (* Shed order: smallest utility slope goes first — the cheapest
           task to lose, per Eq. 1's linear per-task utilities. *)
        let priority k =
          match problem.P.tasks.(k).P.linear_slope with Some s -> Float.abs s | None -> 0.
        in
        let churn =
          Churn.create ~params:config.churn ~seed:(config.seed + 1) ~n_tasks:n_task ~priority ()
        in
        let rota =
          Rota.create ~params:config.chaos ~seed:(config.seed + 2)
            ~n_resources:(Kernel.n_resources kernel) ~n_subtasks:(Kernel.n_subtasks kernel) ()
        in
        let safe = Safe_mode.create ?obs ~config:config.safe_mode problem in
        let fallback_lat = Safe_mode.fallback safe in
        let base_cap = Array.init (Kernel.n_resources kernel) (Kernel.capacity kernel) in
        List.iter (Kernel.retire_task kernel) (Churn.initially_retired churn);
        ignore (Kernel.solve kernel ~max_iterations:config.warmstart_iterations);

        let tol = Monitor.infeasibility_tolerance in
        let mu_cap = Safe_mode.mu_cap in
        let emit now event = Lla_obs.emit_opt obs ~at:(float_of_int now) event in
        (* A supplied streaming monitor rides along at the health cadence
           (utility + Eq. 3/4 feasibility) and gets each Lla_baseline
           checkpoint as its drift reference; its alert transitions land
           in the [?obs] trace. Feeding it reads kernel state only, so
           every decision the ticks make is unchanged. *)
        (match monitor with
        | Some m -> Monitor.on_alert m (fun ~at ev -> Lla_obs.emit_opt obs ~at ev)
        | None -> ());
        let viols = ref [] and viol_n = ref 0 in
        let violate now msg =
          incr viol_n;
          if !viol_n <= 20 then viols := Printf.sprintf "tick %d: %s" now msg :: !viols
        in

        (* Degradation ladder + freeze ownership. The kernel is frozen by
           exactly one owner at a time: the safe-mode machine (whose exit
           hysteresis unfreezes) or the ceiling ladder's bottom rung
           (whose recovery unfreezes). *)
        let level = ref 0 and max_level = ref 0 in
        let degradations = ref 0 and recoveries = ref 0 in
        let healthy = ref 0 in
        let frozen_by = ref `None in
        let safe_entries = ref 0 and safe_exits = ref 0 in

        (* Health-oracle state. [grace_until] covers warmup plus the
           reconvergence window after every chaos window / flash crowd /
           safe-mode exit / shed, during which Eq. 3/4 transients are the
           expected physics, not a violation. *)
        let warmup_until = config.reconverge_budget in
        let grace_until = ref warmup_until in
        let extend_grace until_ = if until_ > !grace_until then grace_until := until_ in
        (* Sustained Eq. 3/4 budgets and the reconvergence probe are the
           shared [Lla_obs.Monitor] detector primitives — one
           implementation for the soak oracles and the live alert bus
           (the agreement with offline [Analyze] is property-tested). *)
        let res_streak = Monitor.Streak.create ~budget:config.sustain_budget in
        let path_streak = Monitor.Streak.create ~budget:config.sustain_budget in
        let probe = ref None in
        let reconv = ref 0 and worst_settle = ref 0. in
        let base_checks = ref 0 and worst_drift = ref 0. in
        let seen_windows = ref 0 in
        let was_flash = ref false in

        (* Whole-node crash drill state. [recovering] holds the crash
           tick while the restarted node climbs back to feasibility. *)
        let crashes = ref 0 and warm_n = ref 0 and cold_n = ref 0 in
        let j_replayed = ref 0 and j_refused = ref 0 in
        let worst_recovery = ref 0 in
        let recovering = ref None in

        let abandon_probe () = probe := None in
        let start_probe now =
          if !frozen_by = `None && now + config.reconverge_budget < config.horizon then
            probe := Some (now, Monitor.Probe.start ())
        in

        let freeze now ~owner ~reason =
          emit now (Trace.Safe_mode_entered { reason; fallback = Safe_mode.fallback_source safe });
          Kernel.enter_fallback kernel ~mu_cap ~lat:fallback_lat;
          Kernel.set_frozen kernel true;
          frozen_by := owner;
          incr safe_entries;
          abandon_probe ();
          Monitor.Streak.reset res_streak;
          Monitor.Streak.reset path_streak
        in
        let unfreeze now =
          Kernel.set_frozen kernel false;
          Kernel.requeue_all kernel;
          emit now Trace.Safe_mode_exited;
          incr safe_exits;
          frozen_by := `None;
          extend_grace (now + config.reconverge_budget);
          start_probe now
        in

        (* The drill: the store loses its unsynced tail (torn per its
           fault config), RAM is gone ([Kernel.crash_reset]), then the
           node restarts warm from the last good journaled iterate — or
           cold when there is no journal, no good record survived, or
           the record is refused ([restore_iterate] rejects non-finite
           components). Recovery progress is judged at the health
           cadence; skipped while frozen (the fallback dwell owns the
           kernel). *)
        let crash_drill now =
          incr crashes;
          emit now (Trace.Note { name = "node.crash"; value = float_of_int !crashes });
          (match journal with
          | Some j -> Journal.Store.crash (Journal.store j)
          | None -> ());
          Kernel.crash_reset kernel;
          let warm =
            match journal with
            | None -> false
            | Some j -> (
                let latest = ref None in
                let apply line =
                  match decode_iterate line with
                  | Some state ->
                      latest := Some state;
                      true
                  | None -> false
                in
                let r = Recovery.replay ?obs ~at:(float_of_int now) j ~apply in
                j_replayed := !j_replayed + r.Recovery.applied;
                j_refused := !j_refused + r.Recovery.refused;
                match !latest with
                | None -> false
                | Some (lat, mu, lambda) -> (
                    match Kernel.restore_iterate kernel ~lat ~mu ~lambda with
                    | Ok () -> true
                    | Error _ -> false))
          in
          if warm then incr warm_n else incr cold_n;
          emit now
            (Trace.Note { name = "node.recovered"; value = (if warm then 1. else 0.) });
          recovering := Some now;
          abandon_probe ();
          Monitor.Streak.reset res_streak;
          Monitor.Streak.reset path_streak;
          extend_grace (now + config.reconverge_budget);
          start_probe now
        in

        let roster = Churn.roster_size churn in
        let apply_cap now =
          let rung = Stdlib.min !level shed_levels in
          let frac = 1. -. (shed_fraction *. float_of_int rung) in
          let cap = Stdlib.max 0 (int_of_float (ceil (frac *. float_of_int roster))) in
          Churn.set_max_active churn cap;
          let excess = Churn.active_in_roster churn - cap in
          if excess > 0 then begin
            List.iter (Kernel.retire_task kernel) (Churn.shed churn ~count:excess);
            extend_grace (now + config.reconverge_budget)
          end
        in
        let degrade now ~reason =
          healthy := 0;
          emit now (Trace.Watchdog_trip { reason });
          if !level < shed_levels then begin
            incr level;
            if !level > !max_level then max_level := !level;
            incr degradations;
            emit now (Trace.Note { name = "soak.degrade"; value = float_of_int !level });
            apply_cap now
          end
          else if !frozen_by = `None then begin
            (* bottom rung: clamp to the fallback rather than die (also
               re-clamps when a safe-mode handoff unfroze early while
               the ceiling is still breached) *)
            if !level = shed_levels then begin
              incr level;
              if !level > !max_level then max_level := !level
            end;
            incr degradations;
            emit now (Trace.Note { name = "soak.degrade"; value = float_of_int !level });
            freeze now ~owner:`Ceiling ~reason
          end
          (* frozen at the bottom: the trip stays recorded, nothing more
             to shed — the run keeps limping instead of crashing *)
        in
        let recover now =
          if !level = shed_levels + 1 && !frozen_by = `Ceiling then unfreeze now;
          decr level;
          incr recoveries;
          healthy := 0;
          apply_cap now;
          emit now (Trace.Note { name = "soak.recover"; value = float_of_int !level })
        in

        (* Baseline drift checkpoints, each preceded by a churn-hold so
           the kernel is judged at a converged point of the frozen active
           set, not mid-transient. *)
        let next_base = ref (if config.baseline_every > 0 then config.baseline_every else max_int) in
        let in_baseline_hold now =
          config.baseline_every > 0
          && now >= !next_base - config.reconverge_budget
          && now < !next_base
        in
        let baseline_check now =
          if !frozen_by = `None && not (Rota.in_window rota ~now) then begin
            let tasks =
              List.filteri
                (fun k _ -> Kernel.task_active kernel k)
                workload.Lla_model.Workload.tasks
            in
            match
              Lla_model.Workload.make ~tasks ~resources:workload.Lla_model.Workload.resources
            with
            | Error _ -> ()
            | Ok sub ->
                let result =
                  Lla_baseline.Centralized.solve ~iterations:baseline_iterations sub
                in
                let b = result.Lla_baseline.Centralized.utility in
                let k_u = Kernel.utility kernel in
                (match monitor with
                | Some m -> Monitor.set_baseline m ~at:(float_of_int now) b
                | None -> ());
                let drift = Monitor.drift ~baseline:b k_u in
                incr base_checks;
                if drift > !worst_drift then worst_drift := drift;
                if drift > drift_tolerance then
                  violate now
                    (Printf.sprintf
                       "utility drift %.3f vs centralized optimum over the active set \
                        (tolerance %.3f)"
                       drift drift_tolerance)
          end
        in

        (* Watchdog sampling state. [heavy] marks windows containing a
           baseline recompute, whose allocation and latency are the drift
           oracle's, not the tick path's. *)
        let wpt_first = ref Float.nan and wpt_last = ref Float.nan and wpt_max = ref 0. in
        let last_words = ref (Gc.minor_words ()) in
        let last_wd_tick = ref 0 in
        (* some kernels omit VmHWM from /proc/self/status, so also track
           the running max of the watchdog's VmRSS samples *)
        let peak_rss = ref 0 in
        let last_wd_time = ref (Unix.gettimeofday ()) in
        let heavy = ref true in

        let watchdog now =
          let words = Gc.minor_words () in
          let tnow = Unix.gettimeofday () in
          let dticks = now - !last_wd_tick in
          let wpt = if dticks > 0 then (words -. !last_words) /. float_of_int dticks else 0. in
          let tps =
            if tnow > !last_wd_time then float_of_int dticks /. (tnow -. !last_wd_time)
            else Float.infinity
          in
          let clean = (not !heavy) && now >= warmup_until in
          if clean then begin
            if Float.is_nan !wpt_first then wpt_first := wpt;
            wpt_last := wpt;
            if wpt > !wpt_max then wpt_max := wpt
          end;
          let c = config.ceilings in
          let rss = Lla_stdx.Proc_status.kb "VmRSS" in
          if rss > !peak_rss then peak_rss := rss;
          let breach =
            if c.max_rss_kb > 0 && rss > c.max_rss_kb then
              Some (Printf.sprintf "VmRSS %d kB over ceiling %d kB" rss c.max_rss_kb)
            else if clean && c.max_words_per_tick > 0. && wpt > c.max_words_per_tick then
              Some (Printf.sprintf "%.0f minor words/tick over budget %.0f" wpt c.max_words_per_tick)
            else if clean && c.min_ticks_per_s > 0. && tps < c.min_ticks_per_s then
              Some (Printf.sprintf "throughput %.0f ticks/s under floor %.0f" tps c.min_ticks_per_s)
            else None
          in
          (match breach with
          | Some reason -> degrade now ~reason
          | None ->
              if !level > 0 then begin
                incr healthy;
                if !healthy >= recover_after then recover now
              end);
          (match
             Safe_mode.observe_signals safe ~now:(float_of_int now) ~mu:(Kernel.mu_array kernel)
               ~feasible:(Kernel.feasible_within kernel ~tol) ~utility:(Kernel.utility kernel)
           with
          | Some (Safe_mode.Entered { reason }) ->
              if !frozen_by = `None then freeze now ~owner:`Machine ~reason
              else begin
                (* tripped while ceiling-frozen (a poison can still blow
                   the price cap): re-clamp/heal, hand the freeze to the
                   machine — its exit hysteresis now owns the unfreeze *)
                emit now
                  (Trace.Safe_mode_entered
                     { reason; fallback = Safe_mode.fallback_source safe });
                Kernel.enter_fallback kernel ~mu_cap ~lat:fallback_lat;
                incr safe_entries;
                frozen_by := `Machine
              end
          | Some Safe_mode.Exited -> if !frozen_by = `Machine then unfreeze now
          | None -> ());
          heavy := false;
          last_words := Gc.minor_words ();
          last_wd_tick := now;
          last_wd_time := Unix.gettimeofday ();
          match on_progress with Some f -> f ~tick:now | None -> ()
        in

        let health now =
          (* One sample per oracle pass: the probe, the streaming monitor
             and both streaks read the same kernel state, and utility is
             O(active tasks) — compute each readout once and share. *)
          let res_ok = Kernel.resources_feasible kernel ~tol in
          let path_ok = Kernel.paths_feasible kernel ~tol in
          let need_u =
            (match !probe with Some _ -> true | None -> false) || Option.is_some monitor
          in
          let u = if need_u then Kernel.utility kernel else nan in
          (match !probe with
          | Some (start, p) ->
              Monitor.Probe.sample p ~at:(float_of_int now) ~value:u;
              if now - start >= config.reconverge_budget then begin
                incr reconv;
                (match Monitor.Probe.settling p with
                | Some ts ->
                    let settle = ts -. float_of_int start in
                    if settle > !worst_settle then worst_settle := settle;
                    if settle > 0.75 *. float_of_int config.reconverge_budget then
                      violate now
                        (Printf.sprintf
                           "slow reconvergence: settled %.0f ticks after the episode at tick \
                            %d (budget %d)"
                           settle start config.reconverge_budget)
                | None ->
                    violate now
                      (Printf.sprintf "no reconvergence within %d ticks of the episode at tick %d"
                         config.reconverge_budget start));
                probe := None
              end
          | None -> ());
          (match monitor with
          | Some m ->
              let at = float_of_int now in
              Monitor.observe_utility m ~at u;
              Monitor.observe_feasible m ~at ~resources_ok:res_ok ~paths_ok:path_ok;
              Kernel.publish_metrics kernel ~at
          | None -> ());
          (* crash-recovery progress: feasibility back within the
             sustain budget ends the episode; staying infeasible past
             it is the violation the [recovery_stuck] alert mirrors *)
          (match !recovering with
          | Some start ->
              let spent = now - start in
              let feasible_again = res_ok && path_ok in
              (match monitor with
              | Some m ->
                  Monitor.observe_recovery m ~at:(float_of_int now)
                    ~ok:(feasible_again || spent <= config.sustain_budget)
                    ~value:(float_of_int spent)
              | None -> ());
              if feasible_again then begin
                if spent > !worst_recovery then worst_recovery := spent;
                emit now (Trace.Note { name = "node.recovery_ticks"; value = float_of_int spent });
                recovering := None
              end
              else if spent > config.sustain_budget + config.reconverge_budget then begin
                violate now
                  (Printf.sprintf
                     "crash recovery stuck: still infeasible %d ticks after the crash at tick %d"
                     spent start);
                if spent > !worst_recovery then worst_recovery := spent;
                recovering := None
              end
          | None -> ());
          if now >= !grace_until && !frozen_by = `None then begin
            (match Monitor.Streak.observe res_streak ~ok:res_ok ~step:config.health_every with
            | Some streak ->
                violate now (Printf.sprintf "sustained Eq.3 infeasibility for ~%d ticks" streak)
            | None -> ());
            match Monitor.Streak.observe path_streak ~ok:path_ok ~step:config.health_every with
            | Some streak ->
                violate now (Printf.sprintf "sustained Eq.4 infeasibility for ~%d ticks" streak)
            | None -> ()
          end
          else begin
            Monitor.Streak.reset res_streak;
            Monitor.Streak.reset path_streak
          end
        in

        let t0 = Unix.gettimeofday () in
        last_wd_time := t0;
        last_words := Gc.minor_words ();
        let tick now =
          (* flash-crowd episode edges: grace + a reconvergence probe at
             the end of each crowd *)
          let flash = Churn.in_flash churn ~now in
          if flash && not !was_flash then was_flash := true
          else if (not flash) && !was_flash then begin
            was_flash := false;
            extend_grace (now + config.reconverge_budget);
            match !probe with None -> start_probe now | Some _ -> ()
          end;
          (* churn, unless a probe / hold / freeze pins the roster *)
          if !frozen_by = `None && !probe = None && not (in_baseline_hold now) then begin
            match Churn.step churn ~now with
            | [] -> ()
            | ops ->
                List.iter
                  (function
                    | Churn.Admit k -> Kernel.admit_task kernel k
                    | Churn.Retire k -> Kernel.retire_task kernel k)
                  ops
          end;
          (* chaos *)
          let stalled = ref false in
          (match Rota.step rota ~now with
          | [] -> ()
          | ops ->
              List.iter
                (function
                  | Rota.Stall -> stalled := true
                  | Rota.Poison { resource; value } -> Kernel.poison_price kernel resource value
                  | Rota.Spike { subtask; magnitude } ->
                      Kernel.disturb_latency kernel subtask magnitude
                  | Rota.Dip { resource; factor } ->
                      Kernel.set_capacity kernel resource (factor *. base_cap.(resource))
                  | Rota.Restore { resource } ->
                      Kernel.set_capacity kernel resource base_cap.(resource))
                ops);
          if Rota.windows rota > !seen_windows then begin
            seen_windows := Rota.windows rota;
            abandon_probe ();
            extend_grace (Rota.last_window_end rota + config.reconverge_budget);
            emit now (Trace.Note { name = "soak.chaos_window"; value = float_of_int !seen_windows })
          end;
          if Rota.last_window_end rota = now then (
            match !probe with None -> start_probe now | Some _ -> ());
          (* whole-node crash drill, before the tick: the restarted node
             re-optimizes from whatever the recovery restored *)
          if
            config.crash_every > 0 && now > 0
            && now mod config.crash_every = 0
            && !frozen_by = `None
          then crash_drill now;
          (* the tick itself (a stall is a lost control tick) *)
          if not !stalled then Kernel.step kernel;
          (* journal cadence: append the post-tick iterate (the encode
             allocates, so the window is marked heavy like a baseline
             recompute) *)
          (match journal with
          | Some j
            when config.journal_every > 0 && now > 0
                 && now mod config.journal_every = 0
                 && !frozen_by = `None && !recovering = None ->
              heavy := true;
              Journal.append j (encode_iterate ~at:now kernel)
          | _ -> ());
          if config.baseline_every > 0 && now = !next_base then begin
            next_base := now + config.baseline_every;
            heavy := true;
            baseline_check now
          end;
          if now > 0 && now mod config.watchdog_every = 0 then watchdog now;
          if now > 0 && now mod config.health_every = 0 then health now
        in
        for now = 0 to config.horizon - 1 do tick now done;

        let elapsed = Unix.gettimeofday () -. t0 in
        Ok
          {
            ticks = config.horizon;
            elapsed_s = elapsed;
            ticks_per_s =
              (if elapsed > 0. then float_of_int config.horizon /. elapsed else 0.);
            tasks = n_task;
            subtasks = Kernel.n_subtasks kernel;
            admits = Churn.admits churn;
            retires = Churn.retires churn;
            chaos_windows = Rota.windows rota;
            stalls = Rota.stalls rota;
            guard_events = Kernel.guard_events kernel;
            safe_entries = !safe_entries;
            safe_exits = !safe_exits;
            degradations = !degradations;
            recoveries = !recoveries;
            max_level = !max_level;
            oracle_violations = List.rev !viols;
            violation_count = !viol_n;
            peak_rss_kb = Stdlib.max (Lla_stdx.Proc_status.kb "VmHWM") !peak_rss;
            words_per_tick_early = (if Float.is_nan !wpt_first then 0. else !wpt_first);
            words_per_tick_late = (if Float.is_nan !wpt_last then 0. else !wpt_last);
            words_per_tick_max = !wpt_max;
            reconverge_episodes = !reconv;
            worst_settle_ticks = !worst_settle;
            baseline_checks = !base_checks;
            worst_drift = !worst_drift;
            final_utility = Kernel.utility kernel;
            final_feasible = Kernel.feasible_within kernel ~tol;
            final_active_tasks = Kernel.n_active_tasks kernel;
            alerts_raised = (match monitor with Some m -> Monitor.alerts_raised m | None -> 0);
            alerts_cleared = (match monitor with Some m -> Monitor.alerts_cleared m | None -> 0);
            crashes = !crashes;
            warm_recoveries = !warm_n;
            cold_recoveries = !cold_n;
            journal_replayed = !j_replayed;
            journal_refused = !j_refused;
            worst_recovery_ticks = !worst_recovery;
          }

let render r =
  let b = Buffer.create 512 in
  Printf.bprintf b "soak: %d ticks over %d tasks / %d subtasks in %.1f s (%.0f ticks/s)\n" r.ticks
    r.tasks r.subtasks r.elapsed_s r.ticks_per_s;
  Printf.bprintf b "  churn: %d admits, %d retires; chaos: %d windows, %d stalled ticks, %d guards\n"
    r.admits r.retires r.chaos_windows r.stalls r.guard_events;
  Printf.bprintf b
    "  ladder: %d degradations (max level %d), %d recoveries; safe mode: %d entries, %d exits\n"
    r.degradations r.max_level r.recoveries r.safe_entries r.safe_exits;
  Printf.bprintf b "  memory: peak RSS %d kB; minor words/tick %.1f -> %.1f (max %.1f)\n"
    r.peak_rss_kb r.words_per_tick_early r.words_per_tick_late r.words_per_tick_max;
  Printf.bprintf b
    "  oracles: %d reconvergence episodes (worst settle %.0f ticks), %d baseline checks (worst \
     drift %.4f)\n"
    r.reconverge_episodes r.worst_settle_ticks r.baseline_checks r.worst_drift;
  if r.alerts_raised > 0 || r.alerts_cleared > 0 then
    Printf.bprintf b "  alerts: %d raised, %d cleared\n" r.alerts_raised r.alerts_cleared;
  if r.crashes > 0 then
    Printf.bprintf b
      "  crashes: %d (%d warm, %d cold); journal: %d replayed, %d refused; worst recovery %d \
       ticks\n"
      r.crashes r.warm_recoveries r.cold_recoveries r.journal_replayed r.journal_refused
      r.worst_recovery_ticks;
  Printf.bprintf b "  final: utility %.3f, feasible %b, %d active tasks\n" r.final_utility
    r.final_feasible r.final_active_tasks;
  if r.violation_count = 0 then Buffer.add_string b "  violations: none"
  else begin
    Printf.bprintf b "  violations: %d\n" r.violation_count;
    List.iter (fun v -> Printf.bprintf b "    - %s\n" v) r.oracle_violations;
    Printf.bprintf b "    (showing %d of %d)" (List.length r.oracle_violations) r.violation_count
  end;
  Buffer.contents b
