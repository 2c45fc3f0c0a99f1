(* Tests for the resilience layer: checkpoint store, heartbeat failure
   detection, safe-mode degradation, and their integration in the
   distributed deployment (warm vs cold recovery, divergence containment). *)

module Transport = Lla_transport.Transport
module Distributed = Lla_runtime.Distributed
module Health = Lla_runtime.Health
module Checkpoint = Lla_runtime.Checkpoint
module Safe_mode = Lla_runtime.Safe_mode

(* ------------------------------------------------------------------ *)
(* Checkpoint store                                                    *)
(* ------------------------------------------------------------------ *)

let agent_state ?(price = 12.5) ?(gamma = 2.) ?(lat = [| 10.; 20. |]) () =
  { Checkpoint.price; gamma; lat_view = lat }

let test_checkpoint_roundtrip () =
  let cp = Checkpoint.create ~n_agents:2 ~n_controllers:1 () in
  Alcotest.(check bool) "accepted" true
    (Checkpoint.save_agent cp 0 ~now:100. (agent_state ()));
  (match Checkpoint.restore_agent cp 0 with
  | None -> Alcotest.fail "snapshot lost"
  | Some st ->
    Alcotest.(check (float 0.)) "price" 12.5 st.Checkpoint.price;
    Alcotest.(check (float 0.)) "gamma" 2. st.Checkpoint.gamma;
    (* Restored arrays are copies: mutating one must not corrupt the store. *)
    st.Checkpoint.lat_view.(0) <- nan);
  (match Checkpoint.restore_agent cp 0 with
  | None -> Alcotest.fail "snapshot lost after aliased mutation"
  | Some st -> Alcotest.(check (float 0.)) "isolated" 10. st.Checkpoint.lat_view.(0));
  Alcotest.(check (option (float 0.))) "save time" (Some 100.) (Checkpoint.last_agent_save cp 0);
  Alcotest.(check int) "saves" 1 (Checkpoint.saves cp);
  Alcotest.(check int) "restores" 2 (Checkpoint.restores cp)

let test_checkpoint_rejects_non_finite () =
  let cp = Checkpoint.create ~n_agents:1 ~n_controllers:1 () in
  Alcotest.(check bool) "good snapshot in" true
    (Checkpoint.save_agent cp 0 ~now:50. (agent_state ~price:3. ()));
  Alcotest.(check bool) "nan price refused" false
    (Checkpoint.save_agent cp 0 ~now:60. (agent_state ~price:nan ()));
  Alcotest.(check bool) "inf latency refused" false
    (Checkpoint.save_agent cp 0 ~now:70. (agent_state ~lat:[| 1.; infinity |] ()));
  (* A non-finite save time would stall the save cadence and never age
     out, so it is refused like non-finite state. *)
  Alcotest.(check bool) "nan time refused" false
    (Checkpoint.save_agent cp 0 ~now:nan (agent_state ()));
  Alcotest.(check bool) "inf time refused" false
    (Checkpoint.save_agent cp 0 ~now:infinity (agent_state ()));
  Alcotest.(check int) "rejections counted" 4 (Checkpoint.rejected_saves cp);
  (* The poisoned snapshots must not have clobbered the good one. *)
  (match Checkpoint.restore_agent cp 0 with
  | Some st -> Alcotest.(check (float 0.)) "previous snapshot kept" 3. st.Checkpoint.price
  | None -> Alcotest.fail "good snapshot lost");
  Alcotest.(check (option (float 0.))) "save time kept" (Some 50.)
    (Checkpoint.last_agent_save cp 0);
  let ctl =
    {
      Checkpoint.mu_view = [| 1.; nan |];
      congested_view = [| false; false |];
      lambda = [| 0. |];
      gamma_p = [| 1. |];
    }
  in
  Alcotest.(check bool) "controller nan refused" false
    (Checkpoint.save_controller cp 0 ~now:90. ctl);
  Alcotest.(check bool) "controller nan time refused" false
    (Checkpoint.save_controller cp 0 ~now:nan { ctl with Checkpoint.mu_view = [| 1.; 2. |] });
  Alcotest.(check bool) "controller -inf time refused" false
    (Checkpoint.save_controller cp 0 ~now:neg_infinity
       { ctl with Checkpoint.mu_view = [| 1.; 2. |] });
  Alcotest.(check (option (float 0.))) "no controller snapshot" None
    (Checkpoint.last_controller_save cp 0)

(* ------------------------------------------------------------------ *)
(* Heartbeat failure detection                                         *)
(* ------------------------------------------------------------------ *)

(* Acceptance (c): the detector flags a crashed endpoint within the
   configured timeout (+ one heartbeat and one sweep of slack) and never
   flags a healthy endpoint under a zero-fault transport. *)
let test_health_detects_crash () =
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create engine in
  let victim = Transport.endpoint transport ~name:"victim" in
  let healthy = Transport.endpoint transport ~name:"healthy" in
  let h = Health.create transport in
  Health.watch h victim;
  Health.watch h healthy;
  let transitions = ref [] in
  Health.on_transition h (fun e status ~now ->
      transitions := (Transport.endpoint_name e, status, now) :: !transitions);
  Health.start h;
  let crash_at = 1_000. and outage = 2_000. in
  Transport.schedule_outage transport victim ~at:crash_at ~duration:outage;
  (* Give every watch its own beat-keeping chance, then stop and drain. *)
  Lla_sim.Engine.run_until engine 6_000.;
  Health.stop h;
  Lla_sim.Engine.run engine ();
  (* timeout, one 50 ms heartbeat period, one 25 ms sweep, and delivery *)
  let bound = Health.timeout +. 50. +. 25. +. 10. in
  (match
     List.rev !transitions
     |> List.find_opt (fun (n, s, _) -> n = "victim" && s = Health.Suspect)
   with
  | None -> Alcotest.fail "crashed endpoint never suspected"
  | Some (_, _, at) ->
    Alcotest.(check bool)
      (Printf.sprintf "suspected within %.0f ms (took %.0f)" bound (at -. crash_at))
      true
      (at -. crash_at <= bound));
  (match
     List.rev !transitions
     |> List.find_opt (fun (n, s, _) -> n = "victim" && s = Health.Alive)
   with
  | None -> Alcotest.fail "suspicion never cleared after restart"
  | Some (_, _, at) ->
    Alcotest.(check bool) "cleared after the restart" true (at >= crash_at +. outage));
  Alcotest.(check bool) "healthy endpoint never suspected" true
    (not (List.exists (fun (n, s, _) -> n = "healthy" && s = Health.Suspect) !transitions));
  Alcotest.(check int) "exactly one suspicion" 1 (Health.suspicions h);
  Alcotest.(check int) "exactly one recovery" 1 (Health.recoveries h);
  Alcotest.(check bool) "heartbeats flowed" true (Health.heartbeats_received h > 50)

let test_health_quiet_without_faults () =
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create engine in
  let h = Health.create transport in
  for i = 0 to 4 do
    Health.watch h (Transport.endpoint transport ~name:(Printf.sprintf "e%d" i))
  done;
  Health.start h;
  Lla_sim.Engine.run_until engine 30_000.;
  Alcotest.(check int) "no false suspicions" 0 (Health.suspicions h);
  Alcotest.(check (list string)) "no suspects" []
    (List.map Transport.endpoint_name (Health.suspects h));
  Health.stop h;
  Health.stop h;
  (* idempotent *)
  Lla_sim.Engine.run engine ()

(* ------------------------------------------------------------------ *)
(* Safe-mode state machine                                             *)
(* ------------------------------------------------------------------ *)

let quick_safe_config =
  {
    Safe_mode.default_config with
    Safe_mode.violation_rounds = 3;
    warmup_rounds = 10;
    oscillation_window = 8;
    min_reversals = 4;
    settle_rounds = 3;
    min_safe_time = 100.;
  }

let base_problem () = Lla.Problem.compile (Lla_workloads.Paper_sim.base ())

let test_safe_mode_trips_on_non_finite () =
  let problem = base_problem () in
  let sm = Safe_mode.create ~config:quick_safe_config problem in
  let n_r = Lla.Problem.n_resources problem in
  let lat = Safe_mode.fallback sm in
  let offsets = Array.make (Lla.Problem.n_subtasks problem) 0. in
  let mu = Array.make n_r 1. in
  Alcotest.(check bool) "healthy observation passes" true
    (Safe_mode.observe sm ~now:0. ~mu ~lat ~offsets = None);
  mu.(0) <- nan;
  (match Safe_mode.observe sm ~now:10. ~mu ~lat ~offsets with
  | Some (Safe_mode.Entered { reason }) ->
    Alcotest.(check string) "reason" "price divergence" reason
  | _ -> Alcotest.fail "non-finite price did not trip safe mode");
  Alcotest.(check bool) "in safe mode" true (Safe_mode.in_safe_mode sm);
  (* Exit hysteresis: settled finite prices, but only once the dwell time
     has passed AND the settle streak is long enough. *)
  mu.(0) <- 1.;
  let exited = ref None in
  for i = 1 to 10 do
    match Safe_mode.observe sm ~now:(10. +. (20. *. float_of_int i)) ~mu ~lat ~offsets with
    | Some Safe_mode.Exited when !exited = None -> exited := Some i
    | _ -> ()
  done;
  (match !exited with
  | None -> Alcotest.fail "settled prices never exited safe mode"
  | Some i ->
    (* needs >= settle_rounds observations and >= min_safe_time dwell *)
    Alcotest.(check bool) "hysteresis respected" true (i >= 3));
  Alcotest.(check int) "one entry" 1 (Safe_mode.entries sm);
  Alcotest.(check int) "one exit" 1 (Safe_mode.exits sm)

let test_safe_mode_oscillation_after_warmup_only () =
  let problem = base_problem () in
  let sm = Safe_mode.create ~config:quick_safe_config problem in
  let offsets = Array.make (Lla.Problem.n_subtasks problem) 0. in
  let mu = Array.make (Lla.Problem.n_resources problem) 1. in
  let calm = Safe_mode.fallback sm in
  (* A second feasible assignment far enough from the fallback that
     alternating the two swings the utility by well over the threshold. *)
  let swing = Array.map (fun l -> l *. 0.3) calm in
  let tripped_at = ref None in
  (for i = 1 to 60 do
     if !tripped_at = None then begin
       let lat = if i mod 2 = 0 then calm else swing in
       match Safe_mode.observe sm ~now:(float_of_int i) ~mu ~lat ~offsets with
       | Some (Safe_mode.Entered { reason }) ->
         Alcotest.(check string) "reason" "utility oscillation" reason;
         tripped_at := Some i
       | Some Safe_mode.Exited -> Alcotest.fail "unexpected exit"
       | None -> ()
     end
   done);
  match !tripped_at with
  | None -> Alcotest.fail "oscillation never detected"
  | Some i ->
    Alcotest.(check bool)
      (Printf.sprintf "silent during warmup (tripped at %d)" i)
      true
      (i > quick_safe_config.Safe_mode.warmup_rounds)

(* The trip detectors' exact semantics, driven through [observe_signals]
   with one scripted observation per step: the warmup silence, the
   violation streak's budget (the trip lands on exactly the
   [violation_rounds]-th consecutive violation), the streak and the
   utility window both restarting from empty after every entry and exit
   (also when another trip cut them short), and the oscillation trip
   waiting for a full refilled window. A zero re-entry grace leaves the
   resets as the only thing between an exit and a stale trip. *)
let test_safe_mode_detector_semantics () =
  let problem = base_problem () in
  let config =
    {
      Safe_mode.default_config with
      Safe_mode.violation_rounds = 3;
      warmup_rounds = 2;
      reentry_grace_rounds = 0;
      oscillation_window = 8;
      min_reversals = 4;
      settle_rounds = 2;
      min_safe_time = 0.;
    }
  in
  let sm = Safe_mode.create ~config problem in
  let mu = Array.make (Lla.Problem.n_resources problem) 1. in
  let rep n step = List.init n (fun _ -> step) in
  let quiet kind = (kind, "-") in
  let trip = "entered: sustained infeasibility" in
  let osc_trip = "entered: utility oscillation" in
  let blown = "entered: price divergence" in
  let script =
    List.concat
      [
        (* warmup silence, then v - 1 violations and a feasible sample *)
        rep 4 (quiet `Violating);
        [ quiet `Feasible ];
        rep 2 (quiet `Violating);
        [ (`Violating, trip); quiet `Feasible; (`Feasible, "exited") ];
        (* a price trip cuts a streak short; it restarts from zero *)
        rep 2 (quiet `Violating);
        [ (`Blown, blown) ];
        rep 2 (quiet `Feasible);
        [ (`Feasible, "exited") ];
        rep 2 (quiet `Violating);
        [ (`Violating, trip); quiet `Feasible; (`Feasible, "exited") ];
        (* the oscillation trip needs a full window after the exit *)
        rep 7 (quiet `Oscillating);
        [ (`Oscillating, osc_trip); quiet `Feasible; (`Feasible, "exited") ];
        (* a partial window dropped by an entry does not count *)
        rep 5 (quiet `Oscillating);
        [ (`Blown, blown) ];
        rep 2 (quiet `Feasible);
        [ (`Feasible, "exited") ];
        rep 7 (quiet `Oscillating);
        [ (`Oscillating, osc_trip) ];
      ]
  in
  let show = function
    | None -> "-"
    | Some (Safe_mode.Entered { reason }) -> "entered: " ^ reason
    | Some Safe_mode.Exited -> "exited"
  in
  List.iteri
    (fun i (kind, expected) ->
      let n = i + 1 in
      mu.(0) <- (if kind = `Blown then nan else 1.);
      let utility = if kind = `Oscillating && n mod 2 = 1 then 50. else 100. in
      let feasible = kind <> `Violating in
      let got =
        Safe_mode.observe_signals sm ~now:(10. *. float_of_int n) ~mu ~feasible ~utility
      in
      Alcotest.(check string) (Printf.sprintf "observation %d" n) expected (show got))
    script;
  Alcotest.(check int) "entries" 6 (Safe_mode.entries sm);
  Alcotest.(check int) "exits" 5 (Safe_mode.exits sm)

let test_safe_mode_fallback_feasible () =
  let problem =
    Lla.Problem.compile
      (Lla_workloads.Paper_sim.scaled ~copies:1 ~critical_time_factor:1.5 ())
  in
  let sm = Safe_mode.create problem in
  Alcotest.(check bool) "guaranteed" true (Safe_mode.fallback_guaranteed sm);
  let lat = Safe_mode.fallback sm in
  let offsets = Array.make (Lla.Problem.n_subtasks problem) 0. in
  for r = 0 to Lla.Problem.n_resources problem - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "resource %d within capacity" r)
      true
      (Lla.Problem.share_sum problem r ~lat ~offsets
      <= problem.Lla.Problem.capacities.(r) +. 1e-9)
  done;
  for p = 0 to Lla.Problem.n_paths problem - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "path %d within critical time" p)
      true
      (Lla.Problem.path_latency problem p ~lat
      <= problem.Lla.Problem.paths.(p).Lla.Problem.critical_time +. 1e-9)
  done

(* ------------------------------------------------------------------ *)
(* Integration: warm vs cold recovery                                  *)
(* ------------------------------------------------------------------ *)

let crash_all ~checkpoint () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create engine in
  let resilience =
    {
      Distributed.health = false;
      safe_mode = None;
      checkpoint_period = (if checkpoint then Some 100. else None);
    }
  in
  let d = Distributed.create ~resilience ~transport engine workload in
  Distributed.run d ~duration:20_000.;
  let reference = Distributed.utility d in
  let endpoints =
    List.map
      (fun (r : Lla_model.Resource.t) -> Distributed.agent_endpoint d r.id)
      workload.Lla_model.Workload.resources
    @ List.map
        (fun (task : Lla_model.Task.t) -> Distributed.controller_endpoint d task.id)
        workload.Lla_model.Workload.tasks
  in
  let now = Lla_sim.Engine.now engine in
  List.iter
    (fun e -> Transport.schedule_outage transport e ~at:(now +. 1.) ~duration:500.)
    endpoints;
  Distributed.run d ~duration:501.;
  let rounds_at_heal = Distributed.price_rounds d in
  let last_bad_rounds = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < 20_000. -. 1e-9 do
    Distributed.run d ~duration:10.;
    elapsed := !elapsed +. 10.;
    let gap = Float.abs (Distributed.utility d -. reference) /. Float.abs reference in
    if gap >= 0.01 then last_bad_rounds := Distributed.price_rounds d - rounds_at_heal
  done;
  let final_gap = Float.abs (Distributed.utility d -. reference) /. Float.abs reference in
  (final_gap, !last_bad_rounds, Distributed.warm_restores d, Distributed.cold_restarts d)

(* Acceptance (a): on the same seeded crash schedule, a checkpoint restart
   reconverges in strictly fewer price rounds than a cold restart. *)
let test_warm_beats_cold_recovery () =
  let cold_gap, cold_rounds, cold_warms, cold_colds = crash_all ~checkpoint:false () in
  let warm_gap, warm_rounds, warm_warms, warm_colds = crash_all ~checkpoint:true () in
  Alcotest.(check bool) "cold run recovered" true (cold_gap < 0.01);
  Alcotest.(check bool) "warm run recovered" true (warm_gap < 0.01);
  Alcotest.(check bool) "cold restart actually pays a transient" true (cold_rounds > 0);
  Alcotest.(check bool)
    (Printf.sprintf "warm reconverges in strictly fewer price rounds (%d < %d)" warm_rounds
       cold_rounds)
    true (warm_rounds < cold_rounds);
  Alcotest.(check int) "no warm restores without checkpoints" 0 cold_warms;
  Alcotest.(check bool) "all restarts cold without checkpoints" true (cold_colds >= 11);
  Alcotest.(check bool) "all restarts warm with checkpoints" true (warm_warms >= 11);
  Alcotest.(check int) "no cold restarts with checkpoints" 0 warm_colds

(* ------------------------------------------------------------------ *)
(* Integration: whole-node crash drill                                 *)
(* ------------------------------------------------------------------ *)

(* Whole-node crash with a journal: every actor restores warm from the
   replayed records, the double replay is idempotent, nobody resurrects
   non-finite state, and the deployment reconverges. Without a journal
   the same drill restarts everyone cold. *)
let test_whole_node_crash_restart () =
  let module Journal = Lla_durable.Journal in
  let run ~journal () =
    let workload = Lla_workloads.Paper_sim.base () in
    let engine = Lla_sim.Engine.create () in
    let transport = Transport.create engine in
    let resilience =
      {
        Distributed.health = false;
        safe_mode = None;
        checkpoint_period = Some 100.;
      }
    in
    let j = if journal then Some (Journal.create (Journal.Store.faulty ())) else None in
    let d = Distributed.create ?journal:j ~resilience ~transport engine workload in
    Distributed.run d ~duration:20_000.;
    let reference = Distributed.utility d in
    Distributed.crash_restart d;
    Distributed.run d ~duration:20_000.;
    let gap = Float.abs (Distributed.utility d -. reference) /. Float.abs reference in
    (Distributed.crash_stats d, Distributed.journal_enabled d, gap)
  in
  let s, enabled, gap = run ~journal:true () in
  Alcotest.(check bool) "journal enabled" true enabled;
  Alcotest.(check int) "one crash" 1 s.Distributed.crashes;
  Alcotest.(check bool) "records replayed" true (s.Distributed.replayed > 0);
  Alcotest.(check bool) "every actor warm" true (s.Distributed.warm > 0 && s.Distributed.cold = 0);
  Alcotest.(check int) "nobody resurrected non-finite state" 0 s.Distributed.resurrected;
  Alcotest.(check bool) "double replay idempotent" true s.Distributed.idempotent;
  Alcotest.(check bool) "reconverged after the crash" true (gap < 0.01);
  let s, enabled, gap = run ~journal:false () in
  Alcotest.(check bool) "no journal" false enabled;
  Alcotest.(check int) "nothing replayed" 0 s.Distributed.replayed;
  Alcotest.(check bool) "every actor cold" true (s.Distributed.cold > 0 && s.Distributed.warm = 0);
  Alcotest.(check bool) "cold restart still reconverges" true (gap < 0.01)

(* ------------------------------------------------------------------ *)
(* Integration: safe-mode containment of a forced divergence           *)
(* ------------------------------------------------------------------ *)

(* Acceptance (b): during an induced price divergence (fixed gamma = 64)
   safe mode keeps every enacted resource share sum within B_r and every
   path within its critical time, and the system re-enters optimization
   once prices settle. *)
let test_safe_mode_contains_divergence () =
  let workload = Lla_workloads.Paper_sim.scaled ~copies:1 ~critical_time_factor:1.5 () in
  let problem = Lla.Problem.compile workload in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create engine in
  let config =
    { Distributed.default_config with Distributed.step_policy = Lla.Step_size.fixed 64. }
  in
  let resilience =
    {
      Distributed.default_resilience with
      Distributed.health = false;
      checkpoint_period = None;
    }
  in
  let d = Distributed.create ~config ~resilience ~transport engine workload in
  let n_sub = Lla.Problem.n_subtasks problem in
  let lat = Array.make n_sub 0. in
  let offsets = Array.make n_sub 0. in
  let safe_samples = ref 0 in
  let elapsed = ref 0. in
  while !elapsed < 20_000. -. 1e-9 do
    Distributed.run d ~duration:50.;
    elapsed := !elapsed +. 50.;
    if Distributed.in_safe_mode d then begin
      incr safe_samples;
      for i = 0 to n_sub - 1 do
        lat.(i) <- Distributed.latency d problem.Lla.Problem.subtasks.(i).Lla.Problem.sid
      done;
      for r = 0 to Lla.Problem.n_resources problem - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "share sum on r%d within B_r at %.0f ms" r !elapsed)
          true
          (Lla.Problem.share_sum problem r ~lat ~offsets
          <= problem.Lla.Problem.capacities.(r) +. 1e-9)
      done;
      for p = 0 to Lla.Problem.n_paths problem - 1 do
        Alcotest.(check bool)
          (Printf.sprintf "path %d within critical time at %.0f ms" p !elapsed)
          true
          (Lla.Problem.path_latency problem p ~lat
          <= problem.Lla.Problem.paths.(p).Lla.Problem.critical_time +. 1e-9)
      done
    end
  done;
  Alcotest.(check bool) "divergence was detected" true (Distributed.safe_entries d >= 1);
  Alcotest.(check bool) "safe mode actually held" true (!safe_samples > 10);
  Alcotest.(check bool) "re-entered optimization after prices settled" true
    (Distributed.safe_exits d >= 1)

(* A healthy adaptive run must never trip the watchdog: the resilience
   layer defaults to observing, not interfering. *)
let test_safe_mode_quiet_on_healthy_run () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create engine in
  let resilience =
    {
      Distributed.default_resilience with
      Distributed.health = false;
      checkpoint_period = None;
    }
  in
  let d = Distributed.create ~resilience ~transport engine workload in
  Distributed.run d ~duration:60_000.;
  Alcotest.(check int) "no safe-mode entries" 0 (Distributed.safe_entries d);
  Alcotest.(check bool) "still optimizing" false (Distributed.in_safe_mode d);
  (* And the trajectory still reaches the synchronous optimum. *)
  let solver = Lla.Solver.create workload in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:3000);
  let gap =
    Float.abs (Distributed.utility d -. Lla.Solver.utility solver)
    /. Float.abs (Lla.Solver.utility solver)
  in
  Alcotest.(check bool) "utility gap < 2%" true (gap < 0.02)

(* ------------------------------------------------------------------ *)
(* Integration: admission churn concurrent with transport faults       *)
(* ------------------------------------------------------------------ *)

let churn_task ~id ~exec ~period ~critical_time =
  let open Lla_model in
  let tid = Ids.Task_id.make id in
  let subtasks =
    List.init 2 (fun j ->
        Subtask.make ~id:((id * 10) + j) ~task:tid ~resource:j ~exec_time:exec ())
  in
  Task.make_exn ~id ~subtasks
    ~graph:(Graph.chain (List.map (fun (s : Subtask.t) -> s.id) subtasks))
    ~critical_time
    ~utility:(Utility.linear ~k:2. ~critical_time)
    ~trigger:(Trigger.periodic ~period ())
    ()

let split_endpoints d (workload : Lla_model.Workload.t) =
  ( List.map
      (fun (r : Lla_model.Resource.t) -> Distributed.agent_endpoint d r.id)
      workload.Lla_model.Workload.resources,
    List.map
      (fun (task : Lla_model.Task.t) -> Distributed.controller_endpoint d task.id)
      workload.Lla_model.Workload.tasks )

(* Tasks admitted/removed while the network is partitioned must leave the
   post-churn deployment Eq.3-feasible once the partition heals. The
   admission controller decides on its offline probe; the distributed
   runtime then has to carry that decision through a still-partitioned
   fabric without ending up oversubscribed. *)
let test_admission_churn_mid_partition () =
  let resources =
    [ Lla_model.Resource.make ~availability:0.35 0; Lla_model.Resource.make ~availability:0.35 1 ]
  in
  let controller = Lla.Admission.create ~probe_iterations:1500 ~resources () in
  List.iter
    (fun id ->
      match
        Lla.Admission.try_admit controller
          (churn_task ~id ~exec:5. ~period:200. ~critical_time:100.)
      with
      | Lla.Admission.Admitted _ -> ()
      | Lla.Admission.Rejected { reason } ->
        Alcotest.fail (Printf.sprintf "task %d should fit: %s" id reason))
    [ 1; 2; 3 ];
  let w1 = Option.get (Lla.Admission.workload controller) in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create engine in
  let resilience =
    { Distributed.default_resilience with Distributed.health = false; checkpoint_period = None }
  in
  let d1 = Distributed.create ~resilience ~transport engine w1 in
  Distributed.run d1 ~duration:12_000.;
  (* Cut agents from controllers for 4 s, then churn 2 s into the cut. *)
  let agents1, controllers1 = split_endpoints d1 w1 in
  Transport.partition transport
    ~at:(Lla_sim.Engine.now engine +. 1.)
    ~duration:4_000. ~group_a:agents1 ~group_b:controllers1;
  Distributed.run d1 ~duration:2_000.;
  Alcotest.(check bool) "retire mid-partition" true
    (Lla.Admission.retire controller (Lla_model.Ids.Task_id.make 2));
  (match
     Lla.Admission.try_admit controller
       (churn_task ~id:4 ~exec:6.5 ~period:200. ~critical_time:100.)
   with
  | Lla.Admission.Admitted _ -> ()
  | Lla.Admission.Rejected { reason } ->
    Alcotest.fail ("heavier replacement should fit the freed headroom: " ^ reason));
  let w2 = Option.get (Lla.Admission.workload controller) in
  (* Redeploy over the post-churn set on the same (still partitioned)
     fabric; the fresh endpoints inherit their own cut for the remaining
     2 s of the window. *)
  Distributed.stop d1;
  let d2 = Distributed.create ~resilience ~transport engine w2 in
  let agents2, controllers2 = split_endpoints d2 w2 in
  Transport.partition transport
    ~at:(Lla_sim.Engine.now engine +. 1.)
    ~duration:2_000. ~group_a:agents2 ~group_b:controllers2;
  Distributed.run d2 ~duration:2_100.;
  (* Partition healed; give the gradient time to settle, then hold the
     enacted assignment to Eq.3 within a 10% operational tolerance. *)
  Distributed.run d2 ~duration:15_000.;
  let problem = Lla.Problem.compile w2 in
  let n_sub = Lla.Problem.n_subtasks problem in
  let lat = Array.make n_sub 0. in
  for i = 0 to n_sub - 1 do
    lat.(i) <- Distributed.latency d2 problem.Lla.Problem.subtasks.(i).Lla.Problem.sid
  done;
  let offsets = Array.make n_sub 0. in
  for r = 0 to Lla.Problem.n_resources problem - 1 do
    let used = Lla.Problem.share_sum problem r ~lat ~offsets in
    let cap = problem.Lla.Problem.capacities.(r) in
    Alcotest.(check bool)
      (Printf.sprintf "Eq.3 on r%d after heal (used %.4f vs cap %.4f)" r used cap)
      true
      (used <= cap *. 1.10)
  done;
  Alcotest.(check bool) "post-churn utility finite" true
    (Float.is_finite (Distributed.utility d2));
  Alcotest.(check int) "accepted set restored to three" 3
    (List.length (Lla.Admission.admitted controller))

(* ------------------------------------------------------------------ *)
(* Regression: stop with messages in flight mid-partition              *)
(* ------------------------------------------------------------------ *)

(* [stop] cancels the tick loops but deliberately leaves in-flight
   transport events — delayed deliveries and scheduled retries — to drain
   on their own. With a retry policy and an open partition, that drain
   must still terminate (retries are attempt-bounded even when every
   attempt is cut) and must not tick any actor after the stop. *)
let test_stop_mid_partition_drains () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let config =
    {
      Transport.default_config with
      Transport.policy =
        {
          Transport.retry = Some { Transport.timeout = 40.; backoff = 2.; max_attempts = 6; jitter = 0. };
          last_write_wins = true;
        };
    }
  in
  let transport = Transport.create ~config engine in
  let resilience =
    { Distributed.default_resilience with Distributed.health = false; checkpoint_period = None }
  in
  let d = Distributed.create ~resilience ~transport engine workload in
  Distributed.run d ~duration:5_000.;
  let agents, controllers = split_endpoints d workload in
  Transport.partition transport
    ~at:(Lla_sim.Engine.now engine +. 1.)
    ~duration:60_000. ~group_a:agents ~group_b:controllers;
  (* Leave the run mid-partition, with retries queued on both sides of
     the cut. *)
  Distributed.run d ~duration:500.;
  Distributed.stop d;
  let rounds = Distributed.price_rounds d in
  let sent = Distributed.messages_sent d in
  let stopped_at = Lla_sim.Engine.now engine in
  (* Would never return if a tick loop survived [stop]. *)
  Lla_sim.Engine.run engine ();
  Alcotest.(check int) "event queue fully drained" 0 (Lla_sim.Engine.pending engine);
  Alcotest.(check int) "no price rounds after stop" rounds (Distributed.price_rounds d);
  Alcotest.(check int) "no sends after stop" sent (Distributed.messages_sent d);
  (* Bounded backoff: 40 * (1+2+4+8+16) < 2 s of retry tail, nowhere near
     the 60 s heal — the drain must not wait out the partition. *)
  Alcotest.(check bool)
    (Printf.sprintf "drain ends on the retry tail, not the heal (%.0f ms)"
       (Lla_sim.Engine.now engine -. stopped_at))
    true
    (Lla_sim.Engine.now engine < stopped_at +. 5_000.)

let () =
  Alcotest.run "lla_resilience"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "save/restore roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "non-finite snapshots refused" `Quick
            test_checkpoint_rejects_non_finite;
        ] );
      ( "health",
        [
          Alcotest.test_case "detects crash within timeout" `Quick test_health_detects_crash;
          Alcotest.test_case "quiet under zero faults" `Quick test_health_quiet_without_faults;
        ] );
      ( "safe-mode",
        [
          Alcotest.test_case "trips on non-finite price, exits with hysteresis" `Quick
            test_safe_mode_trips_on_non_finite;
          Alcotest.test_case "oscillation detector respects warmup" `Quick
            test_safe_mode_oscillation_after_warmup_only;
          Alcotest.test_case "detector semantics pinned" `Quick test_safe_mode_detector_semantics;
          Alcotest.test_case "fallback is feasible" `Quick test_safe_mode_fallback_feasible;
        ] );
      ( "integration",
        [
          Alcotest.test_case "warm restart beats cold restart" `Slow test_warm_beats_cold_recovery;
          Alcotest.test_case "whole-node crash drill" `Slow test_whole_node_crash_restart;
          Alcotest.test_case "safe mode contains forced divergence" `Slow
            test_safe_mode_contains_divergence;
          Alcotest.test_case "watchdog quiet on a healthy run" `Slow
            test_safe_mode_quiet_on_healthy_run;
          Alcotest.test_case "admission churn mid-partition stays Eq.3-feasible" `Slow
            test_admission_churn_mid_partition;
          Alcotest.test_case "stop drains in-flight messages mid-partition" `Quick
            test_stop_mid_partition_drains;
        ] );
    ]
