(* Tests for the runtime: cluster, dispatcher (precedence semantics),
   optimizer loop, whole-system emulation, and the distributed
   message-passing LLA. *)

open Lla_model
module Cluster = Lla_runtime.Cluster
module Dispatcher = Lla_runtime.Dispatcher

let check_close ?(eps = 1e-6) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

(* A diamond task on four dedicated CPUs — exercises fork/join precedence. *)
let diamond_workload ?(period = 100.) () =
  let tid = Ids.Task_id.make 1 in
  let s ~id ~r ~e = Subtask.make ~id ~task:tid ~resource:r ~exec_time:e () in
  let root = s ~id:0 ~r:0 ~e:2. in
  let left = s ~id:1 ~r:1 ~e:4. in
  let right = s ~id:2 ~r:2 ~e:8. in
  let join = s ~id:3 ~r:3 ~e:2. in
  let task =
    Task.make_exn ~id:1
      ~subtasks:[ root; left; right; join ]
      ~graph:
        (Graph.make_exn
           ~nodes:[ root.id; left.id; right.id; join.id ]
           ~edges:[ (root.id, left.id); (root.id, right.id); (left.id, join.id); (right.id, join.id) ])
      ~critical_time:100.
      ~utility:(Utility.negative_latency ())
      ~trigger:(Trigger.periodic ~period ())
      ()
  in
  Workload.make_exn ~tasks:[ task ] ~resources:(List.init 4 (fun i -> Resource.make i))

(* ------------------------------------------------------------------ *)
(* Cluster                                                             *)
(* ------------------------------------------------------------------ *)

let test_cluster_share_enactment () =
  let engine = Lla_sim.Engine.create () in
  let cluster = Cluster.create engine (diamond_workload ()) in
  let sid = Ids.Subtask_id.make 1 in
  check_close "initial share 0" 0. (Cluster.share cluster sid);
  Cluster.set_share cluster sid 0.4;
  check_close "share set" 0.4 (Cluster.share cluster sid);
  Alcotest.(check int) "no backlog" 0 (Cluster.backlog cluster sid)

let test_cluster_submit_runs_job () =
  let engine = Lla_sim.Engine.create () in
  let cluster = Cluster.create engine (diamond_workload ()) in
  let sid = Ids.Subtask_id.make 0 in
  Cluster.set_share cluster sid 1.0;
  let finish = ref nan in
  Cluster.submit cluster sid ~work:3. ~on_complete:(fun t -> finish := t);
  Lla_sim.Engine.run engine ();
  check_close ~eps:0.5 "job served" 3. !finish

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let with_system ?(work_model = Dispatcher.Wcet) workload f =
  let engine = Lla_sim.Engine.create () in
  let cluster = Cluster.create engine workload in
  (* Give every subtask a generous share so jobs flow. *)
  List.iter (fun (s : Subtask.t) -> Cluster.set_share cluster s.id 0.24)
    (Workload.subtasks workload);
  let dispatcher = Dispatcher.create ~work_model ~cluster () in
  f engine cluster dispatcher

let test_dispatcher_precedence () =
  with_system (diamond_workload ~period:1000. ()) (fun engine _ dispatcher ->
      let completions = ref [] in
      Dispatcher.on_subtask_completion dispatcher (fun sid ~latency:_ ~now ->
          completions := (Ids.Subtask_id.to_int sid, now) :: !completions);
      Dispatcher.start dispatcher;
      (* The first periodic release fires at t = period (1000 ms). *)
      Lla_sim.Engine.run_until engine 1999.;
      let completions = List.rev !completions in
      Alcotest.(check int) "four subtask jobs" 4 (List.length completions);
      let time_of id = List.assoc id completions in
      Alcotest.(check bool) "root before branches" true
        (time_of 0 <= time_of 1 && time_of 0 <= time_of 2);
      Alcotest.(check bool) "join strictly after both branches" true
        (time_of 3 > time_of 1 && time_of 3 > time_of 2))

let test_dispatcher_task_latency_is_leaf_max () =
  with_system (diamond_workload ~period:1000. ()) (fun engine _ dispatcher ->
      let task_latency = ref nan and join_done = ref nan and released = 1000. in
      Dispatcher.on_task_completion dispatcher (fun _ ~latency ~now:_ -> task_latency := latency);
      Dispatcher.on_subtask_completion dispatcher (fun sid ~latency:_ ~now ->
          if Ids.Subtask_id.to_int sid = 3 then join_done := now);
      Dispatcher.start dispatcher;
      Lla_sim.Engine.run_until engine 1999.;
      check_close "end-to-end = join completion - release" (!join_done -. released) !task_latency;
      Alcotest.(check int) "one completion" 1 (Dispatcher.completions dispatcher))

let test_dispatcher_overlapping_job_sets () =
  (* Period shorter than the makespan: releases overlap; all must finish
     (shares keep up: utilization is low). *)
  with_system (diamond_workload ~period:20. ()) (fun engine _ dispatcher ->
      Dispatcher.start dispatcher;
      Lla_sim.Engine.run_until engine 2000.;
      Alcotest.(check bool) "many releases" true (Dispatcher.releases dispatcher >= 90);
      Alcotest.(check bool) "releases complete" true
        (Dispatcher.completions dispatcher >= Dispatcher.releases dispatcher - 5))

let test_dispatcher_work_model () =
  (* Uniform_fraction jobs must be strictly cheaper than WCET on average. *)
  let measure work_model =
    with_system ~work_model (diamond_workload ~period:50. ()) (fun engine _ dispatcher ->
        let stats = Lla_stdx.Stats.create () in
        Dispatcher.on_task_completion dispatcher (fun _ ~latency ~now:_ ->
            Lla_stdx.Stats.add stats latency);
        Dispatcher.start dispatcher;
        Lla_sim.Engine.run_until engine 5000.;
        Lla_stdx.Stats.mean stats)
  in
  let wcet = measure Dispatcher.Wcet in
  let varied = measure (Dispatcher.Uniform_fraction { lo = 0.4 }) in
  Alcotest.(check bool)
    (Printf.sprintf "varied work is faster on average (%.2f < %.2f)" varied wcet)
    true (varied < wcet)

let test_dispatcher_double_start_rejected () =
  with_system (diamond_workload ()) (fun _ _ dispatcher ->
      Dispatcher.start dispatcher;
      Alcotest.(check bool) "second start raises" true
        (try
           Dispatcher.start dispatcher;
           false
         with Invalid_argument _ -> true))

let test_dispatcher_deterministic () =
  let run () =
    with_system
      ~work_model:(Dispatcher.Uniform_fraction { lo = 0.5 })
      (diamond_workload ~period:30. ())
      (fun engine _ dispatcher ->
        let acc = ref 0. in
        Dispatcher.on_task_completion dispatcher (fun _ ~latency ~now:_ -> acc := !acc +. latency);
        Dispatcher.start dispatcher;
        Lla_sim.Engine.run_until engine 3000.;
        !acc)
  in
  check_close ~eps:0. "identical accumulated latency" (run ()) (run ())


let test_dispatcher_measured_rate () =
  with_system (diamond_workload ~period:50. ()) (fun engine _ dispatcher ->
      let tid = Ids.Task_id.make 1 in
      Alcotest.(check (option (float 0.))) "no rate before releases" None
        (Dispatcher.measured_rate dispatcher tid);
      Dispatcher.start dispatcher;
      Lla_sim.Engine.run_until engine 5_000.;
      match Dispatcher.measured_rate dispatcher tid with
      | None -> Alcotest.fail "expected a measured rate"
      | Some rate -> check_close ~eps:1e-6 "1 / period" 0.02 rate)


let test_dispatcher_conservation () =
  (* Releases = completions + in-flight, and every subtask completion count
     matches the release count per task when the run drains. *)
  with_system (diamond_workload ~period:40. ()) (fun engine _ dispatcher ->
      let subtask_completions = Hashtbl.create 8 in
      Dispatcher.on_subtask_completion dispatcher (fun sid ~latency:_ ~now:_ ->
          let k = Ids.Subtask_id.to_int sid in
          Hashtbl.replace subtask_completions k
            (1 + Option.value (Hashtbl.find_opt subtask_completions k) ~default:0));
      Dispatcher.start dispatcher;
      Lla_sim.Engine.run_until engine 4000.;
      Alcotest.(check int) "conservation" (Dispatcher.releases dispatcher)
        (Dispatcher.completions dispatcher + Dispatcher.in_flight dispatcher);
      (* Give in-flight job sets time to drain (no new releases are needed:
         run_until keeps serving pending work). *)
      Lla_sim.Engine.run_until engine 4200.;
      List.iter
        (fun k ->
          Alcotest.(check int)
            (Printf.sprintf "subtask %d completions" k)
            (Dispatcher.completions dispatcher)
            (Option.value (Hashtbl.find_opt subtask_completions k) ~default:0))
        [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Optimizer loop and system                                           *)
(* ------------------------------------------------------------------ *)

let test_system_enacts_solver_shares () =
  let workload = Lla_workloads.Prototype.workload () in
  let system = Lla_runtime.System.create workload in
  Lla_runtime.System.run system ~until:5_000.;
  let opt = Lla_runtime.System.optimizer system in
  let solver = Lla_runtime.Optimizer_loop.solver opt in
  List.iter
    (fun (s : Subtask.t) ->
      let enacted = Cluster.share (Lla_runtime.System.cluster system) s.id in
      check_close ~eps:1e-6 "cluster share = solver share" (Lla.Solver.share solver s.id) enacted)
    (Workload.subtasks workload)

let test_system_jobs_meet_deadlines () =
  let workload = Lla_workloads.Prototype.workload () in
  let system = Lla_runtime.System.create workload in
  Lla_runtime.System.run system ~until:30_000.;
  List.iter
    (fun (task : Task.t) ->
      let stats = Lla_runtime.System.task_latency_stats system task.Task.id in
      let misses = Lla_runtime.System.deadline_misses system task.Task.id in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d jobs, %d misses" task.Task.name stats.Lla_stdx.Stats.n misses)
        true
        (stats.Lla_stdx.Stats.n > 100 && misses * 100 < stats.Lla_stdx.Stats.n))
    workload.Workload.tasks

let test_system_error_correction_reaches_stability_floor () =
  (* The Fig. 8 integration check: after error correction the fast subtasks
     sit at the 0.2 rate-stability share and slow subtasks near 0.25. *)
  let workload = Lla_workloads.Prototype.workload () in
  let optimizer =
    {
      Lla_runtime.Optimizer_loop.default_config with
      error_correction = `Enabled_at 20_000.;
      iterations_per_round = 100;
    }
  in
  let config = { Lla_runtime.System.default_config with optimizer } in
  let system = Lla_runtime.System.create ~config workload in
  Lla_runtime.System.run system ~until:90_000.;
  let cluster = Lla_runtime.System.cluster system in
  let fast_share = Cluster.share cluster (Ids.Subtask_id.make 10) in
  let slow_share = Cluster.share cluster (Ids.Subtask_id.make 30) in
  check_close ~eps:0.01 "fast at the 0.2 stability floor" 0.2 fast_share;
  check_close ~eps:0.02 "slow at the 0.25 remainder" 0.25 slow_share;
  Alcotest.(check bool) "negative model error (over-prediction)" true
    (Lla_runtime.Optimizer_loop.offset (Lla_runtime.System.optimizer system)
       (Ids.Subtask_id.make 10)
    < 0.)

let test_system_measured_utility_sampled () =
  let workload = Lla_workloads.Prototype.workload () in
  let system = Lla_runtime.System.create workload in
  Lla_runtime.System.run system ~until:10_000.;
  let series = Lla_runtime.System.measured_utility_series system in
  Alcotest.(check bool) "samples recorded" true (Lla_stdx.Series.length series >= 8)


let test_optimizer_enact_threshold () =
  (* With a coarse threshold, converged rounds push no share updates. *)
  let run threshold =
    let workload = Lla_workloads.Prototype.workload () in
    let optimizer =
      { Lla_runtime.Optimizer_loop.default_config with enact_threshold = threshold }
    in
    let config = { Lla_runtime.System.default_config with optimizer } in
    let system = Lla_runtime.System.create ~config workload in
    Lla_runtime.System.run system ~until:20_000.;
    let opt = Lla_runtime.System.optimizer system in
    (Lla_runtime.Optimizer_loop.enactments opt, Lla_runtime.Optimizer_loop.skipped_enactments opt)
  in
  let eager, _ = run 0. in
  let lazy_enactments, lazy_skipped = run 0.05 in
  Alcotest.(check bool)
    (Printf.sprintf "threshold suppresses updates (%d -> %d, %d skipped)" eager lazy_enactments
       lazy_skipped)
    true
    (lazy_enactments < eager && lazy_skipped > 0)

let test_optimizer_per_task_percentiles () =
  (* Per-task percentile mode still drives Fig. 8-style correction. *)
  let workload = Lla_workloads.Prototype.workload () in
  let optimizer =
    {
      Lla_runtime.Optimizer_loop.default_config with
      error_correction = `Enabled_at 10_000.;
      correction_per_task_percentiles = true;
      iterations_per_round = 100;
    }
  in
  let config = { Lla_runtime.System.default_config with optimizer } in
  let system = Lla_runtime.System.create ~config workload in
  Lla_runtime.System.run system ~until:60_000.;
  let fast_share = Cluster.share (Lla_runtime.System.cluster system) (Ids.Subtask_id.make 10) in
  check_close ~eps:0.015 "fast still lands at 0.2" 0.2 fast_share


let test_system_survives_unschedulable_workload () =
  (* Failure injection: enact an infeasible allocation. The schedulers
     normalize oversubscribed shares, so the system keeps running; the
     overload surfaces as deadline misses, not as a crash. *)
  let workload = Lla_workloads.Paper_sim.unschedulable_six () in
  let system = Lla_runtime.System.create workload in
  Lla_runtime.System.run system ~until:10_000.;
  let misses, completions =
    List.fold_left
      (fun (m, c) (task : Task.t) ->
        ( m + Lla_runtime.System.deadline_misses system task.Task.id,
          c + (Lla_runtime.System.task_latency_stats system task.Task.id).Lla_stdx.Stats.n ))
      (0, 0) workload.Workload.tasks
  in
  Alcotest.(check bool) "jobs still complete" true (completions > 100);
  Alcotest.(check bool) "overload shows up as deadline misses" true (misses > 0)

(* ------------------------------------------------------------------ *)
(* Distributed LLA                                                     *)
(* ------------------------------------------------------------------ *)

let test_distributed_matches_synchronous () =
  let workload = Lla_workloads.Paper_sim.base () in
  let solver = Lla.Solver.create workload in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:3000);
  let engine = Lla_sim.Engine.create () in
  let distributed = Lla_runtime.Distributed.create engine workload in
  Lla_runtime.Distributed.run distributed ~duration:60_000.;
  let sync_u = Lla.Solver.utility solver in
  let dist_u = Lla_runtime.Distributed.utility distributed in
  Alcotest.(check bool)
    (Printf.sprintf "utility gap < 2%% (%.2f vs %.2f)" sync_u dist_u)
    true
    (Float.abs (dist_u -. sync_u) /. Float.abs sync_u < 0.02);
  List.iter
    (fun (sid, sync_lat) ->
      let dist_lat = Lla_runtime.Distributed.latency distributed sid in
      Alcotest.(check bool)
        (Printf.sprintf "latency of %s within 10%%" (Ids.Subtask_id.to_string sid))
        true
        (Float.abs (dist_lat -. sync_lat) /. sync_lat < 0.10))
    (Lla.Solver.latencies solver)

let test_distributed_respects_constraints () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let distributed = Lla_runtime.Distributed.create engine workload in
  Lla_runtime.Distributed.run distributed ~duration:60_000.;
  let latency sid = Lla_runtime.Distributed.latency distributed sid in
  let violations = Workload.constraint_violations workload ~latency ~tolerance:0.02 in
  Alcotest.(check (list string)) "no violations" [] violations

let test_distributed_exchanges_messages () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let distributed = Lla_runtime.Distributed.create engine workload in
  Lla_runtime.Distributed.run distributed ~duration:1_000.;
  Alcotest.(check bool) "messages flowed" true
    (Lla_runtime.Distributed.messages_sent distributed > 100);
  Alcotest.(check bool) "price rounds" true (Lla_runtime.Distributed.price_rounds distributed > 50);
  Alcotest.(check bool) "allocation rounds" true
    (Lla_runtime.Distributed.allocation_rounds distributed > 50)

let test_distributed_with_large_delay_still_converges () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let config = { Lla_runtime.Distributed.default_config with message_delay = 8.0 } in
  let distributed = Lla_runtime.Distributed.create ~config engine workload in
  Lla_runtime.Distributed.run distributed ~duration:120_000.;
  let latency sid = Lla_runtime.Distributed.latency distributed sid in
  let violations = Workload.constraint_violations workload ~latency ~tolerance:0.05 in
  Alcotest.(check (list string)) "stale prices tolerated" [] violations

(* stop must be safe to call at any time, any number of times — including
   before start and with the resilience layer's detector and watchdog
   scheduled — and must leave the engine drainable. *)
let test_distributed_stop_idempotent () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let distributed =
    Lla_runtime.Distributed.create
      ~resilience:Lla_runtime.Distributed.default_resilience engine workload
  in
  Lla_runtime.Distributed.stop distributed;
  (* no-op before start *)
  Lla_runtime.Distributed.run distributed ~duration:1_000.;
  let rounds = Lla_runtime.Distributed.price_rounds distributed in
  Lla_runtime.Distributed.stop distributed;
  Lla_runtime.Distributed.stop distributed;
  (* second stop: no-op *)
  Lla_sim.Engine.run engine ();
  (* engine drains: no periodic loop survived *)
  Alcotest.(check int) "no ticks after stop" rounds
    (Lla_runtime.Distributed.price_rounds distributed);
  Alcotest.(check int) "nothing pending" 0 (Lla_sim.Engine.pending engine)

(* ------------------------------------------------------------------ *)
(* Faulty-runtime pin                                                  *)
(* ------------------------------------------------------------------ *)

(* A deployment shaped like perfbench's runtime_faulty: the 6-task
   paper workload with the default resilience layer, a trace carrying
   message records and spans into a streaming monitor, a lossy transport
   (jittered delay, drop, duplicate, reorder, jittered retries,
   last-write-wins), and one agent and one controller outage, each
   restarting warm from its checkpoint. Its trace records every send,
   delivery, loss, price update, allocation, checkpoint and span, so the
   digest below changes with any change of event order or of the
   transport's random draws. *)

module Transport = Lla_transport.Transport
module Monitor = Lla_obs.Monitor
module Distributed = Lla_runtime.Distributed
module P = Lla.Problem

let faulty_transport =
  {
    Transport.delay = Lla_transport.Delay_model.jittered ~base:1. ~jitter:0.5;
    faults = { Transport.drop = 0.08; duplicate = 0.04; reorder = 0.15; reorder_spread = 6. };
    policy =
      {
        Transport.retry =
          Some { Transport.timeout = 40.; backoff = 2.; max_attempts = 6; jitter = 0.4 };
        last_write_wins = true;
      };
    seed = 7;
    delay_window = 1024;
    channel_metrics = true;
  }

let faulty_workload = lazy (Lla_workloads.Paper_sim.scaled ~copies:2 ())

let faulty_optimum =
  lazy
    (Lla_baseline.Centralized.solve (Lazy.force faulty_workload)).Lla_baseline.Centralized.utility

type faulty = {
  engine : Lla_sim.Engine.t;
  dist : Distributed.t;
  transport : Transport.t;
  monitor : Monitor.t;
  problem : P.t;
}

(* [sink] sees every trace record before the monitor does. *)
let deploy_faulty ?sink () =
  let workload = Lazy.force faulty_workload in
  let problem = P.compile workload in
  let engine = Lla_sim.Engine.create () in
  let obs = Lla_obs.create ~trace_io:true ~spans:true () in
  Option.iter (Lla_obs.Trace.attach obs.Lla_obs.trace) sink;
  let transport = Transport.create ~obs ~config:faulty_transport engine in
  let monitor =
    Monitor.create ~tasks:(P.n_tasks problem) ~target:(Lazy.force faulty_optimum) ()
  in
  Monitor.attach monitor obs.Lla_obs.trace;
  let dist =
    Distributed.create ~obs ~resilience:Distributed.default_resilience ~transport engine workload
  in
  Transport.schedule_outage transport
    (Distributed.agent_endpoint dist problem.P.resource_ids.(1))
    ~at:1_000. ~duration:400.;
  Transport.schedule_outage transport
    (Distributed.controller_endpoint dist problem.P.tasks.(2).P.tid)
    ~at:2_000. ~duration:400.;
  { engine; dist; transport; monitor; problem }

(* In 10 ms slices, one control period each, as runtime_faulty drives it. *)
let run_faulty d ~ms =
  for _ = 1 to int_of_float (ms /. 10.) do
    Distributed.run d.dist ~duration:10.
  done

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let add_int b n = Buffer.add_int64_le b (Int64.of_int n)

(* Every trace record of 4 s of simulated time, then the
   transport totals, the engine's and the monitor's counts, and the final
   latencies and prices, all floats by their bits. [Marshal] writes a
   record's floats as their raw 8 bytes, so the record part is bit-exact
   too. *)
let faulty_digest () =
  let b = Buffer.create (1 lsl 20) in
  let sink (r : Lla_obs.Trace.record) =
    Buffer.add_string b (Marshal.to_string r [ Marshal.No_sharing ])
  in
  let d = deploy_faulty ~sink () in
  run_faulty d ~ms:4_000.;
  let records = Buffer.length b in
  let c = Transport.totals d.transport in
  List.iter (add_int b)
    [
      c.sent; c.delivered; c.dropped; c.cut; c.lost_down; c.duplicated; c.retried; c.stale;
      Lla_sim.Engine.events_fired d.engine; Monitor.alerts_raised d.monitor;
      Distributed.warm_restores d.dist;
    ];
  Array.iter
    (fun (s : P.subtask) -> add_float b (Distributed.latency d.dist s.P.sid))
    d.problem.P.subtasks;
  Array.iter (fun r -> add_float b (Distributed.mu d.dist r)) d.problem.P.resource_ids;
  let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
  (records, c, Lla_sim.Engine.events_fired d.engine, digest)

let test_faulty_runtime_pin () =
  let records, c, fired, digest = faulty_digest () in
  Alcotest.(check int) "trace bytes" 7383401 records;
  Alcotest.(check int) "sent" 34282 c.Transport.sent;
  Alcotest.(check int) "events fired" 48719 fired;
  Alcotest.(check string) "faulty runtime digest" "dc9b38b5ea85e8aa2a097b5bd9552598" digest

(* Minor words per control round of the pinned deployment over 3 s of
   simulated time after a 1 s warm-up. [Gc.minor_words] counts every
   word allocated, so the figure is deterministic. It reads 1108.7; the
   budget is that + 10 %. The polymorphic heap, tuple-keyed channel
   tables and per-attempt closures this runtime once had read 1357.2;
   the binary heap of event records, hashed channel and last-write-wins
   tables and polymorphic monitor tables after them 1141.6. *)
let faulty_words_budget = 1219.

let test_faulty_words_per_round () =
  let d = deploy_faulty () in
  let rounds () = Distributed.price_rounds d.dist + Distributed.allocation_rounds d.dist in
  run_faulty d ~ms:1_000.;
  let r0 = rounds () and w0 = Gc.minor_words () in
  run_faulty d ~ms:3_000.;
  let per_round = (Gc.minor_words () -. w0) /. float_of_int (rounds () - r0) in
  if per_round > faulty_words_budget then
    Alcotest.failf "%.1f minor words per round (budget %.0f)" per_round faulty_words_budget

let () =
  Alcotest.run "lla_runtime"
    [
      ( "cluster",
        [
          Alcotest.test_case "share enactment" `Quick test_cluster_share_enactment;
          Alcotest.test_case "job submission" `Quick test_cluster_submit_runs_job;
        ] );
      ( "dispatcher",
        [
          Alcotest.test_case "precedence order" `Quick test_dispatcher_precedence;
          Alcotest.test_case "task latency = last leaf" `Quick
            test_dispatcher_task_latency_is_leaf_max;
          Alcotest.test_case "overlapping job sets" `Quick test_dispatcher_overlapping_job_sets;
          Alcotest.test_case "work model variation" `Quick test_dispatcher_work_model;
          Alcotest.test_case "double start rejected" `Quick test_dispatcher_double_start_rejected;
          Alcotest.test_case "deterministic replay" `Quick test_dispatcher_deterministic;
          Alcotest.test_case "measured arrival rate" `Quick test_dispatcher_measured_rate;
          Alcotest.test_case "conservation law" `Quick test_dispatcher_conservation;
        ] );
      ( "system",
        [
          Alcotest.test_case "enacts solver shares" `Slow test_system_enacts_solver_shares;
          Alcotest.test_case "jobs meet deadlines" `Slow test_system_jobs_meet_deadlines;
          Alcotest.test_case "error correction reaches stability floor (Fig. 8)" `Slow
            test_system_error_correction_reaches_stability_floor;
          Alcotest.test_case "measured utility sampled" `Slow test_system_measured_utility_sampled;
          Alcotest.test_case "enactment threshold (4.4)" `Slow test_optimizer_enact_threshold;
          Alcotest.test_case "per-task correction percentiles (2.1)" `Slow
            test_optimizer_per_task_percentiles;
          Alcotest.test_case "survives an unschedulable workload" `Slow
            test_system_survives_unschedulable_workload;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "matches synchronous optimum" `Slow
            test_distributed_matches_synchronous;
          Alcotest.test_case "respects constraints" `Slow test_distributed_respects_constraints;
          Alcotest.test_case "control traffic" `Quick test_distributed_exchanges_messages;
          Alcotest.test_case "stop is idempotent" `Quick test_distributed_stop_idempotent;
          Alcotest.test_case "tolerates large delays" `Slow
            test_distributed_with_large_delay_still_converges;
          Alcotest.test_case "faulty runtime pin" `Quick test_faulty_runtime_pin;
          Alcotest.test_case "faulty runtime words per round" `Quick test_faulty_words_per_round;
        ] );
    ]
