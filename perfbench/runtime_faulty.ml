(* runtime_faulty: the paper's 6-task workload (Paper_sim.scaled
   ~copies:2) deployed as message-passing actors on the discrete-event
   engine, with the default resilience layer (health detector, in-memory
   checkpoints, safe-mode watchdog), a trace ring feeding a streaming
   monitor, and a lossy transport: jittered delay, drop / duplicate /
   reorder, jittered retries and last-write-wins. Every
   [outage_period] ms one actor, round-robin, is down for [outage_ms] ms
   and restarts warm from its checkpoint. The run's seed is the
   transport's. No kernel and no journal.

   The simulation advances in 10 ms slices — one control period, in
   which every agent and controller runs one round. After each slice the
   enacted assignment is judged against Eq. 3/4. Deployments are built
   and driven from cold until the first slice that is feasible and
   within the regret bound of the centralized optimum: the measured one,
   which then runs to [sim_ms_per_second * seconds] ms of simulated
   time, and [deployments_per_part] fresh ones before each part of that
   run. *)

module Transport = Lla_transport.Transport
module Delay_model = Lla_transport.Delay_model
module Distributed = Lla_runtime.Distributed
module Checkpoint = Lla_runtime.Checkpoint
module Health = Lla_runtime.Health
module Engine = Lla_sim.Engine
module Monitor = Lla_obs.Monitor
module Oracle = Lla_chaos.Oracle
module P = Lla.Problem

let sim_ms_per_second = 70_000.

let slice_ms = 10.

let warmup_ms = 5_000.

let deployments_per_part = 3

(* The traffic. Every figure is taken from a scenario the repository
   already runs against the distributed runtime:
   - one-way delay 1 ms ± 50 %: the middle point of the delay-jitter
     sweep of [lla_cli chaos] (lib/experiments/chaos.ml: jitters 0 to 1
     around its 1 ms base delay);
   - drop 8 %, duplicate 4 %, reorder 15 % held back by up to 6 ms: the
     faulted transport of the engine golden test
     [test_sim_golden_faulted_transport] (test/test_engine.ml);
   - retry after 40 ms, backing off ×2, at most 6 attempts, under
     last-write-wins: the policy of the resilience test that stops a
     deployment mid-partition (test/test_resilience.ml), with the retry
     jitter 0.4 of the transport's retry-jitter test
     (test/test_transport.ml);
   - outages: the [chaos] scenario of [lla_cli trace] and [lla_cli top]
     takes one agent down a third of the way into its run (10 s by
     default) for a tenth of it. Here that shape recurs every 10 s, one
     actor at a time, round-robin over agents and controllers. *)
let transport_config ~seed =
  {
    Transport.delay = Delay_model.jittered ~base:1. ~jitter:0.5;
    faults = { Transport.drop = 0.08; duplicate = 0.04; reorder = 0.15; reorder_spread = 6. };
    policy =
      {
        Transport.retry =
          Some { Transport.timeout = 40.; backoff = 2.; max_attempts = 6; jitter = 0.4 };
        last_write_wins = true;
      };
    seed;
    delay_window = 1024;
    channel_metrics = true;
  }

let outage_period = 10_000.

let outage_at = outage_period /. 3.

let outage_ms = outage_period /. 10.

(* start times of the outages that begin before [horizon] *)
let outages ~horizon =
  List.init
    (int_of_float (Float.ceil ((horizon -. outage_at) /. outage_period)))
    (fun k -> (float_of_int k *. outage_period) +. outage_at)

let converge_budget_ms = 60_000.

let oracle = Oracle.default_config

let workload = lazy (Lla_workloads.Paper_sim.scaled ~copies:2 ())

(* the offline optimum, solved once per process and never inside a timed
   region *)
let optimum = lazy (Lla_baseline.Centralized.solve (Lazy.force workload)).utility

type deployment = {
  engine : Engine.t;
  dist : Distributed.t;
  transport : Transport.t;
  problem : P.t;
  monitor : Monitor.t;
  feeds : int ref;
}

let deploy (p : Probe.t) ~seed ~horizon =
  let workload = Lazy.force workload in
  let problem = Probe.span p "problem.compile" (fun () -> P.compile workload) in
  Probe.span p "distributed.create" (fun () ->
      let engine = Engine.create () in
      let obs = Probe.required_obs p in
      let transport = Transport.create ~obs ~config:(transport_config ~seed) engine in
      let monitor = Monitor.create ~tasks:(P.n_tasks problem) ~target:(Lazy.force optimum) () in
      let feeds = Probe.attach_monitor p monitor obs in
      let dist =
        Distributed.create ~obs ~resilience:Distributed.default_resilience ~transport engine workload
      in
      let actors = P.n_resources problem + P.n_tasks problem in
      List.iteri
        (fun k at ->
          let i = k mod actors in
          let ep =
            if i < P.n_resources problem then
              Distributed.agent_endpoint dist problem.P.resource_ids.(i)
            else
              Distributed.controller_endpoint dist
                problem.P.tasks.(i - P.n_resources problem).P.tid
          in
          Transport.schedule_outage transport ep ~at ~duration:outage_ms)
        (outages ~horizon);
      { engine; dist; transport; problem; monitor; feeds })

(* Eq. 3/4 on the enacted assignment: the worst relative excess over
   every resource's capacity and every path's critical time. *)
let max_excess d =
  let problem = d.problem in
  let n = P.n_subtasks problem in
  let sid i = problem.P.subtasks.(i).P.sid in
  let lat = Array.init n (fun i -> Distributed.latency d.dist (sid i)) in
  let offsets = Array.init n (fun i -> Distributed.error_offset d.dist (sid i)) in
  let excess value bound =
    let e = (value -. bound) /. bound in
    if Float.is_finite e then Float.max 0. e else infinity
  in
  let worst = ref 0. in
  for r = 0 to P.n_resources problem - 1 do
    worst := Float.max !worst (excess (P.share_sum problem r ~lat ~offsets) problem.P.capacities.(r))
  done;
  for q = 0 to P.n_paths problem - 1 do
    worst :=
      Float.max !worst (excess (P.path_latency problem q ~lat) problem.P.paths.(q).P.critical_time)
  done;
  !worst

let sample d =
  let feasible = max_excess d <= oracle.tolerance in
  let u = Distributed.utility d.dist in
  (feasible, u)

let within_regret u =
  let opt = Lazy.force optimum in
  Float.abs (u -. opt) /. Float.abs opt <= oracle.regret_bound

let slice p d = Probe.span p "distributed.run" (fun () -> Distributed.run d.dist ~duration:slice_ms)

(* Slices from a cold start to the first feasible, near-optimal one. *)
let converge p d =
  let rec go n =
    slice p d;
    let feasible, u = Probe.span p "bench.harness" (fun () -> sample d) in
    if feasible && within_regret u then n
    else if float_of_int n *. slice_ms >= converge_budget_ms then
      failwith
        (Printf.sprintf "no feasible, near-optimal assignment within %.0f ms" converge_budget_ms)
    else go (n + 1)
  in
  go 1

let rounds d = Distributed.price_rounds d.dist + Distributed.allocation_rounds d.dist

let run (p : Probe.t) ~seed ~seconds =
  ignore (Lazy.force optimum);
  let horizon = sim_ms_per_second *. float_of_int seconds in
  let gates = ref [] in
  let gate ok msg = if not ok then gates := msg :: !gates in
  let setup_s = ref [] and solve_s = ref [] and converged = ref [] in
  let deploy_and_converge () =
    let t0 = Clock.now () in
    let d = deploy p ~seed ~horizon in
    setup_s := (Clock.now () -. t0) :: !setup_s;
    let t0 = Clock.now () in
    converged := converge p d :: !converged;
    solve_s := (Clock.now () -. t0) :: !solve_s;
    d
  in
  let d = deploy_and_converge () in
  (* the measured phase *)
  let n_slices = int_of_float ((horizon -. Engine.now d.engine) /. slice_ms) in
  let walls = Array.make n_slices 0. and slice_rounds = Array.make n_slices 0. in
  let restarts =
    ref
      (List.filter
         (fun t -> t > Engine.now d.engine)
         (List.map (fun at -> at +. outage_ms) (outages ~horizon)))
  in
  let recovering = ref None and worst_recovery = ref 0 in
  let tally = ref (Stats.tally ()) and u_sum = ref 0. in
  (* fresh deployments driven to convergence before every part, so that
     set-up and solve samples spread over the whole run; only the
     slices of the measured deployment count towards its rates,
     allocation and trace volume *)
  let rounds0 = rounds d in
  let gc = ref Report.no_gc and records = ref 0 in
  List.iter
    (fun (lo, len) ->
      for _ = 1 to deployments_per_part do
        ignore (deploy_and_converge ())
      done;
      let g0 = Probe.gc_mark () and records0 = p.records in
      for k = lo to lo + len - 1 do
        let before = rounds d in
        let t0 = Clock.ns () in
        slice p d;
        walls.(k) <- Int64.to_float (Int64.sub (Clock.ns ()) t0) *. 1e-9;
        slice_rounds.(k) <- float_of_int (rounds d - before);
        Probe.span p "bench.harness" (fun () ->
            let now = Engine.now d.engine in
            let feasible, u = sample d in
            if now >= warmup_ms then begin
              tally := Stats.record !tally ~ok:feasible;
              u_sum := !u_sum +. u
            end;
            (match !restarts with
            | t :: rest when t <= now && !recovering = None ->
                restarts := rest;
                recovering := Some 0
            | _ -> ());
            match !recovering with
            | Some c ->
                let c = c + 1 in
                if feasible then begin
                  worst_recovery := max !worst_recovery c;
                  recovering := None
                end
                else recovering := Some c
            | None -> ());
        if k mod 16 = 0 then Probe.poll p
      done;
      gc := Report.add_gc !gc (Probe.gc_since g0);
      records := !records + (p.records - records0))
    (Stats.parts n_slices);
  let converged = Array.of_list !converged in
  gate
    (Array.for_all (fun n -> n = converged.(0)) converged)
    "deployments of one seed converged after different slice counts";
  let measured_rounds = rounds d - rounds0 in
  let driven = Array.fold_left ( +. ) 0. walls in
  let tally = !tally in
  let mean_u = !u_sum /. float_of_int (max 1 tally.attempted) in
  let failed_share = Stats.failed_share tally in
  gate (failed_share <= oracle.sustained_fraction)
    (Printf.sprintf "%d of %d samples broke Eq. 3/4 by more than %.2f (allowed share %.2f)"
       tally.failed tally.attempted oracle.tolerance oracle.sustained_fraction);
  gate (within_regret mean_u)
    (Printf.sprintf "mean utility %.4f is more than %.2f from the optimum %.4f" mean_u
       oracle.regret_bound (Lazy.force optimum));
  gate (!recovering = None) "the run ended while an actor was still recovering";
  let totals = Transport.totals d.transport in
  let checkpoint_saves =
    match Distributed.checkpoint_store d.dist with Some c -> Checkpoint.saves c | None -> 0
  in
  let heartbeats, suspicions =
    match Distributed.health d.dist with
    | Some h -> (Health.heartbeats_received h, Health.suspicions h)
    | None -> (0, 0)
  in
  let all_rounds = rounds d in
  let per_round v = float_of_int v /. float_of_int (max 1 all_rounds) in
  let recovery = float_of_int (max 1 !worst_recovery) in
  {
    Report.e2e =
      [
        ("setup_s", Stats.median (Array.of_list !setup_s));
        ("solve_s", Stats.median (Array.of_list !solve_s));
        ("ticks_to_converge", float_of_int converged.(0));
        ("tick_us_p50", Report.tick_us ~p:50. walls);
        ("tick_us_p99", Report.tick_us ~p:99. walls);
        ("ticks_per_s", Report.rate walls ~per_sample:(fun _ -> 1.));
        ("rounds_per_s", Report.rate walls ~per_sample:(fun k -> slice_rounds.(k)));
        ("recovery_ticks", recovery);
        ("ok_share", Stats.ok_share tally);
        ("utility", mean_u);
      ];
    counts =
      [
        ("distributed.price_rounds", float_of_int (Distributed.price_rounds d.dist));
        ("distributed.allocation_rounds", float_of_int (Distributed.allocation_rounds d.dist));
        ("checkpoint.saves", float_of_int checkpoint_saves);
        ("checkpoint.warm_restores", float_of_int (Distributed.warm_restores d.dist));
        ("checkpoint.cold_restarts", float_of_int (Distributed.cold_restarts d.dist));
        ("health.heartbeats", float_of_int heartbeats);
        ("health.suspicions", float_of_int suspicions);
        ("safe_mode.entries", float_of_int (Distributed.safe_entries d.dist));
        ("transport.sent", float_of_int totals.sent);
        ("transport.delivered", float_of_int totals.delivered);
        ("transport.dropped", float_of_int totals.dropped);
        ("transport.duplicated", float_of_int totals.duplicated);
        ("transport.retried", float_of_int totals.retried);
        ("transport.stale", float_of_int totals.stale);
        ( "transport.delivered_ratio",
          float_of_int totals.delivered /. float_of_int (max 1 totals.sent) );
        ("transport.msgs_per_round", per_round totals.sent);
        ( "transport.delay_ms_p99",
          Option.value (Transport.delay_percentile d.transport ~p:99.) ~default:0. );
        ("sim.events_fired", float_of_int (Engine.events_fired d.engine));
        ("sim.events_per_round", per_round (Engine.events_fired d.engine));
        ("trace.records", float_of_int !records);
        ("trace.records_per_op", float_of_int !records /. float_of_int (max 1 measured_rounds));
        ("monitor.feeds", float_of_int !(d.feeds));
        ("monitor.alerts_raised", float_of_int (Monitor.alerts_raised d.monitor));
      ];
    tally;
    gates = List.rev !gates;
    ops = measured_rounds;
    gc = !gc;
    exact =
      [
        ("ticks_to_converge", float_of_int converged.(0));
        ("recovery_ticks", recovery);
        ("utility", mean_u);
        ("distributed.price_rounds", float_of_int (Distributed.price_rounds d.dist));
        ("transport.sent", float_of_int totals.sent);
      ];
    summary =
      [
        Printf.sprintf
          "six tasks on eight resources, transport seed %d; %.0f ms simulated, %d slices, %d \
           rounds in %.3f s driven"
          seed horizon n_slices measured_rounds driven;
        Printf.sprintf
          "%d samples judged, %d broke Eq. 3/4 by more than %.2f; mean utility %.4f vs optimum \
           %.4f; %d warm restores, %d cold"
          tally.attempted tally.failed oracle.tolerance mean_u (Lazy.force optimum)
          (Distributed.warm_restores d.dist) (Distributed.cold_restarts d.dist);
        Report.parts_line walls;
      ];
  }
