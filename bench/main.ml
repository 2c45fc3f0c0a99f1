(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Table 1, Figures 5-8), runs the ablation suite, and closes
   with Bechamel microbenchmarks of the implementation's hot paths.

   Usage: main.exe [--json DIR] [table1|fig5|fig6|fig7|fig8|ablation|chaos|recovery|micro|all]...
          main.exe compare FRESH_DIR [BASE_DIR]

   [compare] judges a [--json FRESH_DIR] run against the BENCH_*.json
   history in BASE_DIR (default: the current directory) as snapshot.ml
   describes: exit 1 when a key fails, 2 when there is nothing to judge. *)

(* Runs one of the paper's experiments and prints its report. *)
let report run render () = print_string (render (run ()))

(* ------------------------------------------------------------------ *)
(* Observability overhead                                              *)
(* ------------------------------------------------------------------ *)

(* Two gates on the observability layer.

   1. Switched OFF (obs handle present, spans off, profiler disabled —
      the always-on configuration), plain tracing plus the analysis
      hooks (span matches on the transport path, profiler branches
      around every phase) must stay within 5 % (25 % in the smoke) of
      the bare run's wall: "pay nothing until switched on". Both runs
      execute the identical event schedule — the golden-trace test
      guarantees that — so the ratio isolates emission cost; best-of-N
      damps scheduler noise.

   2. Switched ON (spans + enabled profiler), the added wall-clock cost
      is budgeted against the *simulated control-time horizon* — the
      real-time budget a deployment of the paper's control plane
      actually has. The discrete-event engine collapses the idle time
      between control rounds, so percentage-of-bare-wall would compare
      nanoseconds of emission against microsecond rounds and say
      nothing about a real deployment, where a control round runs every
      [controller_period] ms; 5% of the horizon is the honest form of
      the "<5% overhead" requirement and still fails on any
      order-of-magnitude regression in span/profiler cost. *)
let profile_overhead ~smoke () =
  print_string
    (Lla_experiments.Report.header "Profiler + causal-span overhead (distributed deployment)");
  let workload = Lla_workloads.Paper_sim.base () in
  let horizon = if smoke then 2_000. else 20_000. in
  let repeats = if smoke then 3 else 5 in
  let off_budget = if smoke then 25.0 else 5.0 in
  let on_budget = 5.0 in
  let time_once mode =
    let engine = Lla_sim.Engine.create () in
    let obs =
      match mode with
      | `Bare -> None
      | `Hooks_off -> Some (Lla_obs.create ())
      | `Enabled -> Some (Lla_obs.create ~spans:true ~profile:(Lla_obs.Profile.create ()) ())
    in
    let d = Lla_runtime.Distributed.create ?obs engine workload in
    (* the build's garbage is collected here, not inside the timer *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    Lla_runtime.Distributed.run d ~duration:horizon;
    let dt = Unix.gettimeofday () -. t0 in
    Lla_runtime.Distributed.stop d;
    let rounds =
      Lla_runtime.Distributed.price_rounds d + Lla_runtime.Distributed.allocation_rounds d
    in
    (dt, rounds)
  in
  List.iter (fun m -> ignore (time_once m)) [ `Bare; `Hooks_off; `Enabled ];
  let best_bare = ref infinity and best_off = ref infinity and best_on = ref infinity in
  let rounds = ref 0 in
  for _ = 1 to repeats do
    let dt, r = time_once `Bare in
    best_bare := Float.min !best_bare dt;
    rounds := r;
    let dt, _ = time_once `Hooks_off in
    best_off := Float.min !best_off dt;
    let dt, _ = time_once `Enabled in
    best_on := Float.min !best_on dt
  done;
  let off_overhead = (!best_off -. !best_bare) /. !best_bare *. 100. in
  let on_overhead = (!best_on -. !best_bare) *. 1e3 /. horizon *. 100. in
  Printf.printf "  %.0f ms simulated control time, best of %d runs, %d control rounds\n" horizon
    repeats !rounds;
  Printf.printf "  bare                       %8.1f ms wall  (%.0f rounds/s)\n" (!best_bare *. 1e3)
    (float_of_int !rounds /. !best_bare);
  Printf.printf "  tracing on, hooks off      %8.1f ms wall  %+6.1f%% vs bare (budget %.0f%%)\n"
    (!best_off *. 1e3) off_overhead off_budget;
  Printf.printf
    "  spans + enabled profiler   %8.1f ms wall  %+6.3f%% of the control-time budget (budget \
     %.0f%%)\n"
    (!best_on *. 1e3) on_overhead on_budget;
  let g = Snapshot.gate () in
  if off_overhead > off_budget then
    Snapshot.fail g "disabled instrumentation hooks exceed the %.0f%% tracing budget" off_budget;
  if on_overhead > on_budget then
    Snapshot.fail g "enabled spans + profiler consume more than %.0f%% of the control-time budget"
      on_budget;
  Snapshot.finish g ~pass:true

(* End-to-end control-reaction latency from the causal span tree, and the
   cross-check that makes it trustworthy: the offline reconstruction
   (Causal.control_latencies over the collected stream) must agree with
   the online lla_control_latency_ms histogram sample for sample. *)
let run_control_latency () =
  print_string
    (Lla_experiments.Report.header "Control-reaction latency (distributed deployment)");
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let obs = Lla_obs.create ~spans:true () in
  let sink, collected = Lla_obs.Trace.memory_sink () in
  Lla_obs.Trace.attach obs.Lla_obs.trace sink;
  let d = Lla_runtime.Distributed.create ~obs engine workload in
  Lla_runtime.Distributed.run d ~duration:20_000.;
  Lla_runtime.Distributed.stop d;
  let records = collected () in
  let offline = Lla_obs.Causal.control_latencies records in
  match Lla_obs.Metrics.find_histogram obs.Lla_obs.metrics "lla_control_latency_ms" with
  | Some h when Lla_obs.Metrics.histogram_count h > 0 ->
    Printf.printf "  online   %s\n" (Lla_obs.Metrics.summary h);
    let off_count = List.length offline in
    let off_sum = List.fold_left ( +. ) 0. offline in
    Printf.printf "  offline  count=%d sum=%.3f (from %d spans in %d records)\n" off_count off_sum
      (List.length (Lla_obs.Causal.spans records))
      (List.length records);
    let agree =
      off_count = Lla_obs.Metrics.histogram_count h
      && Float.abs (off_sum -. Lla_obs.Metrics.histogram_sum h) <= 1e-6 *. Float.max 1. off_sum
    in
    if agree then print_string "  PASS: offline span reconstruction matches the online histogram\n"
    else Snapshot.abort "offline and online control-latency views disagree"
  | _ -> Snapshot.abort "no control-latency observations recorded"

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

let solver_iteration_test ~copies =
  let factor = if copies = 1 then 1.0 else 1.25 *. float_of_int copies in
  let workload = Lla_workloads.Paper_sim.scaled ~critical_time_factor:factor ~copies () in
  let solver = Lla.Solver.create workload in
  Test.make
    ~name:(Printf.sprintf "lla-iteration/%02d-tasks" (3 * copies))
    (Staged.stage (fun () -> Lla.Solver.step solver))

let compile_test =
  let workload = Lla_workloads.Paper_sim.scaled ~copies:4 () in
  Test.make ~name:"problem-compile/12-tasks"
    (Staged.stage (fun () -> ignore (Lla.Problem.compile workload)))

let engine_test =
  Test.make ~name:"des-engine/1k-events"
    (Staged.stage (fun () ->
         let engine = Lla_sim.Engine.create () in
         for i = 1 to 1000 do
           ignore (Lla_sim.Engine.schedule engine ~at:(float_of_int i) (fun _ -> ()))
         done;
         Lla_sim.Engine.run engine ()))

(* A steady queue shaped like a runtime_faulty deployment's. Sampled
   after every 10 ms slice of a 20 s run (transport seed 1), that queue
   held 342 events on average (peak 1 314): 41 % at least 1 s ahead,
   the outages the workload schedules up front; 22 % under 2 ms, the
   deliveries; the rest in between, control ticks every 10 ms and
   retries 40-640 ms out. Here 140 far, 75 near and 125 middle events:
   each run fires the earliest, which schedules its replacement in its
   own band, so the depth and the mix stay put. *)
let steady_queue_test =
  let engine = Lla_sim.Engine.create () in
  let rng = Lla_stdx.Rng.create ~seed:1 in
  List.iter
    (fun (count, lo, hi) ->
      let rec refill e =
        ignore (Lla_sim.Engine.schedule_after e ~delay:(Lla_stdx.Rng.uniform rng ~lo ~hi) refill)
      in
      for _ = 1 to count do
        refill engine
      done)
    [ (140, 1_000., 100_000.); (75, 0., 2.); (125, 2., 1_000.) ];
  Test.make ~name:"des-engine/steady-340-pending"
    (Staged.stage (fun () -> ignore (Lla_sim.Engine.step engine)))

(* One keyed message through runtime_faulty's transport (its config in
   perfbench/runtime_faulty.ml): send, then drain the engine, so a run
   covers the copies, retries and last-write-wins check the message
   draws. *)
let transport_test =
  let module T = Lla_transport.Transport in
  let config =
    {
      T.delay = Lla_transport.Delay_model.jittered ~base:1. ~jitter:0.5;
      faults = { T.drop = 0.08; duplicate = 0.04; reorder = 0.15; reorder_spread = 6. };
      policy =
        {
          T.retry = Some { T.timeout = 40.; backoff = 2.; max_attempts = 6; jitter = 0.4 };
          last_write_wins = true;
        };
      seed = 1;
      delay_window = 1024;
      channel_metrics = true;
    }
  in
  let engine = Lla_sim.Engine.create () in
  let transport = T.create ~obs:(Lla_obs.create ()) ~config engine in
  let src = T.endpoint transport ~name:"agent:0" in
  let dst = T.endpoint transport ~name:"controller:0" in
  Test.make ~name:"transport/send+deliver-faulted"
    (Staged.stage (fun () ->
         T.send ~key:0 transport ~src ~dst ignore;
         Lla_sim.Engine.run engine ()))

let scheduler_test kind name =
  Test.make
    ~name:(Printf.sprintf "scheduler-%s/100-jobs" name)
    (Staged.stage (fun () ->
         let engine = Lla_sim.Engine.create () in
         let sched = Lla_sched.Scheduler.create kind engine ~capacity:1.0 in
         for c = 0 to 3 do
           Lla_sched.Scheduler.set_share sched ~class_id:c ~share:0.25
         done;
         for i = 0 to 99 do
           Lla_sched.Scheduler.submit sched ~class_id:(i mod 4) ~work:1.0 ~on_complete:(fun _ ->
               ())
         done;
         Lla_sim.Engine.run engine ()))

let graph_test =
  let workload = Lla_workloads.Paper_sim.base () in
  let task = List.hd workload.Lla_model.Workload.tasks in
  Test.make ~name:"graph-critical-path"
    (Staged.stage (fun () -> ignore (Lla_model.Task.critical_path task ~latency:(fun _ -> 1.0))))

let micro_tests () =
  Test.make_grouped ~name:"lla" ~fmt:"%s %s"
    [
      solver_iteration_test ~copies:1;
      solver_iteration_test ~copies:2;
      solver_iteration_test ~copies:4;
      solver_iteration_test ~copies:8;
      solver_iteration_test ~copies:16;
      compile_test;
      engine_test;
      steady_queue_test;
      transport_test;
      scheduler_test (Lla_sched.Scheduler.Fluid { work_conserving = true }) "fluid";
      scheduler_test (Lla_sched.Scheduler.Sfs { quantum = 1.0 }) "sfs";
      graph_test;
    ]

let run_micro () =
  print_string (Lla_experiments.Report.header "Microbenchmarks (Bechamel, monotonic clock)");
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let raw_results = Benchmark.all cfg instances (micro_tests ()) in
  let results = List.map (fun instance -> Analyze.all ols instance raw_results) instances in
  let results = Analyze.merge ols instances results in
  let clock = Hashtbl.find results (Measure.label Instance.monotonic_clock) in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) clock [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns_per_run ] -> Printf.printf "  %-34s %12.1f ns/run\n" name ns_per_run
      | Some _ | None -> Printf.printf "  %-34s (no estimate)\n" name)
    rows;
  print_string
    "The per-iteration cost grows linearly with the task count (the scalability claim at\n\
     the implementation level).\n"

(* ------------------------------------------------------------------ *)
(* Scale kernel benchmark (BENCH_<name>.json snapshots)                 *)
(* ------------------------------------------------------------------ *)

(* Destination directory for machine-readable snapshots, set by
   [--json DIR]. Each JSON-capable experiment writes BENCH_<name>.json
   there; without the flag it only prints. *)
let json_dir : string option ref = ref None

let peak_rss_kb () =
  (* VmHWM ("high water mark") is the peak resident set of the process in
     kB; where the kernel omits it, the current VmRSS — sampled right
     after the solve, when the arena is fully populated — stands in. 0
     outside Linux rather than a failure. *)
  match Lla_stdx.Proc_status.kb "VmHWM" with 0 -> Lla_stdx.Proc_status.kb "VmRSS" | hwm -> hwm

(* The scale benchmark: generate a seeded planet-scale scenario, solve it
   with the flat-array kernel, and snapshot the numbers the README's
   BENCH convention promises — iterations/sec (transient and steady
   state), ns/subtask/iter, allocation words per tick, peak RSS, and the
   per-iteration speedup over the reference solver.

   With [gate] set (scale-smoke, run from CI) three acceptance checks
   become hard failures: the kernel must agree with {!Lla.Solver}
   element-wise within 1e-9 under the shared default config, a
   steady-state kernel tick must run at least 20x faster than a solver
   iteration, and a tick must allocate zero minor words. *)
let scale_bench ~name ~subtasks ~gate () =
  print_string
    (Lla_experiments.Report.header
       (Printf.sprintf "Scale kernel (%d subtasks, seed 42)" subtasks));
  let seed = 42 in
  let params = Lla_scale.Generator.sized ~subtasks () in
  let t0 = Unix.gettimeofday () in
  let workload = Lla_scale.Generator.generate ~params ~seed () in
  let generate_s = Unix.gettimeofday () -. t0 in
  Printf.printf "  scenario     %s\n" (Lla_scale.Generator.describe workload);
  let t0 = Unix.gettimeofday () in
  let kernel =
    match Lla_scale.Kernel.create ~config:Lla_scale.Kernel.scale_config workload with
    | Ok k -> k
    | Error e -> Snapshot.abort "kernel rejected the generated workload: %s" e
  in
  let build_s = Unix.gettimeofday () -. t0 in
  Printf.printf "  generate     %8.2f s    compile+compact %8.2f s\n" generate_s build_s;
  (* Transient: solve from cold. *)
  let t0 = Unix.gettimeofday () in
  let converged = Lla_scale.Kernel.solve kernel ~max_iterations:10_000 in
  let solve_s = Unix.gettimeofday () -. t0 in
  let iterations =
    match converged with
    | Some n -> n
    | None ->
      Snapshot.abort "no convergence in 10000 ticks (movement %.2e)"
        (Lla_scale.Kernel.movement kernel)
  in
  if not (Lla_scale.Kernel.feasible kernel) then
    Snapshot.abort "converged but infeasible: %s"
      (String.concat "; " (Lla_scale.Kernel.violations kernel));
  let n_sub = Lla_scale.Kernel.n_subtasks kernel in
  let solve_tick_s = solve_s /. float_of_int iterations in
  (* ns/subtask/iter = subtasks touched per tick x ns per touched
     subtask: the dirty sets' sparsity times the cost of a visit *)
  let touched () = (Lla_scale.Kernel.cumulative_touch kernel).Lla_scale.Kernel.subtasks_touched in
  let print_split ~tick_s ~per_tick =
    (* a tick at a fixpoint of the price passes touches no subtask *)
    if per_tick > 0. then
      Printf.printf "               %.0f subtasks touched/tick x %.1f ns per touched subtask\n"
        per_tick (tick_s *. 1e9 /. per_tick)
    else Printf.printf "               0 subtasks touched/tick\n"
  in
  Printf.printf
    "  solve        %8.2f ms   %d ticks to feasible convergence (%.0f ticks/s)\n"
    (solve_s *. 1e3) iterations (1. /. solve_tick_s);
  Printf.printf "  transient    %8.2f ms/tick  (%.1f ns/subtask/iter)\n" (solve_tick_s *. 1e3)
    (solve_tick_s *. 1e9 /. float_of_int n_sub);
  print_split ~tick_s:solve_tick_s ~per_tick:(float_of_int (touched ()) /. float_of_int iterations);
  (* Steady state: the incremental regime the dirty sets target. Best of
     several batches — single-batch wall clock jitters across the 20x
     gate on a noisy CI box. A converged tick can visit nothing and take
     tens of nanoseconds, so each batch doubles its tick count until it
     lasts at least 1 ms: the 1 us clock then quantises its rate by at
     most 0.1 %. *)
  let steady_tick_s = ref infinity and reps = ref 200 in
  for _ = 1 to 5 do
    let per = ref nan in
    while Float.is_nan !per do
      let t0 = Unix.gettimeofday () in
      Lla_scale.Kernel.run kernel ~iterations:!reps;
      let dt = Unix.gettimeofday () -. t0 in
      if dt >= 1e-3 then per := dt /. float_of_int !reps else reps := 2 * !reps
    done;
    if !per < !steady_tick_s then steady_tick_s := !per
  done;
  let steady_tick_s = !steady_tick_s in
  Printf.printf "  steady state %8.2f ms/tick  (%.4g ns/subtask/iter, %.0f ticks/s)\n"
    (steady_tick_s *. 1e3)
    (steady_tick_s *. 1e9 /. float_of_int n_sub)
    (1. /. steady_tick_s);
  (* Allocation per tick, by minor-words delta (the Gc probe itself
     allocates its boxed result, so subtract an empty probe), and the
     entities a steady tick visits over the same fixed 100 ticks. *)
  let probe iterations =
    let before = Gc.minor_words () in
    Lla_scale.Kernel.run kernel ~iterations;
    Gc.minor_words () -. before
  in
  let empty = probe 0 in
  let c0 = Lla_scale.Kernel.cumulative_touch kernel in
  let alloc_words = (probe 100 -. empty) /. 100. in
  let c1 = Lla_scale.Kernel.cumulative_touch kernel in
  let steady_touch f = float_of_int (f c1 - f c0) /. 100. in
  let steady_sub = steady_touch (fun c -> c.Lla_scale.Kernel.subtasks_touched) in
  let steady_res = steady_touch (fun c -> c.Lla_scale.Kernel.resources_touched) in
  let steady_path = steady_touch (fun c -> c.Lla_scale.Kernel.paths_touched) in
  print_split ~tick_s:steady_tick_s ~per_tick:steady_sub;
  Printf.printf "               %.1f resources and %.1f paths touched/tick\n" steady_res
    steady_path;
  Printf.printf "  allocation   %8.2f minor words/tick\n" alloc_words;
  (* Reference solver, same workload: per-iteration cost, best of
     several batches as above. *)
  let solver = Lla.Solver.create workload in
  let solver_iter_s = ref infinity in
  for _ = 1 to 3 do
    let solver_reps = 5 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to solver_reps do
      Lla.Solver.step solver
    done;
    let per = (Unix.gettimeofday () -. t0) /. float_of_int solver_reps in
    if per < !solver_iter_s then solver_iter_s := per
  done;
  let solver_iter_s = !solver_iter_s in
  let speedup = solver_iter_s /. steady_tick_s in
  Printf.printf "  solver       %8.2f ms/iter  -> kernel speedup %.1fx (steady state)\n"
    (solver_iter_s *. 1e3) speedup;
  let rss = peak_rss_kb () in
  Printf.printf "  peak RSS     %8.1f MB\n" (float_of_int rss /. 1024.);
  (* Streaming-monitor pass over the converged steady state: feed the
     online detectors for a short window so the snapshot can stamp the
     alert counts (a healthy converged kernel must raise none). Runs
     after every timing probe — feeding a monitor reads kernel state
     only. *)
  let monitor = Lla_obs.Monitor.create () in
  let tol = Lla.Solver.feasibility_tolerance in
  for i = 1 to 100 do
    Lla_scale.Kernel.step kernel;
    let at = float_of_int i in
    Lla_obs.Monitor.observe_utility monitor ~at (Lla_scale.Kernel.utility kernel);
    Lla_obs.Monitor.observe_feasible monitor ~at
      ~resources_ok:(Lla_scale.Kernel.resources_feasible kernel ~tol)
      ~paths_ok:(Lla_scale.Kernel.paths_feasible kernel ~tol)
  done;
  Printf.printf "  monitor      %d samples, %d alerts raised, %d cleared\n"
    (Lla_obs.Monitor.utility_samples monitor)
    (Lla_obs.Monitor.alerts_raised monitor)
    (Lla_obs.Monitor.alerts_cleared monitor);
  let g = Snapshot.gate () in
  if gate then begin
    (* Element-wise agreement under the shared default config: fresh
       kernel vs fresh solver, identical iterate after a prefix of
       ticks. *)
    let agree_iters = 30 in
    let s2 = Lla.Solver.create workload in
    for _ = 1 to agree_iters do
      Lla.Solver.step s2
    done;
    let k2 =
      match Lla_scale.Kernel.create workload with Ok k -> k | Error e -> failwith e
    in
    Lla_scale.Kernel.run k2 ~iterations:agree_iters;
    let kernel_lat = Lla_scale.Kernel.lat_array k2 in
    let solver_lat = Lla.Solver.lat_array s2 in
    let worst = ref 0. in
    Array.iteri
      (fun i expect ->
        let d = Float.abs (kernel_lat.(i) -. expect) /. Float.max 1. (Float.abs expect) in
        if d > !worst then worst := d)
      solver_lat;
    Printf.printf "  agreement    %8.1e worst relative latency gap vs solver after %d ticks\n"
      !worst agree_iters;
    if !worst > 1e-9 then
      Snapshot.fail g "kernel diverges from the reference solver (tolerance 1e-9)";
    if speedup < 20. then Snapshot.fail g "steady-state speedup %.1fx below the 20x gate" speedup;
    if alloc_words <> 0. then
      Snapshot.fail g "kernel tick allocates (%.1f minor words/tick)" alloc_words
  end;
  Snapshot.write ~dir:!json_dir ~name ~engine:"sim" ~domains:1 ~seed
    Snapshot.
      [
        int "subtasks" n_sub;
        int "resources" (Lla_scale.Kernel.n_resources kernel);
        int "paths" (Lla_scale.Kernel.n_paths kernel);
        int "tasks" (List.length workload.Lla_model.Workload.tasks);
        num ~judge:Info "generate_s" "%.3f" generate_s;
        num ~judge:Info "build_s" "%.3f" build_s;
        int "converged_iterations" iterations;
        num ~judge:Info "solve_s" "%.6f" solve_s;
        num ~judge:(Perf 4.) "transient_iterations_per_s" "%.1f" (1. /. solve_tick_s);
        num ~judge:(Perf 4.) "transient_ns_per_subtask_per_iter" "%.1f"
          (solve_tick_s *. 1e9 /. float_of_int n_sub);
        num ~judge:(Perf 4.) "steady_iterations_per_s" "%.1f" (1. /. steady_tick_s);
        num ~judge:(Perf 4.) "steady_ns_per_subtask_per_iter" "%.4g"
          (steady_tick_s *. 1e9 /. float_of_int n_sub);
        num "steady_subtasks_touched" "%.1f" steady_sub;
        num "steady_resources_touched" "%.1f" steady_res;
        num "steady_paths_touched" "%.1f" steady_path;
        num "alloc_words_per_tick" "%.1f" alloc_words;
        num ~judge:Info "solver_ms_per_iter" "%.3f" (solver_iter_s *. 1e3);
        num ~judge:(Perf 6.) "kernel_vs_solver_speedup" "%.1f" speedup;
        int "guard_events" (Lla_scale.Kernel.guard_events kernel);
        int ~judge:Info "peak_rss_kb" rss;
        int "monitor_samples" (Lla_obs.Monitor.utility_samples monitor);
        int "monitor_alerts_raised" (Lla_obs.Monitor.alerts_raised monitor);
        int "monitor_alerts_cleared" (Lla_obs.Monitor.alerts_cleared monitor);
      ];
  Snapshot.finish g ~pass:gate

let run_scale () =
  scale_bench ~name:"scale" ~subtasks:100_000 ~gate:false ();
  (* Per-pass breakdown of a profiled kernel on the same scenario, over
     the whole cold transient (the solve) and a steady stretch after it,
     each with the entities it touched per tick. The EXPERIMENTS
     walkthrough quotes these tables. *)
  let module K = Lla_scale.Kernel in
  let workload =
    Lla_scale.Generator.generate ~params:(Lla_scale.Generator.sized ~subtasks:100_000 ()) ~seed:42
      ()
  in
  let obs = Lla_obs.create ~profile:(Lla_obs.Profile.create ()) () in
  let profile = obs.Lla_obs.profile in
  Lla_obs.Profile.set_enabled profile true;
  let kernel =
    match K.create ~obs ~config:K.scale_config workload with Ok k -> k | Error e -> failwith e
  in
  let phase label run =
    Lla_obs.Profile.reset profile;
    let before = K.cumulative_touch kernel and tick0 = K.iteration kernel in
    run ();
    let after = K.cumulative_touch kernel in
    let ticks = float_of_int (K.iteration kernel - tick0) in
    let per_tick f = float_of_int (f after - f before) /. ticks in
    Printf.printf "\n%s: %.0f ticks; touched per tick: %.0f subtasks, %.0f resources, %.0f paths\n"
      label ticks
      (per_tick (fun c -> c.K.subtasks_touched))
      (per_tick (fun c -> c.K.resources_touched))
      (per_tick (fun c -> c.K.paths_touched));
    print_string (Lla_obs.Profile.report profile)
  in
  phase "transient (cold solve)" (fun () -> ignore (K.solve kernel ~max_iterations:10_000));
  phase "steady" (fun () -> K.run kernel ~iterations:1000)

(* Fixed-seed chaos campaign smoke: a handful of randomized fault
   schedules against the fully-armed deployment, every oracle green. The
   report is deterministic, so any diff is a behaviour change. *)
let run_campaign () =
  print_string (Lla_experiments.Report.header "Chaos campaign (smoke, 5 runs, seed 42)");
  let s = Lla_chaos.Campaign.run ~runs:5 ~seed:42 () in
  print_string s.Lla_chaos.Campaign.report;
  print_newline ();
  if s.Lla_chaos.Campaign.failures <> [] then exit 1

(* ------------------------------------------------------------------ *)
(* Soak endurance benchmark (BENCH_soak*.json snapshots)               *)
(* ------------------------------------------------------------------ *)

let soak_bench ~name ~(config : Lla_soak.Soak.config) ~gate () =
  let module Soak = Lla_soak.Soak in
  print_string
    (Lla_experiments.Report.header
       (Printf.sprintf "Soak endurance (%d subtasks, %d ticks, seed %d)" config.Soak.subtasks
          config.Soak.horizon config.Soak.seed));
  (* Streaming monitor riding along: the rolling-health oracles are built
     on the same primitives, so the judged run is identical — the monitor
     only adds the alert-count columns to the snapshot. *)
  let obs = Lla_obs.create () in
  let monitor = Lla_obs.Monitor.create () in
  match Soak.run ~obs ~monitor config with
  | Error e -> Snapshot.abort "soak construction: %s" e
  | Ok r ->
    print_string (Soak.render r);
    print_newline ();
    let g = Snapshot.gate () in
    let fail fmt = Snapshot.fail g fmt in
    if gate then begin
      if r.Soak.violation_count > 0 then fail "%d rolling-oracle violations" r.Soak.violation_count;
      if r.Soak.chaos_windows < 1 then fail "no chaos window inside the horizon";
      if r.Soak.admits < 10 then fail "churn barely exercised (%d admits)" r.Soak.admits;
      if r.Soak.degradations > 0 then
        fail "degraded %d times under the generous smoke ceilings" r.Soak.degradations;
      let rss_ceiling = config.Soak.ceilings.Soak.max_rss_kb in
      if rss_ceiling > 0 && r.Soak.peak_rss_kb > rss_ceiling then
        fail "peak RSS %d kB over the %d kB ceiling" r.Soak.peak_rss_kb rss_ceiling;
      let tps_floor = config.Soak.ceilings.Soak.min_ticks_per_s in
      if tps_floor > 0. && r.Soak.ticks_per_s < tps_floor then
        fail "throughput %.0f ticks/s under the %.0f floor" r.Soak.ticks_per_s tps_floor;
      (* steady-state allocation must not grow over the horizon: the late
         watchdog window may not exceed twice the early one (plus a small
         absolute floor for sampling noise on near-zero rates) *)
      if r.Soak.words_per_tick_late > Float.max 50. (2. *. Float.max 1. r.Soak.words_per_tick_early)
      then
        fail "minor words/tick grew %.1f -> %.1f over the horizon" r.Soak.words_per_tick_early
          r.Soak.words_per_tick_late;
      (* Breach drill: rerun a short horizon under an impossible RSS
         ceiling — the run must walk the whole degradation ladder into
         the forced-safe bottom rung and come back with a report, not an
         exception. *)
      let breach_config =
        {
          config with
          Soak.horizon = 8_000;
          baseline_every = 0;
          ceilings = { Soak.max_rss_kb = 1_000; max_words_per_tick = 0.; min_ticks_per_s = 0. };
        }
      in
      (match Soak.run breach_config with
      | Error e -> fail "breach drill construction: %s" e
      | Ok br ->
        Printf.printf
          "  breach drill: %d degradations to level %d, %d safe entries, %d trips recorded\n"
          br.Soak.degradations br.Soak.max_level br.Soak.safe_entries br.Soak.degradations;
        if
          br.Soak.degradations < 1
          || br.Soak.max_level < Soak.shed_levels + 1
          || br.Soak.safe_entries < 1
        then fail "ceiling breach did not walk the degradation ladder into forced safe mode")
    end;
    Snapshot.write ~dir:!json_dir ~name ~engine:"sim" ~domains:1 ~seed:config.Soak.seed
      Snapshot.
        [
          int "subtasks" r.Soak.subtasks;
          int "tasks" r.Soak.tasks;
          int "ticks" r.Soak.ticks;
          num ~judge:Info "elapsed_s" "%.3f" r.Soak.elapsed_s;
          num ~judge:(Perf 4.) "ticks_per_s" "%.1f" r.Soak.ticks_per_s;
          int "admits" r.Soak.admits;
          int "retires" r.Soak.retires;
          int "chaos_windows" r.Soak.chaos_windows;
          int "stalls" r.Soak.stalls;
          int "guard_events" r.Soak.guard_events;
          int "safe_entries" r.Soak.safe_entries;
          int "safe_exits" r.Soak.safe_exits;
          int "degradations" r.Soak.degradations;
          int "recoveries" r.Soak.recoveries;
          int "max_level" r.Soak.max_level;
          int "oracle_violations" r.Soak.violation_count;
          int ~judge:Info "peak_rss_kb" r.Soak.peak_rss_kb;
          num ~judge:(Perf 4.) "words_per_tick_early" "%.1f" r.Soak.words_per_tick_early;
          num ~judge:(Perf 4.) "words_per_tick_late" "%.1f" r.Soak.words_per_tick_late;
          num ~judge:(Perf 4.) "words_per_tick_max" "%.1f" r.Soak.words_per_tick_max;
          int "reconverge_episodes" r.Soak.reconverge_episodes;
          num "worst_settle_ticks" "%.0f" r.Soak.worst_settle_ticks;
          int "baseline_checks" r.Soak.baseline_checks;
          num "worst_drift" "%.4f" r.Soak.worst_drift;
          num "final_utility" "%.3f" r.Soak.final_utility;
          bool "final_feasible" r.Soak.final_feasible;
          int "final_active_tasks" r.Soak.final_active_tasks;
          int "alerts_raised" r.Soak.alerts_raised;
          int "alerts_cleared" r.Soak.alerts_cleared;
        ];
    Snapshot.finish g ~pass:gate

(* The CI gate: the fixed-seed smoke configuration (>= 50k ticks, three
   chaos windows, two flash crowds) under explicit ceilings, every
   rolling oracle green, plus the forced-breach drill. *)
let run_soak_smoke () =
  let module Soak = Lla_soak.Soak in
  let config =
    {
      Soak.smoke_config with
      Soak.ceilings =
        { Soak.max_rss_kb = 512 * 1024; max_words_per_tick = 200.; min_ticks_per_s = 2_000. };
    }
  in
  soak_bench ~name:"soak_smoke" ~config ~gate:true ()

(* ------------------------------------------------------------------ *)
(* Crash-recovery smoke (BENCH_recovery_smoke.json)                    *)
(* ------------------------------------------------------------------ *)

(* Warm-vs-cold recovery on the scale kernel with a real file-backed
   journal: converge, journal the iterate, crash, and compare
   ticks-to-feasible restarting from scratch (cold) against restarting
   from the replayed journal record (warm). The gate requires warm to
   beat cold strictly, plus a forced torn-write drill that corrupts the
   first journal record on disk — recovery must degrade to a cold
   restart (valid-prefix replay finds nothing), never raise. Journal
   throughput and replay latency are snapshot alongside. The segment cap
   is raised so the whole journal stays in one segment — the torn drill
   corrupts byte 0, and rotated segments would (correctly!) survive
   that and hand recovery an older good record. *)
let run_recovery_smoke () =
  let module K = Lla_scale.Kernel in
  let module J = Lla_durable.Journal in
  let module R = Lla_durable.Recovery in
  let subtasks = 2_000 and seed = 42 in
  print_string
    (Lla_experiments.Report.header
       (Printf.sprintf "Crash recovery smoke (%d subtasks, seed %d, file journal)" subtasks seed));
  let workload =
    Lla_scale.Generator.generate ~params:(Lla_scale.Generator.sized ~subtasks ()) ~seed ()
  in
  let kernel =
    match K.create ~config:K.scale_config workload with Ok k -> k | Error e -> failwith e
  in
  let budget = 200_000 in
  let solve_ticks () =
    let t0 = K.iteration kernel in
    match K.solve kernel ~max_iterations:(t0 + budget) with
    | Some final -> final - t0
    | None -> failwith "recovery smoke: kernel did not converge within the tick budget"
  in
  (* ticks until Eq. 3/4 holds again — the recovery metric; [solve]'s
     convergence window would floor both restarts at [window] ticks and
     mask the warm advantage *)
  let ticks_to_feasible () =
    let rec go n =
      if n > 10_000 then failwith "recovery smoke: not feasible within 10k ticks"
      else begin
        K.step kernel;
        if K.feasible kernel then n else go (n + 1)
      end
    in
    go 1
  in
  let initial_ticks = solve_ticks () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lla_bench_recovery" in
  (if Sys.file_exists dir then
     Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir));
  let journal =
    J.create
      ~config:{ J.default_config with J.max_segment_bytes = 64 * 1024 * 1024 }
      (J.Store.file ~dir)
  in
  (* journal the converged iterate with the soak harness's codec *)
  let line = Lla_soak.Soak.encode_iterate ~at:(K.iteration kernel) kernel in
  let record_bytes = String.length line in
  let appends = 64 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to appends do
    J.append journal line
  done;
  J.sync journal;
  let append_s = Unix.gettimeofday () -. t0 in
  let journal_bytes = J.bytes_written journal in
  let mb_per_s =
    if append_s > 0. then float_of_int journal_bytes /. 1e6 /. append_s else 0.
  in
  (* cold: RAM gone, nothing to replay *)
  K.crash_reset kernel;
  let cold_ticks = ticks_to_feasible () in
  (* warm: RAM gone, replay the journal and restore the last good record *)
  K.crash_reset kernel;
  let latest = ref None in
  let apply line =
    match Lla_soak.Soak.decode_iterate line with
    | Some state ->
      latest := Some state;
      true
    | None -> false
  in
  let restore () =
    match !latest with
    | None -> false
    | Some (lat, mu, lambda) -> Result.is_ok (K.restore_iterate kernel ~lat ~mu ~lambda)
  in
  let t0 = Unix.gettimeofday () in
  let report = R.replay journal ~apply in
  let replay_ms = 1000. *. (Unix.gettimeofday () -. t0) in
  let restored = restore () in
  let warm_ticks = ticks_to_feasible () in
  Printf.printf
    "  converge %d ticks; crash: cold %d ticks, warm %d ticks (%d records replayed, %.2f ms)\n"
    initial_ticks cold_ticks warm_ticks report.R.applied replay_ms;
  Printf.printf "  journal: %d appends, %d bytes (%.1f kB/record), %.1f MB/s\n" appends
    journal_bytes
    (float_of_int record_bytes /. 1024.)
    mb_per_s;
  (* forced torn-write drill: corrupt the first record on disk; replay
     must find no valid prefix record and degrade to a cold restart *)
  let store = J.store journal in
  let active = J.active_path journal in
  let torn_applied, torn_warm =
    match J.Store.read store active with
    | None -> failwith "recovery smoke: active segment vanished"
    | Some contents -> (
      match
        J.Store.write store active (String.sub contents 0 (Stdlib.min 5 (String.length contents)))
      with
      | Error e -> failwith ("recovery smoke: torn drill write failed: " ^ e)
      | Ok () ->
        K.crash_reset kernel;
        latest := None;
        let r = R.replay journal ~apply in
        let warm = restore () in
        ignore (ticks_to_feasible ());
        (r.R.applied, warm))
  in
  Printf.printf "  torn drill: %d records replayed, %s restart\n" torn_applied
    (if torn_warm then "warm" else "cold");
  let g = Snapshot.gate () in
  let fail fmt = Snapshot.fail g fmt in
  if not restored then fail "warm restore refused the journaled record";
  if report.R.applied < appends then
    fail "replay applied %d of %d records" report.R.applied appends;
  if warm_ticks >= cold_ticks then
    fail "warm recovery (%d ticks) not faster than cold (%d ticks)" warm_ticks cold_ticks;
  if torn_warm then fail "torn journal still restored warm (corruption not detected)";
  if torn_applied <> 0 then
    fail "torn drill replayed %d records from a corrupt-at-0 segment" torn_applied;
  if J.wedged journal then fail "journal wedged on a healthy file store";
  Snapshot.write ~dir:!json_dir ~name:"recovery_smoke" ~seed
    Snapshot.
      [
        int "subtasks" subtasks;
        int "initial_ticks" initial_ticks;
        int "cold_ticks" cold_ticks;
        int "warm_ticks" warm_ticks;
        int "records" report.R.applied;
        int "journal_bytes" journal_bytes;
        num ~judge:(Perf 4.) "journal_mb_per_s" "%.1f" mb_per_s;
        num ~judge:(Perf 4.) "replay_ms" "%.2f" replay_ms;
        str "torn_drill" (if torn_warm then "warm" else "cold");
      ];
  Snapshot.finish g ~pass:true

(* ------------------------------------------------------------------ *)
(* Streaming-monitor overhead (BENCH_monitor_smoke.json)               *)
(* ------------------------------------------------------------------ *)

(* Gate the cost of live monitoring on the scale tier against the soak
   harness's structure: the kernel ticks, and every [cadence] ticks the
   host samples rolling health (utility + both Eq. 3/4 feasibility
   halves — reads it pays with or without a monitor) and hands the
   sample to the streaming Monitor. The monitor's own cost is the
   per-feed machinery: settling / oscillation / ring state, alert
   hysteresis, the retained series.

   An A/B wall-clock diff of two ~100 ms runs cannot resolve that cost
   on a shared CI box (run-to-run jitter is ±10%, the signal is
   microseconds), so each side is measured directly where it is stable:
   per-tick cost over the full tick budget, per-feed cost over enough
   replayed feeds to reach milliseconds of wall clock. The gate is the
   ratio — monitor time per cadence window vs kernel time per cadence
   window — which must stay under 5%. The feed values are the real
   health samples collected during the ticking run, replayed
   round-robin, so the monitor sees the same value distribution a live
   run would. *)
let monitor_overhead_bench ~name ~subtasks ~gate () =
  let module K = Lla_scale.Kernel in
  let module M = Lla_obs.Monitor in
  print_string
    (Lla_experiments.Report.header
       (Printf.sprintf "Streaming-monitor overhead (%d subtasks, health cadence 47)" subtasks));
  let cadence = 47 in
  let ticks = 1_200 in
  let feed_reps = 50_000 in
  let budget = 5.0 in
  let workload =
    Lla_scale.Generator.generate ~params:(Lla_scale.Generator.sized ~subtasks ()) ~seed:42 ()
  in
  let tol = Lla.Solver.feasibility_tolerance in
  let kernel =
    match K.create ~config:K.scale_config workload with
    | Ok k -> k
    | Error e -> Snapshot.abort "kernel rejected the generated workload: %s" e
  in
  (* Ticking run from cold, health samples collected at the cadence. *)
  let n_samples = ticks / cadence in
  let us = Array.make n_samples 0. in
  let oks = Array.make n_samples (true, true) in
  let t0 = Unix.gettimeofday () in
  for i = 1 to ticks do
    K.step kernel;
    if i mod cadence = 0 && (i / cadence) - 1 < n_samples then begin
      let j = (i / cadence) - 1 in
      us.(j) <- K.utility kernel;
      oks.(j) <- (K.resources_feasible kernel ~tol, K.paths_feasible kernel ~tol)
    end
  done;
  let tick_s = (Unix.gettimeofday () -. t0) /. float_of_int ticks in
  Printf.printf "  kernel       %8.3f ms/tick from cold over %d ticks (%.0f ticks/s)\n"
    (tick_s *. 1e3) ticks (1. /. tick_s);
  (* Per-feed cost: replay the collected samples through a monitor, best
     of several batches. *)
  let monitor = M.create () in
  let feed m ~at j =
    M.observe_utility m ~at us.(j);
    let resources_ok, paths_ok = oks.(j) in
    M.observe_feasible m ~at ~resources_ok ~paths_ok
  in
  for j = 0 to n_samples - 1 do
    feed monitor ~at:(float_of_int ((j + 1) * cadence)) j
  done;
  let feed_s = ref infinity in
  for batch = 0 to 2 do
    let base = float_of_int ((batch + 1) * feed_reps * cadence) in
    let t0 = Unix.gettimeofday () in
    for k = 0 to feed_reps - 1 do
      feed monitor ~at:(base +. float_of_int (k * cadence)) (k mod n_samples)
    done;
    let per = (Unix.gettimeofday () -. t0) /. float_of_int feed_reps in
    if per < !feed_s then feed_s := per
  done;
  let feed_s = !feed_s in
  let overhead = feed_s /. (float_of_int cadence *. tick_s) *. 100. in
  Printf.printf "  monitor feed %8.3f us each (best of 3 x %d feeds)\n" (feed_s *. 1e6) feed_reps;
  Printf.printf "  overhead     %8.4f%% of a %d-tick cadence window  (budget %.0f%%)\n" overhead
    cadence budget;
  Printf.printf "  monitor      %d samples, %d alerts raised, %d cleared\n"
    (M.utility_samples monitor) (M.alerts_raised monitor) (M.alerts_cleared monitor);
  Snapshot.write ~dir:!json_dir ~name ~engine:"sim" ~seed:42
    Snapshot.
      [
        int "subtasks" subtasks;
        int "ticks" ticks;
        int "cadence" cadence;
        num ~judge:(Perf 4.) "ticks_per_s" "%.0f" (1. /. tick_s);
        num ~judge:(Perf 6.) "feed_us" "%.3f" (feed_s *. 1e6);
        num ~judge:(Perf 10.) "overhead_pct" "%.4f" overhead;
        int "alerts_raised" (M.alerts_raised monitor);
        int "alerts_cleared" (M.alerts_cleared monitor);
      ];
  let g = Snapshot.gate () in
  if gate && overhead > budget then
    Snapshot.fail g "monitor feed exceeds the %.0f%% overhead budget" budget;
  Snapshot.finish g ~pass:gate

(* ------------------------------------------------------------------ *)
(* Domains-parallel runtime benchmark (BENCH_parallel*.json)           *)
(* ------------------------------------------------------------------ *)

(* Deploy the full message-passing runtime — one price agent per
   resource, one task controller per task — onto
   {!Lla_runtime.Engine.domains} engines over the planet-scale generated
   scenario and measure control throughput against the domain count.
   Agents/sec counts retired control rounds (Eq. 8 price recomputations
   + Eq. 9/7 allocation solves) per wall-clock second.

   With [gate] (parallel-smoke, run from CI) two checks are hard
   failures:

   - {b replay determinism}: two same-seed 4-domain runs must be
     replay-identical — final latencies, prices, utility and every
     runtime counter bit-for-bit (the deterministic-merge total order
     at work);
   - {b scaling}: on a host with >= 4 cores, the 4-domain deployment
     must retire at least 1.6x the agents/sec of the same scenario
     pinned to 1 domain. A 2-core host cannot express that floor (the
     ideal 4-vs-1 ratio is bounded by the core count, minus the
     cross-shard merge tax and the oversubscribed stop-the-world GC
     rendezvous), so there the gate degrades to: the best parallel
     configuration must still beat the 1-domain deployment by >= 1.1x.
     The applied floor is printed and stamped in the snapshot. *)
let parallel_bench ~name ~subtasks ~duration ~sweeps ~gate () =
  let module Reng = Lla_runtime.Engine in
  let module D = Lla_runtime.Distributed in
  let module T = Lla_transport.Transport in
  let module P = Lla.Problem in
  print_string
    (Lla_experiments.Report.header
       (Printf.sprintf "Domains-parallel runtime (%d subtasks, %.0f ms sim, %d sweeps, seed 42)"
          subtasks duration sweeps));
  (* Domains rendezvous at every minor collection, and a descheduled
     domain (4 domains on 2 cores) makes the whole stop-the-world spin.
     A big minor heap keeps collections rare — but OCaml 5 fixes the
     per-domain minor size at startup, so it must come from the
     environment (ci.sh exports OCAMLRUNPARAM=s=8M for this step). *)
  (let mh = (Gc.get ()).Gc.minor_heap_size in
   if mh < 1024 * 1024 then
     Printf.printf
       "  note: minor heap is %d words; run with OCAMLRUNPARAM='s=8M' for representative \
        parallel numbers\n"
       mh);
  let t0 = Unix.gettimeofday () in
  let workload =
    (* The generator emits linear utilities over reciprocal shares, for
       which {!Lla.Allocation} takes its closed-form shortcut and the
       Eq. 7 Gauss-Seidel sweeps never run. Swap in soft-deadline
       utilities — the paper's general concave Eq. 1 case — so every
       allocation round performs the real per-subtask bisection solve. *)
    let base =
      Lla_scale.Generator.generate ~params:(Lla_scale.Generator.sized ~subtasks ()) ~seed:42 ()
    in
    Lla_model.Workload.make_exn
      ~tasks:
        (List.map
           (fun (t : Lla_model.Task.t) ->
             Lla_model.Task.with_utility t
               (Lla_model.Utility.soft_deadline ~sharpness:8.
                  ~critical_time:t.Lla_model.Task.critical_time ()))
           base.Lla_model.Workload.tasks)
      ~resources:base.Lla_model.Workload.resources
  in
  let problem = P.compile workload in
  Printf.printf "  scenario     %s  (generated in %.2f s)\n"
    (Lla_scale.Generator.describe workload)
    (Unix.gettimeofday () -. t0);
  (* Per-channel delay histograms would dominate the heap at 10^5
     channels: share one aggregate counter block (the scale valve). *)
  let tconfig = { T.default_config with T.channel_metrics = false; T.delay_window = 8 } in
  let n_sub = P.n_subtasks problem in
  let n_res = Array.length problem.P.resource_ids in
  (* Deeper per-round allocation solves (Eq. 7 Gauss-Seidel sweeps) make
     the control rounds compute-bearing: the gate measures how the
     engine scales the actors' own work, not the cross-shard message
     tax, which at 4 domains on a small host would otherwise drown the
     two usable cores. *)
  let config = { D.default_config with D.sweeps } in
  let measure domains =
    let eng = Reng.domains ~domains () in
    let dist = D.create_on ~config ~transport_config:tconfig eng workload in
    let t0 = Unix.gettimeofday () in
    D.run dist ~duration;
    D.stop dist;
    Reng.drain eng;
    let wall = Unix.gettimeofday () -. t0 in
    let rounds = D.price_rounds dist + D.allocation_rounds dist in
    let fingerprint =
      ( D.utility dist,
        D.messages_sent dist,
        D.price_rounds dist,
        D.allocation_rounds dist,
        Array.init n_sub (fun i -> D.latency dist problem.P.subtasks.(i).P.sid),
        Array.init n_res (fun r -> D.mu dist problem.P.resource_ids.(r)) )
    in
    Reng.shutdown eng;
    let agents_per_s = float_of_int rounds /. wall in
    Printf.printf "  %d domain%s   %8.2f s wall   %8d rounds   %10.0f agents/s\n" domains
      (if domains = 1 then " " else "s")
      wall rounds agents_per_s;
    (agents_per_s, fingerprint)
  in
  let a1, _ = measure 1 in
  let a2, _ = measure 2 in
  let a4, fp4 = measure 4 in
  let a4', fp4' = measure 4 in
  (* [compare] (not [=]): the latency/price arrays may carry NaNs on a
     genuinely broken run, and the replay check must still be decisive. *)
  let replay_ok = compare fp4 fp4' = 0 in
  (* Throughput from the better of the two (replay) runs — the box CI
     shares is noisy and the pessimistic sample says nothing about the
     engine. *)
  let a4 = Float.max a4 a4' in
  let cores = Domain.recommended_domain_count () in
  let full_host = cores >= 4 in
  let speedup4 = a4 /. a1 in
  let best_parallel = Float.max a2 a4 /. a1 in
  let floor = if full_host then 1.6 else 1.1 in
  let gated = if full_host then speedup4 else best_parallel in
  Printf.printf "  4-vs-1 speedup %.2fx (best parallel %.2fx)    replay %s    %d cores\n" speedup4
    best_parallel
    (if replay_ok then "identical" else "DIVERGED")
    cores;
  Snapshot.write ~dir:!json_dir ~name ~engine:"domains" ~domains:4 ~seed:42
    Snapshot.
      [
        int "subtasks" n_sub;
        int "resources" n_res;
        int "tasks" (List.length workload.Lla_model.Workload.tasks);
        num "sim_ms" "%.0f" duration;
        int "sweeps" sweeps;
        num ~judge:(Perf 4.) "agents_per_s_1_domain" "%.0f" a1;
        num ~judge:(Perf 4.) "agents_per_s_2_domains" "%.0f" a2;
        num ~judge:(Perf 4.) "agents_per_s_4_domains" "%.0f" a4;
        num ~judge:(Perf 6.) "speedup_4_vs_1" "%.2f" speedup4;
        num ~judge:(Perf 6.) "speedup_floor" "%.2f" floor;
        bool "replay_identical" replay_ok;
      ];
  let g = Snapshot.gate () in
  if gate then begin
    if not replay_ok then Snapshot.fail g "same-seed 4-domain runs diverged";
    if gated < floor then
      Snapshot.fail g "%s speedup %.2fx under the %.1fx floor (%d-core host)"
        (if full_host then "4-domain" else "best parallel")
        gated floor cores
  end;
  Snapshot.finish g ~pass:gate

let experiments =
  let module E = Lla_experiments in
  [
    ("table1", report E.Table1.run E.Table1.report);
    ("fig5", report E.Fig5.run E.Fig5.report);
    ("fig6", report E.Fig6.run E.Fig6.report);
    ("fig7", report E.Fig7.run E.Fig7.report);
    ("fig8", report E.Fig8.run E.Fig8.report);
    ("ablation", report E.Ablation.run E.Ablation.report);
    ("adaptation", report E.Adaptation.run E.Adaptation.report);
    ("variation", report E.Workload_variation.run E.Workload_variation.report);
    ("delays", report E.Delay_sweep.run E.Delay_sweep.report);
    ("chaos", report E.Chaos.run E.Chaos.report);
    ("recovery", report E.Recovery.run E.Recovery.report);
    ("campaign", run_campaign);
    ("profile", profile_overhead ~smoke:false);
    ("profile-smoke", profile_overhead ~smoke:true);
    ("control-latency", run_control_latency);
    ("micro", run_micro);
    ("scale", run_scale);
    ("scale-smoke", scale_bench ~name:"scale_smoke" ~subtasks:10_000 ~gate:true);
    ("soak", soak_bench ~name:"soak" ~config:Lla_soak.Soak.default_config ~gate:false);
    ("soak-smoke", run_soak_smoke);
    ("recovery-smoke", run_recovery_smoke);
    ("monitor-smoke", monitor_overhead_bench ~name:"monitor_smoke" ~subtasks:10_000 ~gate:true);
    ( "parallel",
      parallel_bench ~name:"parallel" ~subtasks:100_000 ~duration:60. ~sweeps:160 ~gate:false );
    ( "parallel-smoke",
      parallel_bench ~name:"parallel_smoke" ~subtasks:100_000 ~duration:20. ~sweeps:160 ~gate:true
    );
  ]

let () =
  (* [--json DIR] anywhere on the command line routes machine-readable
     BENCH_<name>.json snapshots to DIR (see README, "Benchmark
     snapshots"). *)
  let rec strip_json acc = function
    | "--json" :: dir :: rest ->
      json_dir := Some dir;
      strip_json acc rest
    | "--json" :: [] ->
      prerr_endline "bench: --json needs a directory argument";
      exit 2
    | arg :: rest -> strip_json (arg :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_json [] (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [ "compare"; fresh ] | [ "compare"; fresh; _ ] -> (
    (* judge a fresh [--json DIR] run against the committed snapshots *)
    let base = match args with [ _; _; base ] -> base | _ -> "." in
    match Snapshot.compare_dirs ~out:print_endline ~fresh ~base with
    | Ok true -> print_endline "bench compare: all snapshots within tolerance"
    | Ok false -> exit 1
    | Error msg ->
      prerr_endline ("bench compare: " ^ msg);
      exit 2)
  | "compare" :: _ ->
    prerr_endline "usage: main.exe compare FRESH_DIR [BASE_DIR]";
    exit 2
  | _ ->
    let requested =
      match args with
      | _ :: _ when not (List.mem "all" args) -> args
      | _ -> List.map fst experiments
    in
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f ->
          f ();
          print_newline ()
        | None ->
          Printf.eprintf "unknown experiment %S; available: %s all\n" name
            (String.concat " " (List.map fst experiments));
          exit 2)
      requested
