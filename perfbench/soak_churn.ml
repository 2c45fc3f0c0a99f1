(* soak_churn: the endurance loop — churn, the chaos rota, a streaming
   monitor, journal appends and whole-node crash drills — over
   [ticks_per_second * seconds] kernel ticks of [Soak.default_config]'s
   800-subtask scenario.

   The journal sits on the in-memory store with every fault rate at
   zero: fsync latency on a shared host is neither steady nor something
   a code change moves. Set-up is what [Soak.run] does before its first
   tick (generate, compile, compact, warm-start solve), read as its wall
   minus the horizon's; [setups] extra one-tick runs give the median.
   [solves] cold solves of the same scenario give [solve_s]. Both run
   between the soak's watchdog windows, outside the windows' timing.

   [Soak.config.seed] seeds the scenario, the churn stream and the chaos
   rota together, and it is pinned to the default 42. Across seeds the
   worst warm-restart climb ranged from 16 to 2546 ticks and the final
   utility by 15% (seeds 1-4 against 42), which would swamp any bound
   the benchmark may set. The run seed changes nothing here. *)

module Soak = Lla_soak.Soak
module Journal = Lla_durable.Journal
module Kernel = Lla_scale.Kernel
module Generator = Lla_scale.Generator
module Monitor = Lla_obs.Monitor
module Metrics = Lla_obs.Metrics

let ticks_per_second = 30_000

let setups = 9

let solves = 50

let scenario_seed = 42

let config ~horizon =
  {
    Soak.default_config with
    seed = scenario_seed;
    horizon;
    journal_every = 1_000;
    crash_every = 25_000;
  }

let run (p : Probe.t) ~seed:_ ~seconds =
  let gates = ref [] in
  let gate ok msg = if not ok then gates := msg :: !gates in
  (* The kernel's registry counters of every soak, the one-tick runs
     too: their warm-start solves are profiled as [kernel.step] like the
     main run's ticks, so their touches must be counted beside them. *)
  let kernel_counters =
    [
      "lla_kernel_ticks_total";
      "lla_kernel_touched_subtasks_total";
      "lla_kernel_touched_resources_total";
      "lla_kernel_touched_paths_total";
    ]
  in
  let kernel_counts = Array.make (List.length kernel_counters) 0 in
  let add_kernel_counts = function
    | Some o ->
        List.iteri
          (fun i name ->
            match Metrics.find_counter o.Lla_obs.metrics name with
            | Some c -> kernel_counts.(i) <- kernel_counts.(i) + Metrics.value c
            | None -> ())
          kernel_counters
    | None -> ()
  in
  let soak ?on_progress config =
    let obs = Probe.obs p in
    let monitor = Monitor.create () in
    let journal = Journal.create ?obs (Journal.Store.faulty ~seed:scenario_seed ()) in
    let t0 = Clock.now () in
    let r =
      Probe.span p "soak.run" (fun () -> Soak.run ?obs ~monitor ~journal ?on_progress config)
    in
    let wall = Clock.now () -. t0 in
    add_kernel_counts obs;
    match r with
    | Ok r -> (r, wall -. r.Soak.elapsed_s, monitor, journal)
    | Error e -> failwith ("Soak.run: " ^ e)
  in
  (* cold solves of the soak's scenario *)
  let base = config ~horizon:1 in
  let params = Generator.sized ?resources:base.resources ~subtasks:base.subtasks () in
  let workload =
    Probe.span p "generator.generate" (fun () -> Generator.generate ~params ~seed:scenario_seed ())
  in
  let problem = Probe.span p "problem.compile" (fun () -> Lla.Problem.compile workload) in
  let setup_s = ref [] and solve_s = ref [] in
  let iterations = ref None and touched = ref (0, 0, 0, 0) and n_resources = ref 0 in
  let solve () =
    let kernel =
      match
        Probe.span p "kernel.compact" (fun () ->
            Kernel.of_problem ?obs:(Probe.obs p) ~config:Kernel.scale_config problem)
      with
      | Ok k -> k
      | Error e -> failwith ("Kernel.of_problem: " ^ e)
    in
    let t0 = Clock.now () in
    let r =
      Probe.span p "kernel.solve" (fun () ->
          Kernel.solve kernel ~max_iterations:base.warmstart_iterations)
    in
    solve_s := (Clock.now () -. t0) :: !solve_s;
    (match (r, !iterations) with
    | Some n, None -> iterations := Some n
    | Some n, Some m when n = m -> ()
    | _ -> gate false "cold solve of the soak scenario did not converge, or not repeatably");
    let c = Kernel.cumulative_touch kernel in
    let t, s, r, q = !touched in
    touched :=
      ( t + Kernel.iteration kernel,
        s + c.subtasks_touched,
        r + c.resources_touched,
        q + c.paths_touched );
    n_resources := Kernel.n_resources kernel
  in
  (* The one-tick set-up runs and the cold solves run inside the soak,
     between watchdog windows, spread evenly over its horizon; each
     window is timed from the end of the work before it. Run back to
     back, 50 solves last under 0.1 s, and on a 2-vCPU shared host such
     a batch came out wholly fast (~1.1 ms a solve) or wholly slow
     (~1.8 ms) — 4 runs of 10 fast — so the run's median followed one
     instant of the host. Spread like the windows, the solves sample the
     whole run as the windows do. *)
  let n_extras = setups + solves in
  let extra_gc = ref Report.no_gc in
  let extra i =
    let g0 = Probe.gc_mark () in
    (* set-ups interleaved evenly among the solves *)
    if (i + 1) * setups / n_extras > i * setups / n_extras then begin
      let _, s, _, _ = soak (config ~horizon:1) in
      setup_s := s :: !setup_s
    end
    else solve ();
    extra_gc := Report.add_gc !extra_gc (Probe.gc_since g0)
  in
  (* the soak itself, long enough for one part of watchdog windows
     (between consecutive progress calls) *)
  let every = Soak.default_config.watchdog_every in
  let horizon = max (ticks_per_second * seconds) ((Stats.part_size + 2) * every) in
  let main = config ~horizon in
  let n_windows = horizon / every in
  let windows = Array.make n_windows 0. in
  let n_calls = ref 0 and start = ref 0. and done_extras = ref 0 in
  let on_progress ~tick:_ =
    let now = Clock.now () in
    if !n_calls > 0 then begin
      windows.(!n_calls - 1) <- now -. !start;
      (* a traced window is a child of the open soak.run span *)
      if p.traced then Spans.mark p.spans "soak.window" ~start:!start ~stop:now
    end;
    incr n_calls;
    if !done_extras < n_extras && !n_calls * (n_extras + 1) >= (!done_extras + 1) * n_windows
    then begin
      extra !done_extras;
      incr done_extras
    end;
    Probe.poll p;
    start := Clock.now ()
  in
  let g0 = Probe.gc_mark () in
  let r, setup, monitor, journal = soak ~on_progress main in
  let gc = Report.sub_gc (Probe.gc_since g0) !extra_gc in
  setup_s := setup :: !setup_s;
  gate (!done_extras = n_extras)
    (Printf.sprintf "only %d of %d set-ups and solves ran inside the soak" !done_extras n_extras);
  let windows = Array.sub windows 0 (!n_calls - 1) in
  let ticks_per_window = float_of_int every in
  let per_tick = Array.map (fun w -> w /. ticks_per_window) windows in
  let ticks_per_s = Report.rate windows ~per_sample:(fun _ -> ticks_per_window) in
  let health = horizon / main.health_every in
  let tally = { Stats.attempted = health; failed = min health r.violation_count } in
  gate (r.violation_count = 0)
    (Printf.sprintf "%d oracle violations, first: %s" r.violation_count
       (match List.rev r.oracle_violations with v :: _ -> v | [] -> "-"));
  gate r.final_feasible "the soak ended infeasible";
  gate (r.journal_refused = 0) (Printf.sprintf "%d journal records refused" r.journal_refused);
  gate
    (r.crashes > 0 && r.warm_recoveries = r.crashes)
    (Printf.sprintf "%d of %d crash drills restarted warm" r.warm_recoveries r.crashes);
  let iterations = Option.value !iterations ~default:0 in
  let ct, cs, cr, cp = !touched in
  let agents = !n_resources + r.tasks in
  let recovery = float_of_int r.worst_recovery_ticks in
  {
    Report.e2e =
      [
        ("setup_s", Stats.median (Array.of_list !setup_s));
        ("solve_s", Stats.median (Array.of_list !solve_s));
        ("ticks_to_converge", float_of_int iterations);
        ("tick_us_p50", Report.tick_us ~p:50. per_tick);
        ("tick_us_p99", Report.tick_us ~p:99. per_tick);
        ("ticks_per_s", ticks_per_s);
        ("rounds_per_s", ticks_per_s *. float_of_int agents);
        ("recovery_ticks", recovery);
        ("ok_share", Stats.ok_share tally);
        ("utility", r.final_utility);
      ];
    counts =
      [
        ("kernel.ticks", float_of_int (ct + kernel_counts.(0)));
        ("kernel.subtasks_touched", float_of_int (cs + kernel_counts.(1)));
        ("kernel.resources_touched", float_of_int (cr + kernel_counts.(2)));
        ("kernel.paths_touched", float_of_int (cp + kernel_counts.(3)));
        ("kernel.guard_events", float_of_int r.guard_events);
        ("soak.admits", float_of_int r.admits);
        ("soak.retires", float_of_int r.retires);
        ("soak.chaos_windows", float_of_int r.chaos_windows);
        ("soak.stalls", float_of_int r.stalls);
        ("soak.safe_entries", float_of_int r.safe_entries);
        ("soak.baseline_checks", float_of_int r.baseline_checks);
        ("journal.appends", float_of_int (Journal.appends journal));
        ("journal.bytes", float_of_int (Journal.bytes_written journal));
        ("journal.rotations", float_of_int (Journal.rotations journal));
        ("recovery.crashes", float_of_int r.crashes);
        ("recovery.warm", float_of_int r.warm_recoveries);
        ("recovery.records_replayed", float_of_int r.journal_replayed);
        ("recovery.refused", float_of_int r.journal_refused);
        ("monitor.feeds", float_of_int (Monitor.utility_samples monitor));
        ("monitor.alerts_raised", float_of_int r.alerts_raised);
      ];
    tally;
    gates = List.rev !gates;
    ops = horizon;
    gc;
    exact =
      [
        ("ticks_to_converge", float_of_int iterations);
        ("recovery_ticks", recovery);
        ("utility", r.final_utility);
        ("soak.admits", float_of_int r.admits);
        ("journal.bytes", float_of_int (Journal.bytes_written journal));
      ];
    summary =
      [
        Printf.sprintf
          "scenario: %d subtasks, %d tasks, seed %d; horizon %d ticks, %d windows in %.3f s; %d \
           set-ups and %d solves between them"
          r.subtasks r.tasks scenario_seed horizon (Array.length windows)
          (Array.fold_left ( +. ) 0. windows)
          setups solves;
        Printf.sprintf
          "churn %d admits / %d retires, %d chaos windows, %d crash drills (%d warm), %d journal \
           appends, %d baseline checks, %d violations"
          r.admits r.retires r.chaos_windows r.crashes r.warm_recoveries (Journal.appends journal)
          r.baseline_checks r.violation_count;
        Report.parts_line per_tick;
      ];
  }
