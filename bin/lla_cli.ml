(* Command-line interface to the LLA reproduction: run paper experiments,
   probe workload schedulability, solve a workload and print the
   allocation, or emulate the prototype system. *)

open Cmdliner

(* --verbose enables Logs debug output on stderr for every subcommand. *)
let setup_logs verbose =
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (Some (if verbose then Logs.Debug else Logs.Warning))

let verbose_arg =
  let doc = "Print solver/optimizer debug logs on stderr." in
  Arg.(value & flag & info [ "verbose"; "v" ] ~doc)

let iterations_arg =
  let doc = "Maximum number of LLA iterations." in
  Arg.(value & opt int 2000 & info [ "iterations"; "n" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Also write the experiment's main series to $(docv)." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let workload_arg =
  let doc =
    "Workload to operate on: 'base' (the paper's 3-task simulation workload), 'six' \
     (over-provisioned 6 tasks), 'twelve', 'unschedulable' (6 tasks, original critical times), \
     'prototype' (the paper's 4-task system workload), 'random:SEED', or 'file:PATH' (the \
     text format documented in Lla_model.Workload_codec)."
  in
  Arg.(value & opt string "base" & info [ "workload"; "w" ] ~docv:"NAME" ~doc)

let parse_workload name =
  match String.split_on_char ':' name with
  | [ "base" ] -> Ok (Lla_workloads.Paper_sim.base ())
  | [ "six" ] -> Ok (Lla_workloads.Paper_sim.scaled ~copies:2 ())
  | [ "twelve" ] -> Ok (Lla_workloads.Paper_sim.scaled ~copies:4 ())
  | [ "unschedulable" ] -> Ok (Lla_workloads.Paper_sim.unschedulable_six ())
  | [ "prototype" ] -> Ok (Lla_workloads.Prototype.workload ())
  | "file" :: rest ->
    let path = String.concat ":" rest in
    Result.map_error (fun msg -> `Msg msg) (Lla_model.Workload_codec.load ~path)
  | [ "random"; seed ] -> (
    match int_of_string_opt seed with
    | Some seed -> Ok (Lla_workloads.Random_gen.generate ~seed ())
    | None -> Error (`Msg "random workload needs an integer seed, e.g. random:42"))
  | _ -> Error (`Msg (Printf.sprintf "unknown workload %S" name))

let or_exit = function
  | Ok v -> v
  | Error (`Msg m) ->
    prerr_endline ("error: " ^ m);
    exit 2

let write_series_csv path series =
  let rows =
    List.concat_map
      (fun (name, s) ->
        List.map (fun (x, y) ->
            [ name; Printf.sprintf "%.17g" x; Printf.sprintf "%.17g" y ])
          (Lla_stdx.Series.downsample s ~max_points:(Lla_stdx.Series.length s)))
      series
  in
  Lla_stdx.Csv.write ~path ~header:[ "series"; "x"; "y" ] ~rows;
  Printf.printf "wrote %s\n" path

(* --- experiment subcommands ----------------------------------------- *)

let table1_cmd =
  let run iterations =
    print_string (Lla_experiments.Table1.report (Lla_experiments.Table1.run ~iterations ()))
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce Table 1 (optimal latency assignment).")
    Term.(const run $ iterations_arg)

let fig5_cmd =
  let run iterations csv =
    let result = Lla_experiments.Fig5.run ~iterations () in
    print_string (Lla_experiments.Fig5.report result);
    Option.iter
      (fun path ->
        write_series_csv path
          (List.map
             (fun (c : Lla_experiments.Fig5.curve) -> (c.label, c.series))
             result.Lla_experiments.Fig5.curves))
      csv
  in
  Cmd.v
    (Cmd.info "fig5" ~doc:"Reproduce Figure 5 (step-size study).")
    Term.(const run $ iterations_arg $ csv_arg)

let fig6_cmd =
  let run iterations csv =
    let result = Lla_experiments.Fig6.run ~iterations () in
    print_string (Lla_experiments.Fig6.report result);
    Option.iter
      (fun path ->
        write_series_csv path
          (List.map
             (fun (p : Lla_experiments.Fig6.point) ->
               (Printf.sprintf "%d-tasks" p.Lla_experiments.Fig6.n_tasks,
                p.Lla_experiments.Fig6.series))
             result.Lla_experiments.Fig6.points))
      csv
  in
  Cmd.v
    (Cmd.info "fig6" ~doc:"Reproduce Figure 6 (task-count scaling).")
    Term.(const run $ iterations_arg $ csv_arg)

let fig7_cmd =
  let run iterations csv =
    let result = Lla_experiments.Fig7.run ~iterations () in
    print_string (Lla_experiments.Fig7.report result);
    Option.iter
      (fun path ->
        write_series_csv path
          (("utility", result.Lla_experiments.Fig7.utility_series)
          :: result.Lla_experiments.Fig7.share_series))
      csv
  in
  Cmd.v
    (Cmd.info "fig7" ~doc:"Reproduce Figure 7 (schedulability probe).")
    Term.(const run $ iterations_arg $ csv_arg)

let fig8_cmd =
  let duration =
    Arg.(value & opt float 120. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated seconds.")
  in
  let enable_at =
    Arg.(
      value
      & opt float 60.
      & info [ "enable-correction-at" ] ~docv:"SECONDS"
          ~doc:"When to switch on model error correction.")
  in
  let run duration enable_at csv =
    let result =
      Lla_experiments.Fig8.run ~duration:(duration *. 1000.)
        ~enable_correction_at:(enable_at *. 1000.) ()
    in
    print_string (Lla_experiments.Fig8.report result);
    Option.iter
      (fun path ->
        write_series_csv path
          [
            ("fast-share", result.Lla_experiments.Fig8.fast_share_series);
            ("slow-share", result.Lla_experiments.Fig8.slow_share_series);
            ("fast-error", result.Lla_experiments.Fig8.fast_error_series);
          ])
      csv
  in
  Cmd.v
    (Cmd.info "fig8" ~doc:"Reproduce Figure 8 (prototype with error correction).")
    Term.(const run $ duration $ enable_at $ csv_arg)

let adaptation_cmd =
  let run iterations =
    print_string
      (Lla_experiments.Adaptation.report
         (Lla_experiments.Adaptation.run ~iterations_per_phase:iterations ()))
  in
  Cmd.v
    (Cmd.info "adaptation"
       ~doc:"Run the online-adaptation experiment (capacity drop and recovery).")
    Term.(const run $ iterations_arg)

let variation_cmd =
  let run () =
    print_string
      (Lla_experiments.Workload_variation.report (Lla_experiments.Workload_variation.run ()))
  in
  Cmd.v
    (Cmd.info "variation"
       ~doc:"Run the workload-variation experiment (silent mid-run rate change).")
    Term.(const run $ const ())

let delays_cmd =
  let jitter =
    Arg.(
      value
      & opt float 0.
      & info [ "jitter" ] ~docv:"FRACTION"
          ~doc:
            "Jitter one-way delays uniformly by +/- this fraction of the nominal delay \
             (0.5 = +/-50%) instead of using a constant delay.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Seed for the jittered delay RNG.")
  in
  let run jitter seed =
    print_string
      (Lla_experiments.Delay_sweep.report (Lla_experiments.Delay_sweep.run ~jitter ~seed ()))
  in
  Cmd.v
    (Cmd.info "delays" ~doc:"Sweep control-message delay for the distributed deployment.")
    Term.(const run $ jitter $ seed)

(* The chaos / recovery / campaign commands share one pair of seeding
   flags: [--seed N] is the base seed and [--runs K] repeats the
   experiment with seeds N, N+1, ..., N+K-1 — the same convention the
   campaign generator uses for its schedules. *)
let runs_arg =
  Arg.(
    value
    & opt int 1
    & info [ "runs" ] ~docv:"K"
        ~doc:
          "Repeat the experiment $(docv) times with seeds $(b,N), $(b,N+1), ..., $(b,N+K-1) \
           (where $(b,N) is $(b,--seed)) — the seeding convention of $(b,campaign). The CSV \
           export, when requested, holds the last run.")

let seed_arg ~doc = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

(* The campaign and chaos-replay commands can swap the deterministic
   simulator for the OCaml 5 domains-parallel engine; [--domains] sizes
   its pool. *)
let engine_arg =
  Arg.(
    value
    & opt (enum [ ("sim", `Sim); ("domains", `Domains) ]) `Sim
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:
          "Execution engine: $(b,sim) (the deterministic single-threaded simulator, default) or \
           $(b,domains) (the OCaml 5 domains-parallel runtime in deterministic-merge mode — \
           replays are still bit-identical for a fixed $(b,--domains)).")

let domains_arg =
  Arg.(
    value
    & opt int 4
    & info [ "domains" ] ~docv:"N" ~doc:"Domain-pool size for $(b,--engine domains) (default 4).")

let campaign_engine engine domains : Lla_chaos.Campaign.engine =
  match engine with `Sim -> `Sim | `Domains -> `Domains domains

let foreach_seed ~runs ~seed f =
  for i = 0 to max 0 (runs - 1) do
    let s = seed + i in
    if runs > 1 then Printf.printf "=== seed %d ===\n" s;
    f s
  done

let chaos_cmd =
  let seed = seed_arg ~doc:"Base seed for the fault-injection RNG." in
  let horizon =
    Arg.(
      value
      & opt float 120.
      & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Simulated control time per scenario.")
  in
  let run seed runs horizon csv =
    foreach_seed ~runs ~seed (fun seed ->
        let result = Lla_experiments.Chaos.run ~seed ~horizon:(horizon *. 1000.) () in
        print_string (Lla_experiments.Chaos.report result);
        Option.iter
          (fun path ->
            let series = Lla_stdx.Series.create () in
            List.iter
              (fun (x, y) -> Lla_stdx.Series.add series ~x ~y)
              result.Lla_experiments.Chaos.partition.Lla_experiments.Chaos.series;
            write_series_csv path [ ("partition-utility", series) ])
          csv)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run the chaos experiments (message loss, delay jitter, partition + heal) on the \
          distributed deployment.")
    Term.(const run $ seed $ runs_arg $ horizon $ csv_arg)

let recovery_cmd =
  let seed = seed_arg ~doc:"Base seed for the transport RNG." in
  let horizon =
    Arg.(
      value
      & opt float 60.
      & info [ "horizon" ] ~docv:"SECONDS" ~doc:"Simulated control time per scenario.")
  in
  let run seed runs horizon csv =
    foreach_seed ~runs ~seed (fun seed ->
        let result = Lla_experiments.Recovery.run ~seed ~horizon:(horizon *. 1000.) () in
        print_string (Lla_experiments.Recovery.report result);
        Option.iter
          (fun path ->
            let series = Lla_stdx.Series.create () in
            List.iter
              (fun (x, y) -> Lla_stdx.Series.add series ~x ~y)
              result.Lla_experiments.Recovery.protected_.Lla_experiments.Recovery.utility_series;
            write_series_csv path [ ("protected-utility", series) ])
          csv)
  in
  Cmd.v
    (Cmd.info "recovery"
       ~doc:
         "Run the recovery experiments (warm vs cold restart after a control-plane crash, \
          safe-mode divergence containment, heartbeat failure detection).")
    Term.(const run $ seed $ runs_arg $ horizon $ csv_arg)

let campaign_cmd =
  let runs =
    Arg.(
      value
      & opt int 50
      & info [ "runs" ] ~docv:"K" ~doc:"Number of generated schedules to execute.")
  in
  let seed =
    seed_arg
      ~doc:
        "Base seed: run $(i,i) executes the schedule generated from seed $(b,N)+$(i,i). Same \
         seed, byte-identical summary."
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write failing runs' schedules to $(docv) (created if needed) as \
             $(b,repro-<seed>.json) plus a delta-debugged $(b,repro-<seed>.min.json) — both \
             replayable with $(b,chaos-replay).")
  in
  let fragile =
    Arg.(
      value
      & flag
      & info [ "fragile" ]
          ~doc:
            "Run the deliberately breakable deployment (resilience off, aggressive fixed step) \
             instead of the robust one — demonstrates the oracles catching violations.")
  in
  let run runs seed out fragile engine domains =
    let engine = campaign_engine engine domains in
    let summary = Lla_chaos.Campaign.run ~engine ?out ~fragile ~runs ~seed () in
    print_string summary.Lla_chaos.Campaign.report;
    match summary.Lla_chaos.Campaign.failures with
    | [] -> ()
    | failures ->
        List.iter
          (fun (f : Lla_chaos.Campaign.failure) ->
            Option.iter (Printf.printf "repro: %s\n") f.Lla_chaos.Campaign.repro_path;
            Option.iter (Printf.printf "shrunk repro: %s\n") f.Lla_chaos.Campaign.shrunk_path)
          failures;
        Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a randomized fault campaign: generate seeded fault schedules, execute each \
          against the distributed deployment, judge safety and liveness oracles, and shrink \
          any failure to a minimal JSON reproducer. Exits 1 on any oracle violation.")
    Term.(const run $ runs $ seed $ out $ fragile $ engine_arg $ domains_arg)

let chaos_replay_cmd =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"REPRO.json"
          ~doc:"A schedule artifact written by $(b,campaign --out) (or by hand).")
  in
  let run path engine domains =
    match Lla_chaos.Campaign.replay ~engine:(campaign_engine engine domains) ~path () with
    | Error msg ->
        prerr_endline ("chaos-replay: " ^ msg);
        Stdlib.exit 2
    | Ok exec ->
        Format.printf "%a@." Lla_chaos.Schedule.pp exec.Lla_chaos.Campaign.schedule;
        print_endline (Lla_chaos.Oracle.render exec.Lla_chaos.Campaign.verdicts);
        if not (Lla_chaos.Oracle.ok exec.Lla_chaos.Campaign.verdicts) then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "chaos-replay"
       ~doc:
         "Replay a saved fault schedule and re-judge the oracle suite — deterministic, so a \
          reproducer fails (exit 1) exactly as it did when the campaign found it (replay with \
          the engine the campaign ran on).")
    Term.(const run $ path $ engine_arg $ domains_arg)

let ablation_cmd =
  let run iterations =
    print_string (Lla_experiments.Ablation.report (Lla_experiments.Ablation.run ~iterations ()))
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run the ablation suite (baselines, variants, caps, schedulers).")
    Term.(const run $ iterations_arg)

(* --- generic tools --------------------------------------------------- *)

let solve_cmd =
  let run verbose workload_name iterations =
    setup_logs verbose;
    let workload = or_exit (parse_workload workload_name) in
    print_endline (Lla_model.Workload.stats workload);
    let solver = Lla.Solver.create workload in
    (match Lla.Solver.run_until_converged solver ~max_iterations:iterations with
    | Some i -> Printf.printf "converged at iteration %d\n" i
    | None -> Printf.printf "not converged after %d iterations\n" (Lla.Solver.iteration solver));
    Printf.printf "total utility: %.3f  feasible: %b\n" (Lla.Solver.utility solver)
      (Lla.Solver.feasible solver);
    let table =
      Lla_stdx.Table.create
        ~columns:
          [
            ("subtask", Lla_stdx.Table.Left);
            ("latency (ms)", Lla_stdx.Table.Right);
            ("share", Lla_stdx.Table.Right);
          ]
    in
    List.iter
      (fun (sid, lat) ->
        let s = Lla_model.Workload.subtask workload sid in
        Lla_stdx.Table.add_row table
          [
            s.Lla_model.Subtask.name;
            Lla_stdx.Table.cell_f lat;
            Lla_stdx.Table.cell_f ~decimals:4 (Lla.Solver.share solver sid);
          ])
      (Lla.Solver.latencies solver);
    Lla_stdx.Table.print table;
    List.iter
      (fun ((task : Lla_model.Task.t), _, cost) ->
        Printf.printf "%s: critical path %.2f ms / critical time %.0f ms\n" task.Lla_model.Task.name
          cost task.Lla_model.Task.critical_time)
      (Lla.Solver.critical_paths solver)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run LLA on a workload and print the optimal allocation.")
    Term.(const run $ verbose_arg $ workload_arg $ iterations_arg)

let export_cmd =
  let output =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Destination workload file.")
  in
  let run workload_name output =
    let workload = or_exit (parse_workload workload_name) in
    Lla_model.Workload_codec.save ~path:output workload;
    Printf.printf "wrote %s\n" output
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Write a named workload to the text format (see 'solve -w file:...').")
    Term.(const run $ workload_arg $ output)

let probe_cmd =
  let run workload_name iterations =
    let workload = or_exit (parse_workload workload_name) in
    let verdict = Lla.Schedulability.probe ~iterations workload in
    Format.printf "%a@." Lla.Schedulability.pp verdict;
    exit (if Lla.Schedulability.is_schedulable verdict then 0 else 1)
  in
  Cmd.v
    (Cmd.info "probe"
       ~doc:"Test workload schedulability with LLA (exit 0 = schedulable, 1 = not).")
    Term.(const run $ workload_arg $ iterations_arg)

let emulate_cmd =
  let duration =
    Arg.(value & opt float 30. & info [ "duration" ] ~docv:"SECONDS" ~doc:"Simulated seconds.")
  in
  let scheduler =
    let doc = "Scheduler discipline: fluid, fluid-capped, sfq or sfs." in
    Arg.(value & opt string "sfs" & info [ "scheduler" ] ~docv:"KIND" ~doc)
  in
  let run workload_name duration scheduler_name csv =
    let workload = or_exit (parse_workload workload_name) in
    let kind =
      match scheduler_name with
      | "fluid" -> Lla_sched.Scheduler.Fluid { work_conserving = true }
      | "fluid-capped" -> Lla_sched.Scheduler.Fluid { work_conserving = false }
      | "sfq" -> Lla_sched.Scheduler.Sfq { quantum = 1.0 }
      | "sfs" -> Lla_sched.Scheduler.Sfs { quantum = 1.0 }
      | other -> or_exit (Error (`Msg (Printf.sprintf "unknown scheduler %S" other)))
    in
    let config = { Lla_runtime.System.default_config with scheduler = kind } in
    let system = Lla_runtime.System.create ~config workload in
    Lla_runtime.System.run system ~until:(duration *. 1000.);
    Printf.printf "scheduler: %s, %.0f simulated seconds\n"
      (Lla_sched.Scheduler.kind_name kind) duration;
    List.iter
      (fun (task : Lla_model.Task.t) ->
        let stats = Lla_runtime.System.task_latency_stats system task.Lla_model.Task.id in
        let p95 = Lla_runtime.System.measured_task_latency system task.Lla_model.Task.id ~p:95. in
        Printf.printf
          "%-10s completions %6d  mean %7.2f ms  p95 %7.2f ms  max %7.2f ms  misses %d\n"
          task.Lla_model.Task.name stats.Lla_stdx.Stats.n stats.Lla_stdx.Stats.mean
          (Option.value p95 ~default:nan)
          stats.Lla_stdx.Stats.max
          (Lla_runtime.System.deadline_misses system task.Lla_model.Task.id))
      workload.Lla_model.Workload.tasks;
    Option.iter
      (fun path ->
        let opt = Lla_runtime.System.optimizer system in
        let traces =
          List.map
            (fun (s : Lla_model.Subtask.t) ->
              (s.Lla_model.Subtask.name, Lla_runtime.Optimizer_loop.share_trace opt s.id))
            (Lla_model.Workload.subtasks workload)
        in
        write_series_csv path
          (("measured-utility", Lla_runtime.System.measured_utility_series system) :: traces))
      csv
  in
  Cmd.v
    (Cmd.info "emulate" ~doc:"Emulate a workload on the simulated cluster with the optimizer.")
    Term.(const run $ workload_arg $ duration $ scheduler $ csv_arg)

let scenario_doc =
  "'fig5' (synchronous solver on the base workload), 'distributed' (message-passing \
   deployment, zero faults), or 'chaos' (distributed with 5% message loss, an agent outage \
   and the resilience layer on)."

(* Build the distributed / chaos scenario with obs attached, leaving
   stepping to the caller: [trace], [analyze] and [profile] run it
   straight to the horizon, the live commands render or rewrite between
   engine steps, so `top distributed` watches exactly the scenario
   `trace distributed` dumps. *)
let build_scenario_deployment ~obs ~chaos engine ~horizon =
  let workload = Lla_workloads.Paper_sim.base () in
  let d =
    if chaos then begin
      let module Transport = Lla_transport.Transport in
      let transport =
        Transport.create ~obs engine
          ~config:
            {
              Transport.default_config with
              faults = { Transport.no_faults with drop = 0.05 };
              seed = 42;
            }
      in
      let d =
        Lla_runtime.Distributed.create ~obs ~transport
          ~resilience:Lla_runtime.Distributed.default_resilience engine workload
      in
      let victim_id = (List.hd workload.Lla_model.Workload.resources).Lla_model.Resource.id in
      let victim = Lla_runtime.Distributed.agent_endpoint d victim_id in
      Transport.schedule_outage transport victim ~at:(horizon /. 3.) ~duration:(horizon /. 10.);
      d
    end
    else Lla_runtime.Distributed.create ~obs engine workload
  in
  (workload, d)

(* Shared scenario runner for the observability commands (trace, analyze,
   profile): each scenario exercises the base workload with the supplied
   obs handle attached. *)
let run_scenario ~obs experiment ~iterations ~duration =
  match experiment with
  | "fig5" | "solver" ->
    let solver = Lla.Solver.create ~obs (Lla_workloads.Paper_sim.base ()) in
    Lla.Solver.run solver ~iterations
  | ("distributed" | "chaos") as scenario ->
    let engine = Lla_sim.Engine.create () in
    let horizon = duration *. 1000. in
    let _workload, d =
      build_scenario_deployment ~obs ~chaos:(scenario = "chaos") engine ~horizon
    in
    Lla_runtime.Distributed.run d ~duration:horizon;
    Lla_runtime.Distributed.stop d
  | other -> or_exit (Error (`Msg (Printf.sprintf "unknown scenario %S" other)))

let duration_arg =
  Arg.(
    value
    & opt float 10.
    & info [ "duration" ] ~docv:"SECONDS"
        ~doc:"Simulated control time (distributed and chaos scenarios).")

let trace_cmd =
  let experiment =
    Arg.(value & pos 0 string "distributed" & info [] ~docv:"EXPERIMENT" ~doc:("Scenario to trace: " ^ scenario_doc))
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the trace (one JSON object per line) to $(docv) instead of stdout.")
  in
  let io =
    Arg.(
      value
      & vflag true
          [
            ( true,
              info [ "io" ]
                ~doc:
                  "Record per-message happy-path transport events (Transport_send, \
                   Transport_delivered). This is the default for 'trace': the point of a dump \
                   is forensics." );
            ( false,
              info [ "no-io" ]
                ~doc:
                  "Omit the per-message happy-path transport events; failures (drops, cuts, \
                   stale discards) are still traced and the aggregate counters stay in the \
                   metrics snapshot. Cuts healthy-run dump volume by roughly an order of \
                   magnitude." );
          ])
  in
  let only =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"KINDS"
          ~doc:
            "Comma-separated event-type filter for the dump: a record is written when its type \
             starts with one of the given prefixes, e.g. $(b,--only price,transport) keeps \
             price_updated plus every transport_* record. Matches the 'type' field of the JSONL \
             encoding; emission (and the metrics snapshot) is unaffected.")
  in
  let rotate =
    Arg.(
      value
      & opt (some int) None
      & info [ "rotate" ] ~docv:"MIB"
          ~doc:
            "With $(b,--out), write through a bounded rotating sink instead of one unbounded \
             file: the dump rotates every $(docv) MiB (renamed $(i,FILE.1), $(i,FILE.2), ...) \
             and only $(b,--retain) rotated segments are kept, so disk usage stays bounded on \
             arbitrarily long runs. Without this flag the single-file default is unchanged.")
  in
  let retain =
    Arg.(
      value
      & opt int 3
      & info [ "retain" ] ~docv:"N"
          ~doc:"Rotated segments to keep besides the active file (with $(b,--rotate)).")
  in
  let run experiment out iterations duration io only rotate retain =
    (* A dump is forensics: include the causal spans alongside the io
       records (both are opt-in for always-on tracing, on for dumps). *)
    let obs = Lla_obs.create ~trace_io:io ~spans:true () in
    let keep =
      match only with
      | None -> fun _ -> true
      | Some kinds ->
        let kinds =
          String.split_on_char ',' kinds |> List.map String.trim
          |> List.filter (fun k -> k <> "")
        in
        fun (r : Lla_obs.Trace.record) ->
          let name = Lla_obs.Trace.event_name r.event in
          List.exists (fun k -> String.starts_with ~prefix:k name) kinds
    in
    let rotator =
      match (out, rotate) with
      | Some path, Some mib -> Some (Lla_obs.Rotate.create ~max_bytes:(mib * 1024 * 1024) ~retain ~path ())
      | _ -> None
    in
    let oc = match (out, rotator) with Some path, None -> open_out path | _ -> stdout in
    (* Stream every record through a sink as it is emitted: the dump is
       complete even when the run outlives the trace ring buffer. *)
    let written = ref 0 in
    (match rotator with
    | Some rot ->
      Lla_obs.Trace.attach obs.Lla_obs.trace (fun r ->
          if keep r then begin
            incr written;
            Lla_obs.Rotate.sink rot r
          end)
    | None ->
      Lla_obs.Trace.attach obs.Lla_obs.trace (fun r ->
          if keep r then begin
            incr written;
            output_string oc (Lla_obs.Trace.record_to_string r);
            output_char oc '\n'
          end));
    run_scenario ~obs experiment ~iterations ~duration;
    (match (rotator, out) with
    | Some rot, Some path ->
      Lla_obs.Rotate.close rot;
      Printf.printf "wrote %d trace records to %s (%d rotations, %d segments on disk)\n" !written
        path
        (Lla_obs.Rotate.rotations rot)
        (List.length (Lla_obs.Rotate.segments rot))
    | None, Some path ->
      close_out oc;
      Printf.printf "wrote %d trace records to %s\n" !written path
    | _, None -> flush oc);
    (* Metrics snapshot after the run, Prometheus text exposition. *)
    print_string (Lla_obs.Metrics.expose obs.Lla_obs.metrics)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a scenario with observability on and dump the structured trace (JSONL) plus a \
          metrics snapshot.")
    Term.(const run $ experiment $ out $ iterations_arg $ duration_arg $ io $ only $ rotate $ retain)

let analyze_cmd =
  let target =
    Arg.(
      value
      & pos 0 string "distributed"
      & info [] ~docv:"TARGET"
          ~doc:
            ("A saved trace file (path ending in .jsonl, as written by $(b,lla trace -o)) or a \
              scenario to run and analyze in-process: " ^ scenario_doc))
  in
  let tolerance =
    Arg.(
      value
      & opt float Lla_obs.Analyze.default_tolerance
      & info [ "tolerance" ] ~docv:"FRACTION"
          ~doc:"Settling band as a fraction of the optimum (default 0.015 = 1.5%).")
  in
  let run target iterations duration tolerance =
    let scenario = List.mem target [ "fig5"; "solver"; "distributed"; "chaos" ] in
    let records, optimum, online =
      if scenario then begin
        let obs = Lla_obs.create ~spans:true () in
        let sink, collected = Lla_obs.Trace.memory_sink () in
        Lla_obs.Trace.attach obs.Lla_obs.trace sink;
        run_scenario ~obs target ~iterations ~duration;
        (* Reference optimum: the synchronous solver run to convergence on
           the same (base) workload — the yardstick every scenario here
           optimizes towards. *)
        let solver = Lla.Solver.create (Lla_workloads.Paper_sim.base ()) in
        ignore (Lla.Solver.run_until_converged solver ~max_iterations:(max 2000 iterations));
        (* The online registry views, quoted with the same interpolated
           quantile estimator the offline report uses. *)
        let online =
          List.filter_map
            (fun name ->
              Option.map
                (Lla_obs.Metrics.summary ~name:("online " ^ name))
                (Lla_obs.Metrics.find_histogram obs.Lla_obs.metrics name))
            [ "lla_control_latency_ms"; "lla_transport_delay_ms" ]
        in
        (collected (), Some (Lla.Solver.utility solver), online)
      end
      else if Sys.file_exists target then
        (or_exit (Result.map_error (fun m -> `Msg m) (Lla_obs.Series.load_jsonl target)), None, [])
      else
        or_exit
          (Error (`Msg (Printf.sprintf "%S is neither a known scenario nor a trace file" target)))
    in
    let report = Lla_obs.Analyze.analyze ~tolerance ?optimum records in
    print_string (Lla_obs.Analyze.render report);
    List.iter print_endline online
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Convergence analytics over a trace: settling time to the offline optimum, oscillation, \
          per-resource congestion and price dispersion, and control-reaction latency percentiles \
          from the causal span tree.")
    Term.(const run $ target $ iterations_arg $ duration_arg $ tolerance)

let profile_cmd =
  let experiment =
    Arg.(
      value
      & pos 0 string "distributed"
      & info [] ~docv:"SCENARIO" ~doc:("Scenario to profile: " ^ scenario_doc))
  in
  let run experiment iterations duration =
    let profile = Lla_obs.Profile.create () in
    let obs = Lla_obs.create ~spans:true ~profile () in
    run_scenario ~obs experiment ~iterations ~duration;
    print_string (Lla_obs.Profile.report profile)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a scenario with the hierarchical phase profiler enabled and print the wall-clock \
          breakdown (solver phases, price updates, checkpoint I/O).")
    Term.(const run $ experiment $ iterations_arg $ duration_arg)

(* --- scale subcommands ----------------------------------------------- *)

let subtasks_arg =
  Arg.(
    value
    & opt int 100_000
    & info [ "subtasks"; "s" ] ~docv:"N" ~doc:"Target subtask count of the generated scenario.")

let resources_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "resources"; "r" ] ~docv:"N"
        ~doc:"Resource count (default: $(b,max 16 (subtasks/50))).")

let generate_cmd =
  let seed =
    seed_arg ~doc:"Scenario seed — the same seed always yields the byte-identical workload."
  in
  let output =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:
            "Write the workload in the Workload_codec text format (usable as \
             $(b,solve -w file:FILE)).")
  in
  let run subtasks resources seed output =
    let params = Lla_scale.Generator.sized ?resources ~subtasks () in
    let workload = Lla_scale.Generator.generate ~params ~seed () in
    print_endline (Lla_scale.Generator.describe workload);
    Option.iter
      (fun path ->
        Lla_model.Workload_codec.save ~path workload;
        Printf.printf "wrote %s\n" path)
      output
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:
         "Generate a seeded planet-scale scenario (chains, fan-out trees and aggregation DAGs \
          over shared resources, feasible by construction) and optionally write it to a file.")
    Term.(const run $ subtasks_arg $ resources_arg $ seed $ output)

let solve_scale_cmd =
  let seed = seed_arg ~doc:"Seed of the generated scenario (ignored with $(b,--workload))." in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload"; "w" ] ~docv:"NAME"
          ~doc:
            "Solve this workload instead of generating one (any $(b,solve) workload spec, e.g. \
             $(b,file:PATH)). The kernel requires linear utilities and reciprocal shares.")
  in
  let iterations =
    Arg.(value & opt int 10_000 & info [ "iterations"; "n" ] ~docv:"N" ~doc:"Tick budget.")
  in
  let run verbose workload subtasks resources seed iterations =
    setup_logs verbose;
    let w =
      match workload with
      | Some spec -> or_exit (parse_workload spec)
      | None ->
        let params = Lla_scale.Generator.sized ?resources ~subtasks () in
        Lla_scale.Generator.generate ~params ~seed ()
    in
    print_endline (Lla_scale.Generator.describe w);
    let t0 = Unix.gettimeofday () in
    let kernel =
      match Lla_scale.Kernel.create ~config:Lla_scale.Kernel.scale_config w with
      | Ok k -> k
      | Error e -> or_exit (Error (`Msg e))
    in
    Printf.printf "compile+compact %.2f s\n" (Unix.gettimeofday () -. t0);
    let t0 = Unix.gettimeofday () in
    let converged = Lla_scale.Kernel.solve kernel ~max_iterations:iterations in
    let dt = Unix.gettimeofday () -. t0 in
    let done_iters = Lla_scale.Kernel.iteration kernel in
    (match converged with
    | Some n ->
      Printf.printf "converged at tick %d (%.2f s, %.2f ms/tick)\n" n dt
        (dt *. 1e3 /. float_of_int (max 1 done_iters))
    | None ->
      Printf.printf "not converged after %d ticks (%.2f s; movement %.2e)\n" done_iters dt
        (Lla_scale.Kernel.movement kernel));
    Printf.printf "total utility: %.3f  feasible: %b  guard events: %d\n"
      (Lla_scale.Kernel.utility kernel)
      (Lla_scale.Kernel.feasible kernel)
      (Lla_scale.Kernel.guard_events kernel);
    let c = Lla_scale.Kernel.cumulative_touch kernel in
    let pct part total = 100. *. float_of_int part /. float_of_int (max 1 total) in
    Printf.printf
      "dirty-set sparsity: %d/%d subtask updates (%.1f%%), %d/%d resource updates (%.1f%%), \
       %d/%d path updates (%.1f%%)\n"
      c.Lla_scale.Kernel.subtasks_touched c.Lla_scale.Kernel.subtasks_total
      (pct c.Lla_scale.Kernel.subtasks_touched c.Lla_scale.Kernel.subtasks_total)
      c.Lla_scale.Kernel.resources_touched c.Lla_scale.Kernel.resources_total
      (pct c.Lla_scale.Kernel.resources_touched c.Lla_scale.Kernel.resources_total)
      c.Lla_scale.Kernel.paths_touched c.Lla_scale.Kernel.paths_total
      (pct c.Lla_scale.Kernel.paths_touched c.Lla_scale.Kernel.paths_total);
    List.iter (Printf.printf "violation: %s\n") (Lla_scale.Kernel.violations kernel);
    if converged = None || not (Lla_scale.Kernel.feasible kernel) then Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "solve-scale"
       ~doc:
         "Solve a planet-scale scenario with the flat-array incremental kernel (exit 0 = \
          feasible convergence within the budget).")
    Term.(const run $ verbose_arg $ workload $ subtasks_arg $ resources_arg $ seed $ iterations)

let soak_cmd =
  let module Soak = Lla_soak.Soak in
  let smoke =
    Arg.(
      value & flag
      & info [ "smoke" ]
          ~doc:
            "Start from the CI smoke configuration (600 subtasks, 60k ticks, tightened \
             cadences) instead of the full endurance defaults; explicit options still \
             override.")
  in
  let subtasks =
    Arg.(
      value
      & opt (some int) None
      & info [ "subtasks"; "s" ] ~docv:"N" ~doc:"Generated scenario size (default 800).")
  in
  let horizon =
    Arg.(
      value
      & opt (some int) None
      & info [ "horizon" ] ~docv:"TICKS"
          ~doc:"Control ticks to drive (default 1,000,000; smoke default 60,000).")
  in
  let churn =
    Arg.(
      value
      & opt (some int) None
      & info [ "churn" ] ~docv:"TICKS"
          ~doc:"Ticks between churn steps (admits/retires); $(b,0) disables churn.")
  in
  let chaos_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "chaos-every" ] ~docv:"TICKS"
          ~doc:"Ticks between recurring chaos windows; $(b,0) disables chaos.")
  in
  let ceilings =
    Arg.(
      value
      & opt (some string) None
      & info [ "ceilings" ] ~docv:"RSS_KB,WORDS,TPS"
          ~doc:
            "Resource ceilings: VmRSS in kB, minor GC words allocated per tick, and a \
             ticks-per-second throughput floor ($(b,0) = unlimited for each). A breach sheds \
             load down the degradation ladder instead of failing. Default: 2 GiB RSS, no \
             words/throughput limit.")
  in
  let trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Record soak transitions (watchdog trips, degradations, safe-mode entries/exits, \
             chaos windows) through a bounded rotating JSONL sink at $(docv).")
  in
  let retain =
    Arg.(
      value & opt int 3
      & info [ "retain" ] ~docv:"N" ~doc:"Rotated trace segments to keep (with $(b,--trace-out)).")
  in
  let crash_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "crash-every" ] ~docv:"TICKS"
          ~doc:
            "Ticks between whole-node crash drills ($(b,0) disables): the kernel iterate is \
             wiped and the node restarts warm from the journal's last good record (cold \
             without $(b,--journal)). Recovery must climb back to feasibility within the \
             sustain budget.")
  in
  let journal_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Write-ahead journal the live iterate is appended to (segments \
             $(i,DIR)/journal.wal*, inspectable with $(b,lla journal)); crash drills replay \
             it for warm recovery.")
  in
  let journal_every =
    Arg.(
      value
      & opt (some int) None
      & info [ "journal-every" ] ~docv:"TICKS"
          ~doc:
            "Ticks between journal appends (default 250 with $(b,--journal), else 0).")
  in
  let run verbose smoke subtasks resources seed horizon churn chaos_every ceilings trace_out retain
      crash_every journal_dir journal_every =
    setup_logs verbose;
    let base = if smoke then Soak.smoke_config else Soak.default_config in
    let ceilings =
      match ceilings with
      | None -> base.Soak.ceilings
      | Some spec -> (
        match String.split_on_char ',' spec |> List.map String.trim with
        | [ rss; words; tps ] -> (
          match (int_of_string_opt rss, float_of_string_opt words, float_of_string_opt tps) with
          | Some max_rss_kb, Some max_words_per_tick, Some min_ticks_per_s ->
            { Soak.max_rss_kb; max_words_per_tick; min_ticks_per_s }
          | _ -> or_exit (Error (`Msg (Printf.sprintf "unparsable --ceilings %S" spec))))
        | _ -> or_exit (Error (`Msg "expected --ceilings RSS_KB,WORDS_PER_TICK,TICKS_PER_S")))
    in
    let config =
      {
        base with
        Soak.resources;
        seed;
        subtasks = Option.value subtasks ~default:base.Soak.subtasks;
        horizon = Option.value horizon ~default:base.Soak.horizon;
        churn =
          (match churn with
          | None -> base.Soak.churn
          | Some every -> { base.Soak.churn with Lla_soak.Churn.every });
        chaos =
          (match chaos_every with
          | None -> base.Soak.chaos
          | Some every -> { base.Soak.chaos with Lla_soak.Rota.every });
        ceilings;
        crash_every = Option.value crash_every ~default:base.Soak.crash_every;
        journal_every =
          Option.value journal_every
            ~default:(if journal_dir <> None then 250 else base.Soak.journal_every);
      }
    in
    let journal =
      Option.map
        (fun dir ->
          Lla_durable.Journal.create (Lla_durable.Journal.Store.file ~dir))
        journal_dir
    in
    let obs, rotator =
      match trace_out with
      | None -> (None, None)
      | Some path ->
        let obs = Lla_obs.create () in
        let rot = Lla_obs.Rotate.create ~retain ~path () in
        Lla_obs.Trace.attach obs.Lla_obs.trace (Lla_obs.Rotate.sink rot);
        (Some obs, Some rot)
    in
    let last_decile = ref (-1) in
    let on_progress ~tick =
      let decile = tick * 10 / max 1 config.Soak.horizon in
      if decile > !last_decile then begin
        last_decile := decile;
        Printf.printf "... tick %d/%d\n%!" tick config.Soak.horizon
      end
    in
    (match Soak.run ?obs ?journal ~on_progress config with
    | Error e -> or_exit (Error (`Msg e))
    | Ok report ->
      print_endline (Soak.render report);
      (match rotator with
      | Some rot ->
        Lla_obs.Rotate.close rot;
        Printf.printf "trace: %d records, %d segments on disk\n"
          (Lla_obs.Rotate.records_written rot)
          (List.length (Lla_obs.Rotate.segments rot))
      | None -> ());
      if report.Soak.violation_count > 0 then Stdlib.exit 1)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Long-horizon endurance run: continuous churn plus recurring chaos windows over a \
          generated scale scenario, judged by rolling health oracles (sustained Eq. 3/4 \
          feasibility, reconvergence after every episode, utility drift vs the centralized \
          optimum) under resource ceilings with graceful degradation (exit 0 = no oracle \
          violations).")
    Term.(
      const run $ verbose_arg $ smoke $ subtasks $ resources_arg $ seed_arg ~doc:"Soak seed."
      $ horizon $ churn $ chaos_every $ ceilings $ trace_out $ retain $ crash_every $ journal_dir
      $ journal_every)

(* --- journal inspection ----------------------------------------------- *)

let journal_cmd =
  let module J = Lla_durable.Journal in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"Journal segment ($(i,*.wal) or $(i,*.wal.N)) to inspect.")
  in
  let dump_arg =
    Arg.(
      value & opt int 16
      & info [ "records" ] ~docv:"N" ~doc:"Record headers to list (default 16; $(b,0) = none).")
  in
  let run verbose file dump =
    setup_logs verbose;
    let contents =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error e -> or_exit (Error (`Msg e))
    in
    let _payloads, scan = J.decode contents in
    let n = List.length scan.J.entries in
    Printf.printf "%s: %d bytes, %d valid records\n" file scan.J.total_bytes n;
    if dump > 0 && n > 0 then begin
      Printf.printf "%10s %10s %10s\n" "offset" "length" "crc32";
      List.iteri
        (fun i (e : J.entry) ->
          if i < dump then Printf.printf "%10d %10d   0x%08x\n" e.J.offset e.J.length e.J.crc)
        scan.J.entries;
      if n > dump then Printf.printf "  (+%d more)\n" (n - dump)
    end;
    Printf.printf "recoverable prefix: %d/%d bytes\n" scan.J.good_bytes scan.J.total_bytes;
    match scan.J.corrupt_at with
    | None -> print_endline "no corruption"
    | Some off ->
      Printf.printf "CORRUPT at offset %d: %s\n" off
        (Option.value scan.J.corrupt_reason ~default:"unknown");
      Stdlib.exit 1
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:
         "Inspect a write-ahead journal file: list record headers, verify every CRC, and \
          report the recoverable prefix. Exit 1 when a corrupt suffix is found (recovery \
          would truncate it), mirroring $(b,chaos-replay)'s convention.")
    Term.(const run $ verbose_arg $ file_arg $ dump_arg)

(* --- streaming telemetry commands ------------------------------------ *)

(* Interpolated percentile over a sorted array — the live price pane's
   estimator (exact, unlike the bucketed histogram quantiles). *)
let percentile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else begin
    let rank = q *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let refresh_arg =
  Arg.(
    value
    & opt float 1.0
    & info [ "refresh" ] ~docv:"SECONDS"
        ~doc:
          "Seconds between frames: simulated control time for the scenario targets, wall-clock \
           time for $(b,soak).")

let frames_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "frames" ] ~docv:"N"
        ~doc:"Stop rendering after $(docv) frames (the run itself completes either way).")

let no_ansi_arg =
  Arg.(
    value
    & flag
    & info [ "no-ansi" ]
        ~doc:
          "Append frames instead of redrawing in place — for logs, pipes and CI (no escape \
           codes emitted).")

let clear_frame no_ansi = if no_ansi then print_newline () else print_string "\027[2J\027[H"

let frames_done frames frame = match frames with Some n -> frame >= n | None -> false

let top_scenario ~chaos ~duration ~refresh ~frames ~no_ansi =
  let engine = Lla_sim.Engine.create () in
  let obs = Lla_obs.create ~spans:true () in
  let horizon = duration *. 1000. in
  let monitor =
    Lla_obs.Monitor.create
      ~tasks:(List.length (Lla_workloads.Paper_sim.base ()).Lla_model.Workload.tasks)
      ()
  in
  let workload, d = build_scenario_deployment ~obs ~chaos engine ~horizon in
  Lla_obs.Monitor.attach monitor obs.Lla_obs.trace;
  Lla_runtime.Distributed.start d;
  let period = max 1e-3 (refresh *. 1000.) in
  let frame = ref 0 in
  let last_words = ref (Gc.minor_words ()) in
  let last_rounds = ref 0 in
  let buf = Buffer.create 1024 in
  let render () =
    incr frame;
    Buffer.clear buf;
    Printf.bprintf buf "lla top — %s  t=%.0f/%.0f ms  frame %d%s\n"
      (if chaos then "chaos" else "distributed")
      (Lla_sim.Engine.now engine) horizon !frame
      (match frames with Some n -> Printf.sprintf "/%d" n | None -> "");
    Printf.bprintf buf "tasks %d  resources %d  utility %.3f  safe-mode %b\n"
      (List.length workload.Lla_model.Workload.tasks)
      (List.length workload.Lla_model.Workload.resources)
      (Lla_runtime.Distributed.utility d)
      (Lla_runtime.Distributed.in_safe_mode d);
    let mus =
      Array.of_list
        (List.map
           (fun (r : Lla_model.Resource.t) -> Lla_runtime.Distributed.mu d r.Lla_model.Resource.id)
           workload.Lla_model.Workload.resources)
    in
    Array.sort compare mus;
    Printf.bprintf buf "prices: p50 %.4f  p99 %.4f  (%d agents)\n" (percentile_sorted mus 0.5)
      (percentile_sorted mus 0.99) (Array.length mus);
    (match Lla_obs.Metrics.find_histogram obs.Lla_obs.metrics "lla_control_latency_ms" with
    | Some h ->
      Buffer.add_string buf (Lla_obs.Metrics.summary ~name:"control latency (ms)" h);
      Buffer.add_char buf '\n'
    | None -> ());
    let words = Gc.minor_words () in
    let rounds =
      Lla_runtime.Distributed.price_rounds d + Lla_runtime.Distributed.allocation_rounds d
    in
    let drounds = rounds - !last_rounds in
    Printf.bprintf buf "rounds %d (+%d)  messages %d  words/round %.0f  shards %d\n" rounds drounds
      (Lla_runtime.Distributed.messages_sent d)
      (if drounds > 0 then (words -. !last_words) /. float_of_int drounds else 0.)
      (Lla_runtime.Distributed.shard_count d);
    last_words := words;
    last_rounds := rounds;
    Buffer.add_string buf (Lla_obs.Monitor.render monitor);
    clear_frame no_ansi;
    print_string (Buffer.contents buf);
    flush stdout
  in
  let rec loop t =
    if t > horizon +. 1e-9 || frames_done frames !frame then ()
    else begin
      Lla_sim.Engine.run_until engine (Float.min t horizon);
      render ();
      loop (t +. period)
    end
  in
  loop period;
  if Lla_sim.Engine.now engine < horizon then Lla_sim.Engine.run_until engine horizon;
  Lla_runtime.Distributed.stop d;
  Lla_sim.Engine.run engine ()

let top_soak ~refresh ~frames ~no_ansi =
  let module Soak = Lla_soak.Soak in
  let obs = Lla_obs.create () in
  let monitor = Lla_obs.Monitor.create () in
  let config = Soak.smoke_config in
  let frame = ref 0 in
  let quiet = ref false in
  let last_wall = ref (Unix.gettimeofday ()) in
  let last_tick = ref 0 in
  let last_words = ref (Gc.minor_words ()) in
  let buf = Buffer.create 1024 in
  let gauge name =
    match Lla_obs.Metrics.find_gauge obs.Lla_obs.metrics name with
    | Some g -> Lla_obs.Metrics.gauge_value g
    | None -> nan
  in
  let count name =
    match Lla_obs.Metrics.find_counter obs.Lla_obs.metrics name with
    | Some c -> Lla_obs.Metrics.value c
    | None -> 0
  in
  let on_progress ~tick =
    let wall = Unix.gettimeofday () in
    if (not !quiet) && (wall -. !last_wall >= refresh || tick >= config.Soak.horizon) then begin
      incr frame;
      Buffer.clear buf;
      let dtick = tick - !last_tick in
      let dwall = wall -. !last_wall in
      let words = Gc.minor_words () in
      Printf.bprintf buf "lla top — soak  tick %d/%d  frame %d%s\n" tick config.Soak.horizon !frame
        (match frames with Some n -> Printf.sprintf "/%d" n | None -> "");
      Printf.bprintf buf "active tasks %.0f  utility %.3f  movement %.2e\n"
        (gauge "lla_kernel_active_tasks") (gauge "lla_kernel_utility") (gauge "lla_kernel_movement");
      Printf.bprintf buf "ticks/s %.0f  words/tick %.0f  (shard 0)\n"
        (if dwall > 0. then float_of_int dtick /. dwall else 0.)
        (if dtick > 0 then (words -. !last_words) /. float_of_int dtick else 0.);
      Printf.bprintf buf "kernel ticks %d  touched: %d sub / %d res / %d path  guards %d\n"
        (count "lla_kernel_ticks_total")
        (count "lla_kernel_touched_subtasks_total")
        (count "lla_kernel_touched_resources_total")
        (count "lla_kernel_touched_paths_total")
        (count "lla_kernel_guard_events_total");
      Buffer.add_string buf (Lla_obs.Monitor.render monitor);
      clear_frame no_ansi;
      print_string (Buffer.contents buf);
      flush stdout;
      last_wall := wall;
      last_tick := tick;
      last_words := words;
      if frames_done frames !frame then quiet := true
    end
  in
  match Soak.run ~obs ~monitor ~on_progress config with
  | Error e -> or_exit (Error (`Msg e))
  | Ok report ->
    print_newline ();
    print_endline (Soak.render report);
    if report.Soak.violation_count > 0 then Stdlib.exit 1

let top_cmd =
  let target =
    Arg.(
      value
      & pos 0 string "distributed"
      & info [] ~docv:"TARGET"
          ~doc:
            "$(b,distributed) or $(b,chaos) (the observability scenarios, watched live on the \
             simulator) or $(b,soak) (the smoke-config endurance run, watched at the watchdog \
             cadence).")
  in
  let run target duration refresh frames no_ansi =
    match target with
    | "distributed" -> top_scenario ~chaos:false ~duration ~refresh ~frames ~no_ansi
    | "chaos" -> top_scenario ~chaos:true ~duration ~refresh ~frames ~no_ansi
    | "soak" -> top_soak ~refresh ~frames ~no_ansi
    | other ->
      or_exit (Error (`Msg (Printf.sprintf "unknown top target %S (distributed|chaos|soak)" other)))
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live view of a running deployment: active tasks, price percentiles, the \
          control-latency histogram, allocation/word rates and the streaming monitor's alert \
          pane, refreshed in place (use $(b,--no-ansi) for append-only output).")
    Term.(const run $ target $ duration_arg $ refresh_arg $ frames_arg $ no_ansi_arg)

let serve_metrics_cmd =
  let target =
    Arg.(
      value
      & pos 0 string "distributed"
      & info [] ~docv:"TARGET" ~doc:("$(b,soak) (smoke config) or a scenario: " ^ scenario_doc))
  in
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Exposition file. Each rewrite goes to $(docv).tmp first and is renamed into place, \
             so a scraper never reads a torn snapshot.")
  in
  let every =
    Arg.(
      value
      & opt float 1.0
      & info [ "every" ] ~docv:"SECONDS"
          ~doc:
            "Rewrite cadence: simulated control time for the scenario targets, wall-clock time \
             for $(b,soak). $(b,fig5) runs to completion and writes once.")
  in
  let run target out every iterations duration =
    let obs = Lla_obs.create () in
    let writes = ref 0 in
    let write_file registry =
      let tmp = out ^ ".tmp" in
      let oc = open_out tmp in
      output_string oc (Lla_obs.Metrics.expose registry);
      close_out oc;
      Sys.rename tmp out;
      incr writes
    in
    (match target with
    | "fig5" | "solver" ->
      run_scenario ~obs target ~iterations ~duration;
      write_file obs.Lla_obs.metrics
    | "distributed" | "chaos" ->
      let engine = Lla_sim.Engine.create () in
      let horizon = duration *. 1000. in
      let _workload, d =
        build_scenario_deployment ~obs ~chaos:(target = "chaos") engine ~horizon
      in
      Lla_runtime.Distributed.start d;
      let period = max 1e-3 (every *. 1000.) in
      let rec loop t =
        if t > horizon +. 1e-9 then ()
        else begin
          Lla_sim.Engine.run_until engine (Float.min t horizon);
          write_file obs.Lla_obs.metrics;
          loop (t +. period)
        end
      in
      loop period;
      Lla_runtime.Distributed.stop d;
      Lla_sim.Engine.run engine ();
      write_file obs.Lla_obs.metrics
    | "soak" ->
      let module Soak = Lla_soak.Soak in
      let monitor = Lla_obs.Monitor.create () in
      let last_wall = ref 0. in
      let on_progress ~tick:_ =
        let wall = Unix.gettimeofday () in
        if wall -. !last_wall >= every then begin
          last_wall := wall;
          write_file obs.Lla_obs.metrics
        end
      in
      (match Soak.run ~obs ~monitor ~on_progress Soak.smoke_config with
      | Error e -> or_exit (Error (`Msg e))
      | Ok report ->
        write_file obs.Lla_obs.metrics;
        print_endline (Soak.render report))
    | other ->
      or_exit
        (Error (`Msg (Printf.sprintf "unknown serve-metrics target %S (see --help)" other))));
    Printf.printf "wrote %s (%d atomic rewrites)\n" out !writes
  in
  Cmd.v
    (Cmd.info "serve-metrics"
       ~doc:
         "Run a scenario (or the smoke soak) and keep a Prometheus text exposition of its \
          metrics registry fresh on disk — every rewrite is atomic (tmp file + rename), at the \
          $(b,--every) cadence.")
    Term.(const run $ target $ out $ every $ iterations_arg $ duration_arg)

let default =
  Term.(
    ret
      (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "lla" ~version:"1.0.0"
      ~doc:"Lagrangian Latency Assignment — reproduction of Lumezanu, Bhola & Astley (ICDCS 2008)."
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            table1_cmd;
            fig5_cmd;
            fig6_cmd;
            fig7_cmd;
            fig8_cmd;
            ablation_cmd;
            chaos_cmd;
            recovery_cmd;
            campaign_cmd;
            chaos_replay_cmd;
            adaptation_cmd;
            variation_cmd;
            delays_cmd;
            trace_cmd;
            analyze_cmd;
            profile_cmd;
            solve_cmd;
            export_cmd;
            probe_cmd;
            emulate_cmd;
            generate_cmd;
            solve_scale_cmd;
            soak_cmd;
            journal_cmd;
            top_cmd;
            serve_metrics_cmd;
          ]))
