(* kernel_cold: time to a feasible assignment at 10^5 subtasks.

   Each of [rounds] rounds solves a freshly built kernel from the cold
   iterate to [Kernel.solve]'s convergence rule, then runs a steady part
   of individually timed ticks ([steady_per_second * seconds] over all
   rounds). The first [setups] rounds generate the scenario, compile it
   and compact it; the others compact the last compiled problem afresh
   (compaction costs a tenth of generate + compile). The last kernel
   finally takes a warm crash drill: its iterate is copied out, the
   kernel reset, the copy restored, and ticks counted until Eq. 3/4 hold
   again. No transport, runtime, journal or monitor is touched.

   The scenario is pinned to generator seed 42, the ROADMAP's headline
   instance (174 ticks to converge). Across generator seeds the cold
   solve ranges from 61 to 144 ticks, and at seed 2 it never meets the
   convergence rule within 10^4 ticks, so a seed-driven instance would
   make the run's figures swing by more than any bound the benchmark
   may set — and fail outright on some seeds. The kernel draws no
   randomness, so the run seed changes nothing here. *)

module Kernel = Lla_scale.Kernel
module Generator = Lla_scale.Generator

let subtasks = 100_000

let scenario_seed = 42

let setups = 3

let rounds = 5

let steady_per_second = 600

let budget = 10_000

(* Minor words a measured solve or steady part may allocate in total:
   [Kernel.solve]'s result and the benchmark's own clock reads, not its
   ticks — the tick itself is zero-alloc, so one word per tick over a
   174-tick solve or a steady part already breaks this. *)
let call_words = 16.

let finite a = Array.for_all Float.is_finite a

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y) a b

let iterate k = (Kernel.lat_array k, Kernel.mu_array k, Kernel.lambda_array k)

let run (p : Probe.t) ~seed:_ ~seconds =
  let obs = Probe.obs p in
  let params = Generator.sized ~subtasks () in
  let gates = ref [] in
  let gate ok msg = if not ok then gates := msg :: !gates in
  let tally = ref (Stats.tally ()) in
  let setup_s = ref [] and solve_s = ref [] in
  let first = ref None in
  let gc = ref Report.no_gc in
  let ticks = ref 0 and touched = ref (0, 0, 0) and guards = ref 0 in
  let account k =
    let c = Kernel.cumulative_touch k in
    let s, r, q = !touched in
    touched := (s + c.subtasks_touched, r + c.resources_touched, q + c.paths_touched);
    ticks := !ticks + Kernel.iteration k;
    guards := !guards + Kernel.guard_events k
  in
  let compact problem =
    match
      Probe.span p "kernel.compact" (fun () ->
          Kernel.of_problem ?obs ~config:Kernel.scale_config problem)
    with
    | Ok k -> k
    | Error e -> failwith ("Kernel.of_problem: " ^ e)
  in
  let setup () =
    (* the previous round's heap goes now, outside every timed region *)
    Probe.span p "bench.harness" Gc.full_major;
    let t0 = Clock.now () in
    let problem, kernel =
      Probe.span p "kernel_cold.setup" (fun () ->
          let workload =
            Probe.span p "generator.generate" (fun () ->
                Generator.generate ~params ~seed:scenario_seed ())
          in
          let problem = Probe.span p "problem.compile" (fun () -> Lla.Problem.compile workload) in
          (problem, compact problem))
    in
    setup_s := (Clock.now () -. t0) :: !setup_s;
    (problem, kernel)
  in
  let solve kernel =
    let g0 = Probe.gc_mark () in
    let t0 = Clock.now () in
    let result =
      Probe.span p "kernel.solve" (fun () -> Kernel.solve kernel ~max_iterations:budget)
    in
    let t1 = Clock.now () in
    let g = Probe.gc_since g0 in
    solve_s := (t1 -. t0) :: !solve_s;
    gc := Report.add_gc !gc g;
    Probe.span p "bench.harness" (fun () ->
        let lat, mu, lambda = iterate kernel in
        let ok =
          Option.is_some result && Kernel.feasible kernel && finite lat && finite mu
          && finite lambda
          && Kernel.guard_events kernel = 0
          &&
          match !first with
          | None ->
              first :=
                Some
                  ( Option.get result,
                    Kernel.utility kernel,
                    (Array.copy lat, Array.copy mu, Array.copy lambda) );
              true
          | Some (_, _, (lat0, mu0, lambda0)) ->
              same_bits lat lat0 && same_bits mu mu0 && same_bits lambda lambda0
        in
        tally := Stats.record !tally ~ok;
        if (not p.traced) && g.minor_words > call_words then
          gate false
            (Printf.sprintf "cold solve allocated %.0f minor words (the tick is zero-alloc)"
               g.minor_words))
  in
  (* steady state: every tick timed when untraced, in chunks when traced *)
  let per_round = max Stats.part_size (steady_per_second * seconds / rounds) in
  let n = rounds * per_round in
  let walls = Array.make n 0. in
  let steady kernel ~from =
    let g0 = Probe.gc_mark () in
    if p.traced then begin
      let k = ref 0 in
      while !k < per_round do
        let m = min 10 (per_round - !k) in
        Probe.span p "kernel.run" (fun () -> Kernel.run kernel ~iterations:m);
        k := !k + m
      done
    end
    else
      for k = from to from + per_round - 1 do
        let t0 = Clock.ns () in
        Kernel.step kernel;
        walls.(k) <- Int64.to_float (Int64.sub (Clock.ns ()) t0) *. 1e-9
      done;
    let g = Probe.gc_since g0 in
    gc := Report.add_gc !gc g;
    if (not p.traced) && g.minor_words > call_words then
      gate false
        (Printf.sprintf "%d steady ticks allocated %.0f minor words (the tick is zero-alloc)"
           per_round g.minor_words)
  in
  (* Rounds: a cold solve, then a steady part on the converged kernel.
     The first [setups] rounds set up from scratch, the rest compact the
     last compiled problem afresh — so solves, set-ups and steady parts
     are spread over the whole run rather than bunched at its start. *)
  let last = ref None in
  for round = 0 to rounds - 1 do
    let problem, kernel =
      match !last with
      | Some (problem, kernel) ->
          account kernel;
          if round < setups then setup () else (problem, compact problem)
      | None -> setup ()
    in
    solve kernel;
    steady kernel ~from:(round * per_round);
    last := Some (problem, kernel)
  done;
  let kernel = snd (Option.get !last) in
  let iterations, utility, _ =
    match !first with Some f -> f | None -> failwith "kernel_cold: first solve failed"
  in
  (* warm crash drill *)
  let lat, mu, lambda = iterate kernel in
  let lat, mu, lambda = (Array.copy lat, Array.copy mu, Array.copy lambda) in
  let restored =
    Probe.span p "kernel.restore" (fun () ->
        Kernel.crash_reset kernel;
        Kernel.restore_iterate kernel ~lat ~mu ~lambda)
  in
  gate (Result.is_ok restored) "warm restore refused the kernel's own iterate";
  let recovery = ref 0 in
  Probe.span p "kernel.run" (fun () ->
      while !recovery = 0 || ((not (Kernel.feasible kernel)) && !recovery < budget) do
        Kernel.step kernel;
        incr recovery
      done);
  gate (Kernel.feasible kernel) "no feasible iterate after the warm restore";
  account kernel;
  let agents = Kernel.n_resources kernel + Kernel.n_tasks kernel in
  (* the traced pass times no single tick *)
  let ticks_per_s = if p.traced then 0. else Report.rate walls ~per_sample:(fun _ -> 1.) in
  let subtasks_touched, resources_touched, paths_touched = !touched in
  let tally = !tally in
  gate (tally.failed = 0) (Printf.sprintf "%d of %d cold solves failed" tally.failed tally.attempted);
  {
    Report.e2e =
      [
        ("setup_s", Stats.median (Array.of_list !setup_s));
        ("solve_s", Stats.median (Array.of_list !solve_s));
        ("ticks_to_converge", float_of_int iterations);
        ("tick_us_p50", if p.traced then 0. else Report.tick_us ~p:50. walls);
        ("tick_us_p99", if p.traced then 0. else Report.tick_us ~p:99. walls);
        ("ticks_per_s", ticks_per_s);
        ("rounds_per_s", ticks_per_s *. float_of_int agents);
        ("recovery_ticks", float_of_int !recovery);
        ("ok_share", Stats.ok_share tally);
        ("utility", utility);
      ];
    counts =
      [
        ("kernel.ticks", float_of_int !ticks);
        ("kernel.subtasks_touched", float_of_int subtasks_touched);
        ("kernel.resources_touched", float_of_int resources_touched);
        ("kernel.paths_touched", float_of_int paths_touched);
        ("kernel.guard_events", float_of_int !guards);
      ];
    tally;
    gates = List.rev !gates;
    ops = !ticks;
    gc = !gc;
    exact =
      [
        ("ticks_to_converge", float_of_int iterations);
        ("recovery_ticks", float_of_int !recovery);
        ("utility", utility);
        ("kernel.ticks", float_of_int !ticks);
      ];
    summary =
      [
        Printf.sprintf "scenario: %d subtasks, %d resources, %d tasks, generator seed %d"
          (Kernel.n_subtasks kernel) (Kernel.n_resources kernel) (Kernel.n_tasks kernel)
          scenario_seed;
        Printf.sprintf "cold solves: %d, %d ticks each; steady: %d ticks in %.3f s" rounds
          iterations n (Array.fold_left ( +. ) 0. walls);
        Report.parts_line walls;
      ];
  }
