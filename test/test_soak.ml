(* Lla_soak: churn/rota stream determinism, the kernel's churn and
   chaos/safe-mode hooks (admit/retire identity, poison healing, capacity
   dips, freeze discipline, fallback entry), safe-mode signal-feed
   equivalence, the rotating trace sink, and the soak runtime end to end
   (deterministic report, green mini-soak, forced-breach degradation). *)

module Generator = Lla_scale.Generator
module Kernel = Lla_scale.Kernel
module Churn = Lla_soak.Churn
module Rota = Lla_soak.Rota
module Soak = Lla_soak.Soak
module Safe_mode = Lla_runtime.Safe_mode
module Rotate = Lla_obs.Rotate

let qcheck = QCheck_alcotest.to_alcotest

let small_workload seed =
  Generator.generate
    ~params:(Generator.sized ~resources:(8 + (seed mod 5)) ~subtasks:(40 + (seed mod 37)) ())
    ~seed ()

let kernel_exn ?config workload =
  match Kernel.create ?config workload with
  | Ok k -> k
  | Error e -> Alcotest.failf "Kernel.create: %s" e

let scale_kernel seed = kernel_exn ~config:Kernel.scale_config (small_workload seed)

let arrays_bits_equal a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x -> if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
    a;
  !ok

let check_bits msg a b =
  if not (arrays_bits_equal a b) then Alcotest.failf "%s: arrays differ bitwise" msg

let all_finite a = Array.for_all Float.is_finite a

(* ------------------------------------------------------------------ *)
(* Churn / rota streams                                                *)
(* ------------------------------------------------------------------ *)

(* Same seed -> identical op stream, and the stream is well-formed: every
   admit names an inactive roster task, every retire an active one. *)
let churn_stream_deterministic =
  QCheck.Test.make ~count:20 ~name:"churn stream deterministic and well-formed"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let n_tasks = 50 + (seed mod 23) in
      let params =
        {
          Churn.default_params with
          every = 100;
          diurnal_period = 4_000;
          flash_every = 3_000;
          flash_duration = 500;
        }
      in
      let make () = Churn.create ~params ~seed ~n_tasks ~priority:float_of_int () in
      let a = make () and b = make () in
      if Churn.initially_retired a <> Churn.initially_retired b then
        QCheck.Test.fail_report "initially_retired differs";
      let active = Array.make n_tasks true in
      List.iter (fun k -> active.(k) <- false) (Churn.initially_retired a);
      for now = 0 to 10_000 do
        let ops_a = Churn.step a ~now and ops_b = Churn.step b ~now in
        if ops_a <> ops_b then QCheck.Test.fail_reportf "ops differ at tick %d" now;
        List.iter
          (function
            | Churn.Admit k ->
              if active.(k) then QCheck.Test.fail_reportf "admit of active task %d" k;
              active.(k) <- true
            | Churn.Retire k ->
              if not active.(k) then QCheck.Test.fail_reportf "retire of inactive task %d" k;
              active.(k) <- false)
          ops_a
      done;
      true)

let rota_stream_deterministic =
  QCheck.Test.make ~count:20 ~name:"rota stream deterministic"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let params = { Rota.every = 1_000; duration = 120 } in
      let make () = Rota.create ~params ~seed ~n_resources:13 ~n_subtasks:77 () in
      let a = make () and b = make () in
      for now = 0 to 5_000 do
        (* structural compare, not (=): poison values include nan *)
        if Stdlib.compare (Rota.step a ~now) (Rota.step b ~now) <> 0 then
          QCheck.Test.fail_reportf "ops differ at tick %d" now
      done;
      if Rota.windows a < 4 then QCheck.Test.fail_report "expected ~5 windows";
      true)

let test_churn_shed_lowest_priority () =
  let churn =
    Churn.create
      ~params:{ Churn.default_params with roster_fraction = 1.; base_load = 1. }
      ~seed:5 ~n_tasks:10
      ~priority:(fun k -> float_of_int (10 - k))
      ()
  in
  (* everyone active; shedding 3 must evict the lowest-priority tasks 9,8,7 *)
  Alcotest.(check (list int)) "lowest priority first" [ 9; 8; 7 ] (Churn.shed churn ~count:3);
  Alcotest.(check int) "seven left" 7 (Churn.active_in_roster churn);
  (* a cap below the current count makes step retire down to it *)
  Churn.set_max_active churn 4;
  let retired_by_cap =
    List.filter_map (function Churn.Retire k -> Some k | Churn.Admit _ -> None)
      (Churn.step churn ~now:0)
  in
  Alcotest.(check bool) "step sheds to cap" true (List.length retired_by_cap >= 3)

(* ------------------------------------------------------------------ *)
(* Kernel churn hooks                                                  *)
(* ------------------------------------------------------------------ *)

(* An admit followed by a retire in the same inter-tick gap leaves the
   kernel bit-for-bit where it was, including on subsequent ticks. *)
let kernel_admit_retire_identity =
  QCheck.Test.make ~count:15 ~name:"kernel admit-then-retire is bit-for-bit invisible"
    QCheck.(int_range 0 1_000)
    (fun seed ->
      let make () =
        let k = scale_kernel seed in
        Kernel.retire_task k (Kernel.n_tasks k - 1);
        Kernel.run k ~iterations:200;
        k
      in
      let k1 = make () and k2 = make () in
      let victim = Kernel.n_tasks k1 - 1 in
      Kernel.admit_task k1 victim;
      Kernel.retire_task k1 victim;
      let same () =
        arrays_bits_equal (Kernel.lat_array k1) (Kernel.lat_array k2)
        && arrays_bits_equal (Kernel.mu_array k1) (Kernel.mu_array k2)
        && arrays_bits_equal (Kernel.lambda_array k1) (Kernel.lambda_array k2)
      in
      if not (same ()) then QCheck.Test.fail_report "state differs right after the no-op pair";
      Kernel.run k1 ~iterations:50;
      Kernel.run k2 ~iterations:50;
      if not (same ()) then QCheck.Test.fail_report "trajectories diverge after the no-op pair";
      true)

let test_kernel_retire_readmit_reconverges () =
  let k = scale_kernel 7 in
  ignore (Kernel.solve k ~max_iterations:20_000);
  let u0 = Kernel.utility k in
  let n = Kernel.n_tasks k in
  let victim = n - 1 in
  Kernel.retire_task k victim;
  Alcotest.(check int) "active count drops" (n - 1) (Kernel.n_active_tasks k);
  Alcotest.(check bool) "victim inactive" false (Kernel.task_active k victim);
  ignore (Kernel.solve k ~max_iterations:20_000);
  Kernel.admit_task k victim;
  Alcotest.(check int) "active count restored" n (Kernel.n_active_tasks k);
  ignore (Kernel.solve k ~max_iterations:20_000);
  let u1 = Kernel.utility k in
  Alcotest.(check bool) "feasible after readmit" true (Kernel.feasible k);
  if Float.abs (u1 -. u0) /. Float.max 1. (Float.abs u0) > 0.05 then
    Alcotest.failf "utility did not reconverge: %g vs %g" u1 u0

let test_kernel_poison_heals () =
  let k = scale_kernel 11 in
  ignore (Kernel.solve k ~max_iterations:20_000);
  (* non-finite writes: the pass-level guards heal these to 0 on the next
     tick; a finite-but-huge poison is the safe-mode path instead, covered
     by the enter_fallback test below *)
  Kernel.poison_price k 0 Float.nan;
  Kernel.poison_price k 1 Float.neg_infinity;
  (* a few ticks for the pass-level guards to heal the writes... *)
  Kernel.run k ~iterations:50;
  Alcotest.(check bool) "prices finite again" true (all_finite (Kernel.mu_array k));
  Alcotest.(check bool) "latencies finite" true (all_finite (Kernel.lat_array k));
  Alcotest.(check bool) "guards recorded" true (Kernel.guard_events k > 0);
  (* ...then a full re-solve to walk back from the disturbed allocation *)
  ignore (Kernel.solve k ~max_iterations:20_000);
  Alcotest.(check bool) "feasible after heal" true (Kernel.feasible k)

let test_kernel_capacity_dip_restore () =
  let k = scale_kernel 13 in
  ignore (Kernel.solve k ~max_iterations:20_000);
  let u0 = Kernel.utility k in
  let b0 = Kernel.capacity k 0 in
  Kernel.set_capacity k 0 (0.8 *. b0);
  Kernel.run k ~iterations:3_000;
  Alcotest.(check bool) "finite under dip" true
    (all_finite (Kernel.mu_array k) && all_finite (Kernel.lat_array k));
  Kernel.set_capacity k 0 b0;
  ignore (Kernel.solve k ~max_iterations:20_000);
  Alcotest.(check bool) "feasible after restore" true (Kernel.feasible k);
  let u1 = Kernel.utility k in
  if Float.abs (u1 -. u0) /. Float.max 1. (Float.abs u0) > 0.05 then
    Alcotest.failf "utility did not recover after restore: %g vs %g" u1 u0

let test_kernel_freeze_holds_latencies () =
  let k = scale_kernel 17 in
  ignore (Kernel.solve k ~max_iterations:20_000);
  Kernel.set_frozen k true;
  Alcotest.(check bool) "frozen" true (Kernel.frozen k);
  let lat0 = Array.copy (Kernel.lat_array k) in
  Kernel.run k ~iterations:100;
  check_bits "latencies held while frozen" lat0 (Kernel.lat_array k);
  Alcotest.(check (float 0.)) "movement reads 0" 0. (Kernel.movement k);
  Kernel.set_frozen k false;
  Kernel.requeue_all k;
  ignore (Kernel.solve k ~max_iterations:20_000);
  Alcotest.(check bool) "feasible after thaw" true (Kernel.feasible k)

let test_kernel_enter_fallback_heals () =
  let w = small_workload 19 in
  let k = kernel_exn ~config:Kernel.scale_config w in
  let sm = Safe_mode.create (Lla.Problem.compile w) in
  ignore (Kernel.solve k ~max_iterations:5_000);
  Kernel.poison_price k 0 Float.infinity;
  Kernel.poison_price k 1 1e11;
  Kernel.enter_fallback k ~mu_cap:Safe_mode.mu_cap
    ~lat:(Safe_mode.fallback sm);
  Kernel.set_frozen k true;
  let mu = Kernel.mu_array k in
  Alcotest.(check bool) "prices healed" true (all_finite mu);
  Array.iteri
    (fun r m -> if m > 1e6 then Alcotest.failf "price %d above heal cap: %g" r m)
    mu;
  if Safe_mode.fallback_guaranteed sm then begin
    Kernel.run k ~iterations:5;
    Alcotest.(check bool) "fallback point feasible" true (Kernel.feasible k)
  end

(* ------------------------------------------------------------------ *)
(* Safe mode: observe_signals matches observe                          *)
(* ------------------------------------------------------------------ *)

let test_observe_signals_matches_observe () =
  let w = small_workload 3 in
  let p = Lla.Problem.compile w in
  let config = { Safe_mode.default_config with warmup_rounds = 0 } in
  let sm_full = Safe_mode.create ~config p in
  let sm_sig = Safe_mode.create ~config p in
  let lat = Safe_mode.fallback sm_full in
  let offsets = Array.make (Array.length lat) 0. in
  let n_res = List.length w.Lla_model.Workload.resources in
  let mu = Array.make n_res 1.0 in
  let utility = Lla.Problem.total_utility p ~lat in
  for round = 1 to 10 do
    let now = float_of_int round in
    let e_full = Safe_mode.observe sm_full ~now ~mu ~lat ~offsets in
    let e_sig = Safe_mode.observe_signals sm_sig ~now ~mu ~feasible:true ~utility in
    if e_full <> e_sig then Alcotest.failf "events diverge at round %d" round
  done;
  (* a diverged price must trip both feeds identically *)
  mu.(0) <- 1e9;
  let e_full = Safe_mode.observe sm_full ~now:11. ~mu ~lat ~offsets in
  let e_sig = Safe_mode.observe_signals sm_sig ~now:11. ~mu ~feasible:true ~utility in
  (match e_full with
  | Some (Safe_mode.Entered _) -> ()
  | _ -> Alcotest.fail "observe did not trip on diverged price");
  if e_full <> e_sig then Alcotest.fail "signal feed tripped differently from full feed";
  Alcotest.(check bool) "both in safe mode" true
    (Safe_mode.in_safe_mode sm_full && Safe_mode.in_safe_mode sm_sig)

(* ------------------------------------------------------------------ *)
(* Rotating trace sink                                                 *)
(* ------------------------------------------------------------------ *)

let count_lines path =
  let ic = open_in path in
  let n = ref 0 in
  (try
     while true do
       ignore (input_line ic);
       incr n
     done
   with End_of_file -> ());
  close_in ic;
  !n

let test_rotate_bounds_segments () =
  let path = Filename.temp_file "lla_soak_rotate" ".jsonl" in
  let rot = Rotate.create ~max_records:10 ~retain:2 ~path () in
  let obs = Lla_obs.create () in
  Lla_obs.Trace.attach obs.Lla_obs.trace (Rotate.sink rot);
  for i = 1 to 35 do
    Lla_obs.emit obs ~at:(float_of_int i)
      (Lla_obs.Trace.Note { name = "soak.test"; value = float_of_int i })
  done;
  Rotate.close rot;
  Alcotest.(check int) "records written" 35 (Rotate.records_written rot);
  Alcotest.(check int) "rotations" 3 (Rotate.rotations rot);
  let segs = Rotate.segments rot in
  Alcotest.(check int) "retained segments" 3 (List.length segs);
  List.iter
    (fun s ->
      if not (Sys.file_exists s) then Alcotest.failf "listed segment missing: %s" s)
    segs;
  Alcotest.(check (list int)) "line counts newest-first" [ 5; 10; 10 ]
    (List.map count_lines segs);
  List.iter Sys.remove segs

(* ------------------------------------------------------------------ *)
(* Soak runtime end to end                                             *)
(* ------------------------------------------------------------------ *)

let mini_config =
  {
    Soak.smoke_config with
    subtasks = 180;
    horizon = 12_000;
    churn =
      {
        Churn.default_params with
        every = 100;
        diurnal_period = 3_000;
        flash_every = 2_500;
        flash_duration = 400;
      };
    chaos = { Rota.every = 5_000; duration = 150 };
    reconverge_budget = 800;
    sustain_budget = 500;
    baseline_every = 4_000;
    warmstart_iterations = 3_000;
    (* the endurance-scale safe-mode dwell (min_safe_time 2000 ticks +
       10 settle observations at the 100-tick watchdog cadence) would keep
       the kernel frozen across every mini-horizon baseline checkpoint *)
    safe_mode =
      {
        Soak.smoke_config.Soak.safe_mode with
        Safe_mode.min_safe_time = 300.;
        settle_rounds = 3;
      };
  }

let run_exn config =
  match Soak.run config with
  | Ok r -> r
  | Error e -> Alcotest.failf "Soak.run: %s" e

let test_soak_mini_green_and_deterministic () =
  let r1 = run_exn mini_config in
  let r2 = run_exn mini_config in
  (* green: the mini endurance run holds every rolling-health oracle *)
  Alcotest.(check (list string)) "no oracle violations" [] r1.Soak.oracle_violations;
  Alcotest.(check int) "violation count" 0 r1.Soak.violation_count;
  Alcotest.(check bool) "chaos exercised" true (r1.Soak.chaos_windows >= 2);
  Alcotest.(check bool) "churn exercised" true (r1.Soak.admits >= 5 && r1.Soak.retires >= 5);
  Alcotest.(check bool) "baseline checked" true (r1.Soak.baseline_checks >= 1);
  Alcotest.(check bool) "final feasible" true r1.Soak.final_feasible;
  Alcotest.(check int) "no degradations without ceilings" 0 r1.Soak.degradations;
  (* deterministic: every tick-derived report field is reproducible
     (wall-clock and memory fields are the exceptions by nature) *)
  let det (r : Soak.report) =
    ( ( r.Soak.ticks,
        r.Soak.tasks,
        r.Soak.subtasks,
        r.Soak.admits,
        r.Soak.retires,
        r.Soak.chaos_windows,
        r.Soak.stalls ),
      ( r.Soak.guard_events,
        r.Soak.safe_entries,
        r.Soak.safe_exits,
        r.Soak.degradations,
        r.Soak.recoveries,
        r.Soak.max_level,
        r.Soak.violation_count ),
      ( r.Soak.oracle_violations,
        r.Soak.reconverge_episodes,
        r.Soak.worst_settle_ticks,
        r.Soak.baseline_checks,
        Int64.bits_of_float r.Soak.worst_drift,
        Int64.bits_of_float r.Soak.final_utility,
        r.Soak.final_active_tasks ) )
  in
  if det r1 <> det r2 then Alcotest.fail "same config, different report";
  (* render stays total *)
  Alcotest.(check bool) "render non-empty" true (String.length (Soak.render r1) > 0)

let test_soak_breach_degrades_not_dies () =
  let config =
    {
      mini_config with
      horizon = 3_000;
      baseline_every = 0;
      ceilings = { Soak.max_rss_kb = 500; max_words_per_tick = 0.; min_ticks_per_s = 0. };
    }
  in
  let r = run_exn config in
  (* an unmeetable RSS ceiling walks the full ladder into forced safe
     mode — recorded as degradations, never a crash *)
  Alcotest.(check bool) "degradations recorded" true (r.Soak.degradations >= 1);
  Alcotest.(check int) "ladder bottom reached" (Soak.shed_levels + 1) r.Soak.max_level;
  Alcotest.(check bool) "forced safe mode" true (r.Soak.safe_entries >= 1);
  Alcotest.(check int) "ticks all ran" config.Soak.horizon r.Soak.ticks

(* Crash drills inside the endurance run: with a journal the drills
   recover warm from replayed records and the run stays green; the
   journal-free variant of the same config recovers cold and, with both
   cadences at zero, reproduces the crash-free report exactly. *)
let test_soak_crash_drills () =
  let module Journal = Lla_durable.Journal in
  let config =
    { mini_config with Soak.horizon = 8_000; crash_every = 2_500; journal_every = 200 }
  in
  let journal = Journal.create (Journal.Store.faulty ()) in
  let r =
    match Soak.run ~journal config with
    | Ok r -> r
    | Error e -> Alcotest.failf "Soak.run: %s" e
  in
  Alcotest.(check (list string)) "crash drills stay green" [] r.Soak.oracle_violations;
  Alcotest.(check bool) "drills executed" true (r.Soak.crashes >= 2);
  Alcotest.(check int) "every drill accounted" r.Soak.crashes
    (r.Soak.warm_recoveries + r.Soak.cold_recoveries);
  Alcotest.(check bool) "journaled drills recover warm" true (r.Soak.warm_recoveries >= 1);
  Alcotest.(check bool) "records replayed" true (r.Soak.journal_replayed > 0);
  Alcotest.(check bool) "render mentions the drills" true
    (let r = Soak.render r in
     let needle = "crashes:" in
     let n = String.length needle in
     let rec go i = i + n <= String.length r && (String.sub r i n = needle || go (i + 1)) in
     go 0);
  (* same drills without a journal: every recovery is cold *)
  let r =
    match Soak.run { config with Soak.journal_every = 0 } with
    | Ok r -> r
    | Error e -> Alcotest.failf "Soak.run: %s" e
  in
  Alcotest.(check bool) "journal-free drills recover cold" true
    (r.Soak.crashes >= 2 && r.Soak.warm_recoveries = 0 && r.Soak.cold_recoveries = r.Soak.crashes);
  Alcotest.(check int) "nothing replayed" 0 r.Soak.journal_replayed

let () =
  Alcotest.run "soak"
    [
      ( "streams",
        [
          qcheck churn_stream_deterministic;
          qcheck rota_stream_deterministic;
          Alcotest.test_case "shed evicts lowest priority" `Quick test_churn_shed_lowest_priority;
        ] );
      ( "kernel churn",
        [
          qcheck kernel_admit_retire_identity;
          Alcotest.test_case "retire/readmit reconverges" `Quick
            test_kernel_retire_readmit_reconverges;
          Alcotest.test_case "poison heals" `Quick test_kernel_poison_heals;
          Alcotest.test_case "capacity dip + restore" `Quick test_kernel_capacity_dip_restore;
          Alcotest.test_case "freeze holds latencies" `Quick test_kernel_freeze_holds_latencies;
          Alcotest.test_case "enter_fallback heals prices" `Quick
            test_kernel_enter_fallback_heals;
        ] );
      ( "safe mode",
        [
          Alcotest.test_case "observe_signals matches observe" `Quick
            test_observe_signals_matches_observe;
        ] );
      ("rotate", [ Alcotest.test_case "bounded segments" `Quick test_rotate_bounds_segments ]);
      ( "soak",
        [
          Alcotest.test_case "mini soak green and deterministic" `Quick
            test_soak_mini_green_and_deterministic;
          Alcotest.test_case "ceiling breach degrades, not dies" `Quick
            test_soak_breach_degrades_not_dies;
          Alcotest.test_case "crash drills recover warm, stay green" `Quick
            test_soak_crash_drills;
        ] );
    ]
