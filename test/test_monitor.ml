(* The streaming monitor's contract is agreement: every online detector
   must report exactly what the offline [Analyze] pass reports on the
   same sample stream. Seeded property tests hold that equivalence over
   random series for each shared primitive (Settle, Probe, episodes,
   oscillation, dispersion), and two end-to-end runs — the paper
   scenario on the distributed runtime and a generated scale scenario on
   the flat-array kernel — hold it on real trajectories. Alert replay
   determinism closes the loop: feeding a collected trace back through a
   fresh monitor reproduces the identical alert timeline. *)

module Trace = Lla_obs.Trace
module Monitor = Lla_obs.Monitor
module Analyze = Lla_obs.Analyze
module Series = Lla_obs.Series
module Metrics = Lla_obs.Metrics
module Distributed = Lla_runtime.Distributed

let foption eps = Alcotest.option (Alcotest.float eps)

(* ------------------------------------------------------------------ *)
(* Shared primitives: unit semantics                                   *)
(* ------------------------------------------------------------------ *)

let test_streak_semantics () =
  let s = Monitor.Streak.create ~budget:100 in
  Alcotest.(check (option int)) "within budget" None (Monitor.Streak.observe s ~ok:false ~step:60);
  Alcotest.(check int) "accumulates" 60 (Monitor.Streak.current s);
  Alcotest.(check (option int))
    "exceeding the budget reports the streak" (Some 120)
    (Monitor.Streak.observe s ~ok:false ~step:60);
  Alcotest.(check int) "firing resets" 0 (Monitor.Streak.current s);
  ignore (Monitor.Streak.observe s ~ok:false ~step:90);
  Alcotest.(check (option int)) "a good sample zeroes" None
    (Monitor.Streak.observe s ~ok:true ~step:90);
  Alcotest.(check int) "zeroed" 0 (Monitor.Streak.current s);
  ignore (Monitor.Streak.observe s ~ok:false ~step:90);
  Monitor.Streak.reset s;
  Alcotest.(check int) "reset zeroes (grace windows)" 0 (Monitor.Streak.current s)

let test_drift_normalization () =
  Alcotest.(check (float 1e-12)) "relative vs baseline" 0.25 (Monitor.drift ~baseline:200. 150.);
  Alcotest.(check (float 1e-12)) "floor at 1 for tiny baselines" 0.5 (Monitor.drift ~baseline:0. 0.5);
  Alcotest.(check (float 1e-12)) "sign-insensitive" 0.25 (Monitor.drift ~baseline:(-200.) (-150.))

(* ------------------------------------------------------------------ *)
(* Property: online detectors == offline reductions, random series     *)
(* ------------------------------------------------------------------ *)

(* Series shaped like real trajectories: a noisy approach toward a
   target with occasional late excursions, so settling is sometimes
   achieved, sometimes ruined by the tail — both branches of the
   suffix-stability criterion get exercised. *)
let gen_series =
  QCheck.Gen.(
    let* n = int_range 0 80 in
    let* target = oneofl [ 10.; -7.5; 123.456 ] in
    let* decay = float_range 0.5 0.99 in
    let* noise = float_range 0. 3. in
    let* spikes = list_size (int_range 0 3) (int_range 0 (max 0 (n - 1))) in
    let* seeds = list_repeat n (float_range (-1.) 1.) in
    let vs =
      List.mapi
        (fun i u ->
          let transient = 20. *. (decay ** float_of_int i) in
          let spike = if List.mem i spikes then 15. else 0. in
          target +. transient +. (noise *. u) +. spike)
        seeds
    in
    return (target, List.mapi (fun i v -> (float_of_int i, v)) vs))

let arb_series =
  QCheck.make gen_series ~print:(fun (target, s) ->
      Printf.sprintf "target %g, series [%s]" target
        (String.concat "; " (List.map (fun (t, v) -> Printf.sprintf "(%g,%g)" t v) s)))

let opt_eq a b =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> Float.abs (x -. y) <= 1e-9
  | _ -> false

let prop_settle_agrees =
  QCheck.Test.make ~name:"Settle.settled_since == Analyze.settling_time, any series" ~count:300
    arb_series (fun (target, series) ->
      let m = Monitor.create ~target () in
      List.iter (fun (at, v) -> Monitor.observe_utility m ~at v) series;
      let online = Monitor.settling_tick m in
      let offline = Analyze.settling_time ~target series in
      if not (opt_eq online offline) then
        QCheck.Test.fail_reportf "online %s, offline %s"
          (match online with None -> "never" | Some t -> string_of_float t)
          (match offline with None -> "never" | Some t -> string_of_float t)
      else true)

let prop_probe_agrees =
  QCheck.Test.make ~name:"Probe.settling == settling_time against the final value" ~count:300
    arb_series (fun (_, series) ->
      let p = Monitor.Probe.start () in
      List.iter (fun (at, v) -> Monitor.Probe.sample p ~at ~value:v) series;
      let offline =
        match List.rev series with
        | [] -> None
        | (_, final) :: _ -> Analyze.settling_time ~tolerance:0.02 ~target:final series
      in
      opt_eq (Monitor.Probe.settling p) offline)

let prop_episodes_agree =
  QCheck.Test.make ~name:"overload_episodes == Analyze.episodes, any load series" ~count:300
    arb_series (fun (_, series) ->
      (* Rescale into load-factor territory so the 1.0 threshold cuts
         through the series rather than sitting above or below it. *)
      let loads = List.map (fun (t, v) -> (t, v /. 15.)) series in
      let m = Monitor.create () in
      List.iter (fun (at, load) -> Monitor.observe_load m ~at ~resource:3 ~load) loads;
      let online = Monitor.overload_episodes m ~resource:3 in
      let offline = Analyze.episodes loads in
      List.length online = List.length offline
      && List.for_all2
           (fun (a, b) (c, d) -> Float.abs (a -. c) <= 1e-9 && Float.abs (b -. d) <= 1e-9)
           online offline)

(* ------------------------------------------------------------------ *)
(* End-to-end: the paper scenario on the distributed runtime            *)
(* ------------------------------------------------------------------ *)

(* One run, three consumers: a memory sink collecting the raw stream,
   the monitor fed live through its trace sink, and the offline Analyze
   pass over the collected records. Online readouts must equal the
   offline reductions on every shared signal. *)
let run_paper_scenario () =
  let workload = Lla_workloads.Paper_sim.base () in
  let obs = Lla_obs.create () in
  let sink, collected = Trace.memory_sink () in
  Trace.attach obs.Lla_obs.trace sink;
  let monitor = Monitor.create ~tasks:(List.length workload.Lla_model.Workload.tasks) () in
  Monitor.attach monitor obs.Lla_obs.trace;
  let engine = Lla_sim.Engine.create () in
  let d = Distributed.create ~obs engine workload in
  Distributed.run d ~duration:3000.;
  Distributed.stop d;
  (monitor, collected ())

let test_distributed_agreement () =
  let monitor, records = run_paper_scenario () in
  let utility = Series.utility records in
  Alcotest.(check bool) "run produced utility samples" true (utility <> []);
  Alcotest.(check int) "monitor saw every utility sample" (List.length utility)
    (Monitor.utility_samples monitor);
  let final = snd (List.hd (List.rev utility)) in
  Alcotest.check (foption 1e-9) "settling tick agrees (vs final value)"
    (Analyze.settling_time ~target:final utility)
    (Monitor.settling_tick monitor);
  Alcotest.check (foption 1e-9) "last utility agrees" (Some final) (Monitor.last_utility monitor);
  let congestion = Series.congestion records in
  Alcotest.(check bool) "run produced congestion series" true (congestion <> []);
  List.iter
    (fun (resource, series) ->
      Alcotest.(check (list (pair (float 1e-9) (float 1e-9))))
        (Printf.sprintf "overload episodes agree on resource %d" resource)
        (Analyze.episodes series)
        (Monitor.overload_episodes monitor ~resource))
    congestion;
  Alcotest.(check (list int))
    "monitor saw exactly the traced resources"
    (List.map fst congestion |> List.sort compare)
    (Monitor.resources_seen monitor |> List.sort compare)

(* Replay determinism: a fresh monitor fed the collected records (alert
   events included — the sink must ignore them rather than echo) ends in
   the identical alert state, transition counts and timestamps. *)
let test_alert_replay_deterministic () =
  let live, records = run_paper_scenario () in
  let replayed = Monitor.create ~tasks:(List.length (Lla_workloads.Paper_sim.base ()).Lla_model.Workload.tasks) () in
  List.iter (Monitor.sink replayed) records;
  let view m =
    List.map
      (fun (a : Monitor.alert_view) ->
        ( a.Monitor.name,
          (a.Monitor.active, a.Monitor.raised, a.Monitor.cleared),
          (a.Monitor.since, a.Monitor.last_value) ))
      (Monitor.alerts m)
  in
  Alcotest.(check int) "same total raises" (Monitor.alerts_raised live)
    (Monitor.alerts_raised replayed);
  Alcotest.(check int) "same total clears" (Monitor.alerts_cleared live)
    (Monitor.alerts_cleared replayed);
  List.iter2
    (fun (n1, s1, (since1, v1)) (n2, s2, (since2, v2)) ->
      Alcotest.(check string) "alert order is fixed" n1 n2;
      Alcotest.(check (triple bool int int)) (n1 ^ ": state and counts") s1 s2;
      let feq a b = (Float.is_nan a && Float.is_nan b) || Float.abs (a -. b) <= 1e-9 in
      Alcotest.(check bool) (n1 ^ ": episode timestamps") true (feq since1 since2 && feq v1 v2))
    (view live) (view replayed)

(* The recovery_stuck alert: a recovery that converges inside the enter
   hysteresis (200 time units) never raises it; one stuck past it does,
   at Critical; 500 units of post-recovery health clear it. *)
let test_recovery_stuck_hysteresis () =
  let find m =
    match List.find_opt (fun (a : Monitor.alert_view) -> a.Monitor.name = "recovery_stuck") (Monitor.alerts m) with
    | Some a -> a
    | None -> Alcotest.fail "no recovery_stuck alert on the bus"
  in
  (* fast recovery: stuck for less than the budget, then healthy *)
  let m = Monitor.create () in
  for i = 1 to 19 do
    Monitor.observe_recovery m ~at:(float_of_int (i * 10)) ~ok:false ~value:(float_of_int i)
  done;
  Monitor.observe_recovery m ~at:200. ~ok:true ~value:20.;
  Alcotest.(check bool) "fast recovery never raises" false (find m).Monitor.active;
  Alcotest.(check int) "no raise transition" 0 (find m).Monitor.raised;
  (* stuck recovery: infeasible past the budget *)
  let m = Monitor.create () in
  for i = 1 to 25 do
    Monitor.observe_recovery m ~at:(float_of_int (i * 10)) ~ok:false ~value:(float_of_int i)
  done;
  let a = find m in
  Alcotest.(check bool) "stuck recovery raises" true a.Monitor.active;
  Alcotest.(check bool) "critical severity" true (a.Monitor.severity = Monitor.Critical);
  (* health must hold for 500 units before the alert clears *)
  Monitor.observe_recovery m ~at:300. ~ok:true ~value:0.;
  Monitor.observe_recovery m ~at:600. ~ok:true ~value:0.;
  Alcotest.(check bool) "still active inside the clear hysteresis" true (find m).Monitor.active;
  Monitor.observe_recovery m ~at:850. ~ok:true ~value:0.;
  let a = find m in
  Alcotest.(check bool) "cleared after sustained health" false a.Monitor.active;
  Alcotest.(check int) "one full episode" 1 a.Monitor.raised;
  Alcotest.(check int) "one clear" 1 a.Monitor.cleared

(* ------------------------------------------------------------------ *)
(* End-to-end: a generated scale scenario on the flat-array kernel      *)
(* ------------------------------------------------------------------ *)

let test_scale_agreement () =
  let workload =
    Lla_scale.Generator.generate ~params:(Lla_scale.Generator.sized ~subtasks:1_500 ()) ~seed:11 ()
  in
  let kernel =
    match Lla_scale.Kernel.create ~config:Lla_scale.Kernel.scale_config workload with
    | Ok k -> k
    | Error e -> Alcotest.fail ("kernel rejected generated workload: " ^ e)
  in
  let monitor = Monitor.create () in
  let series = ref [] in
  for i = 1 to 300 do
    Lla_scale.Kernel.step kernel;
    let at = float_of_int i in
    let u = Lla_scale.Kernel.utility kernel in
    series := (at, u) :: !series;
    Monitor.observe_utility monitor ~at u
  done;
  let series = List.rev !series in
  let final = snd (List.hd (List.rev series)) in
  Alcotest.(check int) "every tick observed" 300 (Monitor.utility_samples monitor);
  Alcotest.check (foption 1e-9) "settling tick agrees on the kernel trajectory"
    (Analyze.settling_time ~target:final series)
    (Monitor.settling_tick monitor)

let () =
  let rand = Random.State.make [| 20260809 |] in
  Alcotest.run "lla_monitor"
    [
      ( "primitives",
        [
          Alcotest.test_case "streak budget semantics" `Quick test_streak_semantics;
          Alcotest.test_case "drift normalization" `Quick test_drift_normalization;
          Alcotest.test_case "recovery_stuck hysteresis" `Quick test_recovery_stuck_hysteresis;
        ] );
      ( "agreement",
        List.map (QCheck_alcotest.to_alcotest ~rand)
          [
            prop_settle_agrees;
            prop_probe_agrees;
            prop_episodes_agree;
          ] );
      ( "end-to-end",
        [
          Alcotest.test_case "distributed run: online == offline" `Slow
            test_distributed_agreement;
          Alcotest.test_case "alert replay is deterministic" `Slow
            test_alert_replay_deterministic;
          Alcotest.test_case "scale kernel: online == offline" `Quick test_scale_agreement;
        ] );
    ]
