(* The engine interface battery: golden traces through the sim handle
   (the refactor must be invisible on the legacy path), the seeded
   domains-parallel interleaving battery (replay determinism,
   element-wise agreement with the simulator, merged-trace oracles), the
   order-sensitivity repro behind the calibrated span oracle, and
   engine-aware campaign shrinking. *)

module Reng = Lla_runtime.Engine
module Distributed = Lla_runtime.Distributed
module Transport = Lla_transport.Transport
module Trace = Lla_obs.Trace
module Invariant = Lla_obs.Invariant
module Campaign = Lla_chaos.Campaign
module Schedule = Lla_chaos.Schedule
module Oracle = Lla_chaos.Oracle
module P = Lla.Problem

let workload = Lla_workloads.Paper_sim.base ()

let problem = P.compile workload

let n_sub = P.n_subtasks problem

let n_res = P.n_resources problem

type snapshot = {
  utility : float;
  lat : float array;
  mu : float array;
  messages : int;
  price_rounds : int;
  allocation_rounds : int;
}

let snapshot dist =
  {
    utility = Distributed.utility dist;
    lat = Array.init n_sub (fun i -> Distributed.latency dist problem.P.subtasks.(i).P.sid);
    mu = Array.init n_res (fun r -> Distributed.mu dist problem.P.resource_ids.(r));
    messages = Distributed.messages_sent dist;
    price_rounds = Distributed.price_rounds dist;
    allocation_rounds = Distributed.allocation_rounds dist;
  }

(* Bit-for-bit: [compare] (not [=]) so a nan in both snapshots matches. *)
let check_snapshot_eq msg a b =
  Alcotest.(check bool) (msg ^ ": snapshot bit-for-bit") true (compare a b = 0)

let check_lat_close ~eps msg a b =
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: lat[%d] within %g (%.9f vs %.9f)" msg i eps x b.lat.(i))
        true
        (Float.abs (x -. b.lat.(i)) <= eps))
    a.lat

(* A run on the legacy caller-owned-core path. *)
let run_legacy ?obs ?resilience ?tconfig ~duration () =
  let core = Lla_sim.Engine.create () in
  let transport = Option.map (fun c -> Transport.create ?obs ~config:c core) tconfig in
  let dist = Distributed.create ?obs ?resilience ?transport core workload in
  Distributed.run dist ~duration;
  Distributed.stop dist;
  Lla_sim.Engine.run core ();
  snapshot dist

(* A run through an engine handle; returns the merged per-shard trace
   too. The engine is NOT shut down — single-shard engines have nothing
   to release, and the domains helpers below own that. *)
let run_on ?obs ?resilience ?tconfig ?inject engine_h ~duration () =
  let dist =
    Distributed.create_on ?obs ?resilience ?transport_config:tconfig engine_h workload
  in
  Option.iter (fun f -> f dist) inject;
  Distributed.run dist ~duration;
  Distributed.stop dist;
  Reng.drain engine_h;
  (snapshot dist, Distributed.merged_records dist)

let run_domains ?resilience ?tconfig ?inject ~domains ~duration () =
  let eng = Reng.domains ~domains () in
  let obs = Lla_obs.create ~spans:true () in
  let result = run_on ~obs ?resilience ?tconfig ?inject eng ~duration () in
  Reng.shutdown eng;
  result

(* ------------------------------------------------------------------ *)
(* Golden traces: the sim handle reproduces the pre-refactor runs      *)
(* ------------------------------------------------------------------ *)

let test_sim_golden_plain () =
  let legacy = run_legacy ~duration:20_000. () in
  let on_engine, _ = run_on (Reng.sim ()) ~duration:20_000. () in
  check_snapshot_eq "plain deployment" legacy on_engine

let test_sim_golden_traced_resilient () =
  let run_with path =
    let obs = Lla_obs.create () in
    let sink, collected = Trace.memory_sink () in
    Trace.attach obs.Lla_obs.trace sink;
    let s =
      match path with
      | `Legacy ->
          run_legacy ~obs ~resilience:Distributed.default_resilience ~duration:15_000. ()
      | `Engine ->
          fst
            (run_on ~obs ~resilience:Distributed.default_resilience (Reng.sim ())
               ~duration:15_000. ())
    in
    (s, collected ())
  in
  let s1, r1 = run_with `Legacy in
  let s2, r2 = run_with `Engine in
  check_snapshot_eq "traced resilient deployment" s1 s2;
  Alcotest.(check int) "same trace length" (List.length r1) (List.length r2);
  Alcotest.(check bool) "trace streams bit-for-bit" true (compare r1 r2 = 0)

let test_sim_golden_faulted_transport () =
  (* The chaos-style scenario: a seeded faulty transport. The engine
     path builds shard 0's transport from the same config (seed + 0), so
     the fault RNG draws — and therefore every drop and reorder — must
     land identically. *)
  let tconfig =
    {
      Transport.default_config with
      Transport.seed = 9;
      faults =
        { Transport.drop = 0.08; duplicate = 0.04; reorder = 0.15; reorder_spread = 6. };
    }
  in
  let legacy = run_legacy ~tconfig ~duration:15_000. () in
  let on_engine, _ = run_on ~tconfig (Reng.sim ()) ~duration:15_000. () in
  check_snapshot_eq "faulted transport" legacy on_engine

(* The sim handle is the bare core: barrier ops and posts are ordinary
   events clamped to the clock, queued behind what the core already
   holds; its clock is the core's; it has no shard 1; shutdown releases
   nothing. *)
let test_sim_handle_is_the_core () =
  let h = Reng.sim () in
  let core = Reng.core h ~shard:0 in
  Reng.run_until h 10.;
  let fired = ref [] in
  let note tag () = fired := (tag, Lla_sim.Engine.now core) :: !fired in
  ignore (Lla_sim.Engine.schedule core ~at:10. (fun _ -> note "queued" ()));
  Reng.at_barrier h ~at:5. (note "barrier");
  Reng.post h ~from:0 ~shard:0 ~at:5. ~channel:0 (note "post");
  Reng.run_until h 10.;
  Alcotest.(check (list (pair string (float 0.))))
    "fired at the clock, after the queued event, in queueing order"
    [ ("queued", 10.); ("barrier", 10.); ("post", 10.) ]
    (List.rev !fired);
  ignore (Lla_sim.Engine.schedule core ~at:20. (fun _ -> note "direct" ()));
  Lla_sim.Engine.run_until core 25.;
  Alcotest.(check (float 0.)) "now follows the core" 25. (Reng.now h);
  Alcotest.(check int) "events fired are the core's" (Lla_sim.Engine.events_fired core)
    (Reng.events_fired h);
  let invalid f = match f () with () -> false | exception Invalid_argument _ -> true in
  Alcotest.(check bool) "core ~shard:1 raises" true
    (invalid (fun () -> ignore (Reng.core h ~shard:1)));
  Alcotest.(check bool) "post ~shard:1 raises" true
    (invalid (fun () -> Reng.post h ~from:0 ~shard:1 ~at:30. ~channel:0 ignore));
  Reng.shutdown h;
  Reng.at_barrier h ~at:30. (note "after shutdown");
  Reng.run_until h 40.;
  Alcotest.(check (pair string (float 0.))) "runnable after shutdown" ("after shutdown", 30.)
    (List.hd !fired);
  Alcotest.(check (float 0.)) "clock at the horizon" 40. (Reng.now h);
  Alcotest.(check int) "nothing pending" 0 (Reng.pending h)

(* ------------------------------------------------------------------ *)
(* Domains engine: agreement, determinism, merged oracles               *)
(* ------------------------------------------------------------------ *)

(* The merge sorts every inbox by (at, channel, seq): cross-shard posts
   land at their stamped times, ties broken by channel and then by
   emission order, whatever order they were posted in; [drain] then
   empties the engine. *)
let test_domains_merge_order () =
  let h = Reng.domains ~domains:2 () in
  let core0 = Reng.core h ~shard:0 in
  let fired = ref [] in
  let post ~at ~channel tag =
    Reng.post h ~from:1 ~shard:0 ~at ~channel (fun () ->
        fired := (tag, Lla_sim.Engine.now core0) :: !fired)
  in
  post ~at:3. ~channel:5 "a";
  post ~at:2.5 ~channel:7 "b";
  post ~at:2.5 ~channel:3 "c";
  post ~at:2. ~channel:9 "d";
  post ~at:2.5 ~channel:7 "e";
  Alcotest.(check int) "five posts pending" 5 (Reng.pending h);
  Reng.drain h;
  Reng.shutdown h;
  Alcotest.(check (list (pair string (float 0.))))
    "delivered in (at, channel, seq) order"
    [ ("d", 2.); ("c", 2.5); ("b", 2.5); ("e", 2.5); ("a", 3.) ]
    (List.rev !fired);
  Alcotest.(check int) "drained" 0 (Reng.pending h);
  Alcotest.(check int) "events fired" 5 (Reng.events_fired h)

let test_domains_matches_sim () =
  let duration = 8_000. in
  let sim, _ = run_on (Reng.sim ()) ~duration () in
  List.iter
    (fun domains ->
      let dom, _ = run_domains ~domains ~duration () in
      check_lat_close ~eps:1e-6 (Printf.sprintf "%d domains" domains) dom sim;
      Alcotest.(check bool)
        (Printf.sprintf "%d domains: utility within 1e-6 (%.9f vs %.9f)" domains dom.utility
           sim.utility)
        true
        (Float.abs (dom.utility -. sim.utility) <= 1e-6))
    [ 1; 2; 4 ]

(* The sharded metrics registries: a >= 2-domain deployment keeps one
   private registry per shard and merges on read. On a deterministic
   workload over the zero-fault constant-delay transport, the merged
   view must agree with a single-registry sim run — counters exactly,
   the latency histogram in count and (to float-sum rounding) in sum. *)
let test_merged_registry_matches_single () =
  let module Metrics = Lla_obs.Metrics in
  let duration = 8_000. in
  let tconfig = { Transport.default_config with Transport.seed = 5 } in
  let run engine_h =
    let obs = Lla_obs.create ~spans:true () in
    let dist = Distributed.create_on ~obs ~transport_config:tconfig engine_h workload in
    Distributed.run dist ~duration;
    Distributed.stop dist;
    Reng.drain engine_h;
    (Distributed.merged_metrics dist, Distributed.shard_count dist)
  in
  let single, n_single = run (Reng.sim ()) in
  let eng = Reng.domains ~domains:2 () in
  let multi, n_multi = run eng in
  Reng.shutdown eng;
  Alcotest.(check int) "sim path is one shard" 1 n_single;
  Alcotest.(check bool) "domains path is >= 2 shards" true (n_multi >= 2);
  List.iter
    (fun name ->
      match (Metrics.find_counter single name, Metrics.find_counter multi name) with
      | Some a, Some b ->
        Alcotest.(check int) (name ^ ": merged == single") (Metrics.value a) (Metrics.value b)
      | None, None -> ()
      | Some _, None -> Alcotest.fail (name ^ " missing from the merged registry")
      | None, Some _ -> Alcotest.fail (name ^ " missing from the single registry"))
    [
      "lla_runtime_messages_total";
      "lla_runtime_price_rounds_total";
      "lla_runtime_allocation_rounds_total";
      "lla_runtime_guard_events_total";
      "lla_runtime_warm_restores_total";
      "lla_runtime_cold_restarts_total";
    ];
  match
    (Metrics.find_histogram single "lla_control_latency_ms",
     Metrics.find_histogram multi "lla_control_latency_ms")
  with
  | Some a, Some b ->
    Alcotest.(check bool) "latency histogram has samples" true (Metrics.histogram_count a > 0);
    Alcotest.(check int) "latency histogram count: merged == single" (Metrics.histogram_count a)
      (Metrics.histogram_count b);
    Alcotest.(check (float 1e-6)) "latency histogram sum: merged == single"
      (Metrics.histogram_sum a) (Metrics.histogram_sum b)
  | _ -> Alcotest.fail "lla_control_latency_ms missing from a registry"

let fault_window ~seed dist =
  let drop = 0.05 +. (0.05 *. float_of_int (seed mod 4)) in
  let faults = { Transport.no_faults with Transport.drop; reorder = 0.2; reorder_spread = 4. } in
  Distributed.schedule_injection dist ~at:1_500. (fun () -> Distributed.set_faults_all dist faults);
  Distributed.schedule_injection dist ~at:3_200. (fun () ->
      Distributed.set_faults_all dist Transport.no_faults)

let time_sorted records =
  let rec go = function
    | (a : Trace.record) :: (b :: _ as rest) -> a.Trace.at <= b.Trace.at && go rest
    | _ -> true
  in
  go records

(* The interleaving battery: across seeds, domain counts and a seeded
   fault window, the deterministic-merge engine must replay bit-for-bit
   against itself, and the merged parallel trace must satisfy every
   order-insensitive oracle. *)
let battery =
  QCheck.Test.make ~name:"domains interleaving battery (seeded)" ~count:3
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let duration = 4_000. in
      let tconfig = { Transport.default_config with Transport.seed = seed } in
      List.for_all
        (fun domains ->
          let run () =
            run_domains ~resilience:Distributed.default_resilience ~tconfig
              ~inject:(fault_window ~seed) ~domains ~duration ()
          in
          let s1, r1 = run () in
          let s2, r2 = run () in
          if compare s1 s2 <> 0 then
            QCheck.Test.fail_reportf "seed %d, %d domains: replay diverged" seed domains;
          if compare r1 r2 <> 0 then
            QCheck.Test.fail_reportf "seed %d, %d domains: merged traces differ" seed domains;
          if not (time_sorted r1) then
            QCheck.Test.fail_reportf "seed %d, %d domains: merged trace not time-sorted" seed
              domains;
          if not (Invariant.spans_well_formed_merged r1) then
            QCheck.Test.fail_reportf "seed %d, %d domains: merged spans ill-formed" seed domains;
          if not (Invariant.safe_entries_preceded_by_trip r1) then
            QCheck.Test.fail_reportf "seed %d, %d domains: safe entry without a trip" seed domains;
          (* Eq. 3/4 on the merged stream: the healthy late stretch of the
             run must not be in sustained violation (the transient during
             the fault window is exempt by [from]). *)
          let late = List.filter (fun (r : Trace.record) -> r.Trace.at >= 3_800.) r1 in
          let violations = Invariant.check_constraints ~tolerance:0.15 ~from:3_800. late in
          if List.length violations > List.length late / 10 then
            QCheck.Test.fail_reportf "seed %d, %d domains: %d/%d late records violate Eq.3/4" seed
              domains (List.length violations) (List.length late);
          true)
        [ 1; 2; 4 ]
      &&
      (* Fault-free runs agree with the simulator element-wise. *)
      let sim, _ = run_on ~tconfig (Reng.sim ()) ~duration () in
      List.for_all
        (fun domains ->
          let dom, _ = run_domains ~tconfig ~domains ~duration () in
          Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-6) dom.lat sim.lat
          || QCheck.Test.fail_reportf "seed %d, %d domains: allocation disagrees with sim" seed
               domains)
        [ 2; 4 ])

let test_span_oracle_order_sensitivity () =
  (* The repro the calibrated oracle's doc promises: a healthy 2-domain
     run emits spans with per-shard strided ids, so the merged stream
     interleaves the id progressions — the single-stream oracle trips on
     a perfectly correct trace, the merged variant accepts it. *)
  let _, records = run_domains ~domains:2 ~duration:4_000. () in
  let has_span (r : Trace.record) =
    match r.Trace.event with Trace.Span _ -> true | _ -> false
  in
  Alcotest.(check bool) "stream has spans" true (List.exists has_span records);
  Alcotest.(check bool) "spans from both shards interleave ids" false
    (Invariant.spans_well_formed records);
  Alcotest.(check bool) "merged-stream oracle accepts" true
    (Invariant.spans_well_formed_merged records)

(* ------------------------------------------------------------------ *)
(* Campaign against the domains engine                                  *)
(* ------------------------------------------------------------------ *)

let small_schedule ~seed events =
  Schedule.make
    ~setup:{ Schedule.robust_setup with Schedule.transport_seed = seed }
    ~workload:"base" ~horizon:4_000. ~settle:12_000. events

let test_campaign_domains_replay_identical () =
  let sched =
    small_schedule ~seed:11
      [
        Schedule.Faults
          {
            at = 1_200.;
            duration = 900.;
            faults =
              { Transport.drop = 0.2; duplicate = 0.05; reorder = 0.2; reorder_spread = 5. };
          };
        Schedule.Outage { at = 2_000.; duration = 600.; target = Schedule.Agent 1 };
      ]
  in
  match
    (Campaign.run_schedule ~engine:(`Domains 2) sched, Campaign.run_schedule ~engine:(`Domains 2) sched)
  with
  | Ok a, Ok b ->
      Alcotest.(check bool) "verdicts identical" true (a.Campaign.verdicts = b.Campaign.verdicts);
      Alcotest.(check bool) "merged traces bit-for-bit" true
        (compare a.Campaign.outcome.Oracle.records b.Campaign.outcome.Oracle.records = 0);
      Alcotest.(check (float 0.)) "final utility bit-equal"
        a.Campaign.outcome.Oracle.final_utility b.Campaign.outcome.Oracle.final_utility;
      Alcotest.(check bool)
        (Printf.sprintf "oracles pass: %s" (Oracle.render a.Campaign.verdicts))
        true (Oracle.ok a.Campaign.verdicts)
  | Error e, _ | _, Error e -> Alcotest.failf "run_schedule: %s" e

let test_campaign_domains_shrinker_repro () =
  (* The fragile (resilience-off, aggressive fixed step) deployment on
     the parallel engine fails; the campaign's engine-aware shrinker must
     minimize the failure, and the minimum must still reproduce on the
     same engine. *)
  let engine = `Domains 2 in
  let s = Campaign.run ~engine ~fragile:true ~shrink_attempts:8 ~runs:1 ~seed:42 () in
  match s.Campaign.failures with
  | [] -> Alcotest.fail "fragile deployment survived on the domains engine"
  | f :: _ ->
      let reproduces =
        match Campaign.run_schedule ~engine f.Campaign.shrunk with
        | Error e -> Alcotest.failf "run_schedule: %s" e
        | Ok exec ->
            List.exists
              (fun v -> List.mem v.Oracle.oracle f.Campaign.oracles)
              (Oracle.failures exec.Campaign.verdicts)
      in
      Alcotest.(check bool) "shrunk is no larger" true
        (List.length f.Campaign.shrunk.Schedule.events
        <= List.length f.Campaign.schedule.Schedule.events);
      Alcotest.(check bool) "shrunk still reproduces on the domains engine" true reproduces

let () =
  Alcotest.run "lla_engine"
    [
      ( "golden",
        [
          Alcotest.test_case "sim engine, plain deployment" `Slow test_sim_golden_plain;
          Alcotest.test_case "sim engine, traced + resilient" `Slow
            test_sim_golden_traced_resilient;
          Alcotest.test_case "sim engine, faulted transport" `Slow
            test_sim_golden_faulted_transport;
          Alcotest.test_case "sim handle is the bare core" `Quick test_sim_handle_is_the_core;
        ] );
      ( "domains",
        [
          Alcotest.test_case "settled allocation matches sim (1/2/4)" `Slow
            test_domains_matches_sim;
          Alcotest.test_case "cross-shard merge order" `Quick test_domains_merge_order;
          QCheck_alcotest.to_alcotest battery;
          Alcotest.test_case "merged metrics registry matches single-shard" `Slow
            test_merged_registry_matches_single;
          Alcotest.test_case "span oracle order-sensitivity repro" `Slow
            test_span_oracle_order_sensitivity;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "domains replay bit-identical" `Slow
            test_campaign_domains_replay_identical;
          Alcotest.test_case "interleaving failure shrinks and reproduces" `Slow
            test_campaign_domains_shrinker_repro;
        ] );
    ]
