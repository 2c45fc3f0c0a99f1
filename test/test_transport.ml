(* Tests for the fault-injecting transport and the distributed LLA
   deployment on top of it: channel-level fault semantics, determinism,
   equivalence of the zero-fault transport with the legacy fixed-delay
   path, and convergence under loss, jitter, partitions and crashes. *)

open Lla_model
module Engine = Lla_sim.Engine
module Transport = Lla_transport.Transport
module Delay_model = Lla_transport.Delay_model
module Distributed = Lla_runtime.Distributed

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

let no_retry_no_lww = { Transport.retry = None; last_write_wins = false }

let two_endpoints ?(config = Transport.default_config) () =
  let engine = Engine.create () in
  let transport = Transport.create ~config engine in
  let a = Transport.endpoint transport ~name:"a" in
  let b = Transport.endpoint transport ~name:"b" in
  (engine, transport, a, b)

(* ------------------------------------------------------------------ *)
(* Channel semantics                                                   *)
(* ------------------------------------------------------------------ *)

let test_constant_delivery_in_order () =
  let engine, transport, a, b = two_endpoints () in
  let received = ref [] in
  for i = 1 to 5 do
    Transport.send transport ~src:a ~dst:b (fun () -> received := i :: !received)
  done;
  Engine.run engine ();
  Alcotest.(check (list int)) "in order" [ 1; 2; 3; 4; 5 ] (List.rev !received);
  check_close "delivery at the constant delay" 1.0 (Engine.now engine);
  let c = Transport.channel_counters transport ~src:a ~dst:b in
  Alcotest.(check int) "sent" 5 c.Transport.sent;
  Alcotest.(check int) "delivered" 5 c.Transport.delivered;
  Alcotest.(check int) "nothing lost" 0
    (c.Transport.dropped + c.Transport.cut + c.Transport.lost_down + c.Transport.stale)

let test_drop_everything () =
  let config =
    { Transport.default_config with faults = { Transport.no_faults with drop = 1.0 } }
  in
  let engine, transport, a, b = two_endpoints ~config () in
  let received = ref 0 in
  for _ = 1 to 7 do
    Transport.send transport ~src:a ~dst:b (fun () -> incr received)
  done;
  Engine.run engine ();
  Alcotest.(check int) "nothing delivered" 0 !received;
  let c = Transport.totals transport in
  Alcotest.(check int) "all dropped" 7 c.Transport.dropped

let test_duplicates_without_lww () =
  let config =
    {
      Transport.default_config with
      faults = { Transport.no_faults with duplicate = 1.0 };
      policy = no_retry_no_lww;
    }
  in
  let engine, transport, a, b = two_endpoints ~config () in
  let received = ref 0 in
  for _ = 1 to 6 do
    Transport.send transport ~src:a ~dst:b (fun () -> incr received)
  done;
  Engine.run engine ();
  Alcotest.(check int) "every message delivered twice" 12 !received;
  let c = Transport.totals transport in
  Alcotest.(check int) "duplicates counted" 6 c.Transport.duplicated

let test_lww_discards_duplicates () =
  let config =
    { Transport.default_config with faults = { Transport.no_faults with duplicate = 1.0 } }
  in
  let engine, transport, a, b = two_endpoints ~config () in
  let received = ref 0 in
  for _ = 1 to 6 do
    Transport.send transport ~key:0 ~src:a ~dst:b (fun () -> incr received)
  done;
  Engine.run engine ();
  Alcotest.(check int) "one application per message" 6 !received;
  let c = Transport.totals transport in
  Alcotest.(check int) "stale copies discarded" 6 c.Transport.stale

let test_reordering_and_lww_monotonicity () =
  (* Every message gets a random extra delay, scrambling arrival order;
     last-write-wins must keep the applied sequence monotonic. *)
  let config =
    {
      Transport.default_config with
      faults = { Transport.no_faults with reorder = 1.0; reorder_spread = 50. };
      seed = 11;
    }
  in
  let engine, transport, a, b = two_endpoints ~config () in
  let applied = ref [] in
  for i = 1 to 30 do
    Transport.send transport ~key:0 ~src:a ~dst:b (fun () -> applied := i :: !applied)
  done;
  Engine.run engine ();
  let applied = List.rev !applied in
  let rec monotonic = function
    | x :: (y :: _ as rest) -> x < y && monotonic rest
    | _ -> true
  in
  Alcotest.(check bool) "applied sequence strictly increasing" true (monotonic applied);
  let c = Transport.totals transport in
  Alcotest.(check int) "every message accounted for" 30
    (c.Transport.delivered + c.Transport.stale);
  Alcotest.(check bool) "reordering actually discarded stale updates" true (c.Transport.stale > 0)

let test_retry_recovers_losses () =
  let config =
    {
      Transport.default_config with
      faults = { Transport.no_faults with drop = 0.5 };
      policy =
        {
          Transport.retry = Some { Transport.timeout = 5.; backoff = 2.; max_attempts = 5; jitter = 0. };
          last_write_wins = false;
        };
      seed = 3;
    }
  in
  let engine, transport, a, b = two_endpoints ~config () in
  let received = ref 0 in
  for _ = 1 to 40 do
    Transport.send transport ~src:a ~dst:b (fun () -> incr received)
  done;
  Engine.run engine ();
  let c = Transport.totals transport in
  Alcotest.(check bool)
    (Printf.sprintf "most messages delivered (%d/40, %d retries)" !received c.Transport.retried)
    true
    (!received >= 36 && c.Transport.retried > 0)

let test_partition_cuts_and_heals () =
  let engine, transport, a, b = two_endpoints () in
  Transport.partition transport ~at:10. ~duration:10. ~group_a:[ a ] ~group_b:[ b ];
  let received = ref [] in
  let send_at t i =
    ignore
      (Engine.schedule engine ~at:t (fun _ ->
           Transport.send transport ~src:a ~dst:b (fun () -> received := i :: !received)))
  in
  send_at 5. 1;
  send_at 15. 2;
  (* in the window: cut *)
  send_at 25. 3;
  Engine.run engine ();
  Alcotest.(check (list int)) "message in the window lost" [ 1; 3 ] (List.rev !received);
  let c = Transport.totals transport in
  Alcotest.(check int) "cut counted" 1 c.Transport.cut

let test_retry_rides_out_partition () =
  let config =
    {
      Transport.default_config with
      policy =
        {
          Transport.retry = Some { Transport.timeout = 6.; backoff = 1.; max_attempts = 4; jitter = 0. };
          last_write_wins = false;
        };
    }
  in
  let engine, transport, a, b = two_endpoints ~config () in
  Transport.partition transport ~at:10. ~duration:10. ~group_a:[ a ] ~group_b:[ b ];
  let received = ref 0 in
  ignore
    (Engine.schedule engine ~at:15. (fun _ ->
         Transport.send transport ~src:a ~dst:b (fun () -> incr received)));
  Engine.run engine ();
  let c = Transport.totals transport in
  Alcotest.(check int) "delivered after the heal" 1 !received;
  Alcotest.(check bool) "first attempt was cut, then retried" true
    (c.Transport.cut >= 1 && c.Transport.retried >= 1)

(* Retry jitter: at jitter = 0 the retransmit schedule is exactly the
   analytic one (no randomness drawn); at jitter > 0 every wait stays in
   the [timeout * backoff^n * (1 ± jitter)] band and the schedule is
   seed-reproducible. *)
let jittered_delivery ~jitter ~seed =
  let config =
    {
      Transport.default_config with
      policy =
        {
          Transport.retry = Some { Transport.timeout = 10.; backoff = 1.; max_attempts = 10; jitter };
          last_write_wins = false;
        };
      seed;
    }
  in
  let engine, transport, a, b = two_endpoints ~config () in
  Transport.partition transport ~at:0. ~duration:40. ~group_a:[ a ] ~group_b:[ b ];
  let delivered_at = ref nan in
  Transport.send transport ~src:a ~dst:b (fun () -> delivered_at := Engine.now engine);
  Engine.run engine ();
  !delivered_at

let test_retry_jitter () =
  (* jitter = 0: attempts at 0/10/20/30 are cut, the one at 40 lands at
     41 (1 ms link) — bit-for-bit the pre-jitter schedule *)
  check_close "jitter 0 is the analytic schedule" 41. (jittered_delivery ~jitter:0. ~seed:5);
  (* jitter = 0.4: waits are uniform in [6, 14], so the healing
     retransmit fires in [40, 40 + 14) and delivers within 1 ms *)
  List.iter
    (fun seed ->
      let at = jittered_delivery ~jitter:0.4 ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d delivery %g inside the jitter band" seed at)
        true
        (at >= 41. && at < 55.);
      check_close "seed-reproducible" at (jittered_delivery ~jitter:0.4 ~seed))
    [ 1; 2; 3; 4; 5 ]

let test_retry_jitter_validation () =
  List.iter
    (fun jitter ->
      let config =
        {
          Transport.default_config with
          policy =
            {
              Transport.retry = Some { Transport.timeout = 5.; backoff = 2.; max_attempts = 3; jitter };
              last_write_wins = false;
            };
        }
      in
      try
        ignore (Transport.create ~config (Engine.create ()));
        Alcotest.failf "jitter %g accepted" jitter
      with Invalid_argument _ -> ())
    [ -0.1; 1.0; 1.5; nan ]

let test_outage_and_restart_hook () =
  let engine, transport, a, b = two_endpoints () in
  let restarted = ref false in
  Transport.on_restart transport b (fun () -> restarted := true);
  Transport.schedule_outage transport b ~at:10. ~duration:10.;
  let received = ref [] in
  let send_at t i =
    ignore
      (Engine.schedule engine ~at:t (fun _ ->
           Transport.send transport ~src:a ~dst:b (fun () -> received := i :: !received)))
  in
  send_at 5. 1;
  send_at 12. 2;
  (* arrives at 13 while b is down *)
  send_at 22. 3;
  Engine.run engine ();
  Alcotest.(check (list int)) "message to the down endpoint lost" [ 1; 3 ] (List.rev !received);
  Alcotest.(check bool) "restart hook ran" true !restarted;
  Alcotest.(check int) "one outage" 1 (Transport.outages transport b);
  let c = Transport.totals transport in
  Alcotest.(check int) "lost to down endpoint" 1 c.Transport.lost_down

let chaotic_config seed =
  {
    Transport.default_config with
    delay = Delay_model.jittered ~base:2. ~jitter:0.75;
    faults =
      { Transport.drop = 0.2; duplicate = 0.1; reorder = 0.3; reorder_spread = 10. };
    seed;
  }

let delivery_trace seed =
  let engine, transport, a, b = two_endpoints ~config:(chaotic_config seed) () in
  let trace = ref [] in
  for i = 1 to 100 do
    ignore
      (Engine.schedule engine ~at:(float_of_int i) (fun _ ->
           Transport.send transport ~key:0 ~src:a ~dst:b (fun () ->
               trace := (i, Engine.now engine) :: !trace)))
  done;
  Engine.run engine ();
  List.rev !trace

let test_seeded_determinism () =
  let t1 = delivery_trace 42 and t2 = delivery_trace 42 in
  Alcotest.(check bool) "same seed, identical delivery trace" true (t1 = t2);
  let t3 = delivery_trace 43 in
  Alcotest.(check bool) "different seed, different trace" true (t1 <> t3)

(* ------------------------------------------------------------------ *)
(* Channel and last-write-wins tables against a plain model            *)
(* ------------------------------------------------------------------ *)

(* Random traffic under drop, duplicate and reorder, with endpoints
   registered in bursts while messages are in flight and keys spread up
   to 10^5, as [Distributed] keys latencies by subtask index. Half the
   sends leave from three hub endpoints, so one source reaches many
   destinations. The model replays the same traffic through a second
   transport with last-write-wins off: the same config and seed draw the
   same fates and delays, so it hands over every arrival in the same
   order, and a plain (src, dst, key) table decides which arrivals the
   transport under test must apply and which it must count stale. *)
type traffic_op = Register of int | Send of int * int * int | Advance of float

let print_traffic_op = function
  | Register n -> Printf.sprintf "Register %d" n
  | Send (s, d, k) -> Printf.sprintf "Send(%d->%d, key %d)" s d k
  | Advance d -> Printf.sprintf "Advance %g" d

let arb_traffic =
  let open QCheck.Gen in
  let key = oneof [ int_bound 7; int_range 99_990 100_000; int_bound 100_000 ] in
  let op =
    frequency
      [
        (1, map (fun n -> Register n) (1 -- 8));
        (8, map3 (fun s d k -> Send (s, d, k)) (oneof [ int_bound 2; nat ]) nat key);
        (2, map (fun d -> Advance d) (float_bound_inclusive 8.));
      ]
  in
  QCheck.make
    ~print:(fun (seed, ops) ->
      Printf.sprintf "seed %d: %s" seed (String.concat "; " (List.map print_traffic_op ops)))
    QCheck.Gen.(pair small_nat (list_size (20 -- 200) op))

let prop_tables_match_model =
  QCheck.Test.make ~count:100 ~name:"transport: channel and lww tables match a plain model"
    arb_traffic (fun (seed, ops) ->
      let config lww =
        {
          Transport.default_config with
          delay = Delay_model.jittered ~base:1. ~jitter:0.5;
          faults = { Transport.drop = 0.1; duplicate = 0.2; reorder = 0.3; reorder_spread = 5. };
          policy = { Transport.retry = None; last_write_wins = lww };
          seed;
        }
      in
      let engine = Engine.create () and plain_engine = Engine.create () in
      let tr = Transport.create ~config:(config true) engine in
      let plain = Transport.create ~config:(config false) plain_engine in
      let eps = ref [||] in
      let register () =
        let name = Printf.sprintf "e%d" (Array.length !eps) in
        eps := Array.append !eps [| (Transport.endpoint tr ~name, Transport.endpoint plain ~name) |]
      in
      register ();
      register ();
      (* the model: sends and fates per (src, dst), newest applied seq per
         (src, dst, key) *)
      let sends = Hashtbl.create 64 and delivered = Hashtbl.create 64 in
      let stale = Hashtbl.create 64 and newest = Hashtbl.create 64 in
      let count tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
      let bump tbl k = Hashtbl.replace tbl k (count tbl k + 1) in
      let applied = ref [] and model_applied = ref [] and n_sent = ref 0 in
      let send s d key =
        let n = Array.length !eps in
        let s = s mod n and d = d mod n in
        let id = !n_sent and seq = count sends (s, d) in
        incr n_sent;
        bump sends (s, d);
        Transport.send ~key tr ~src:(fst !eps.(s)) ~dst:(fst !eps.(d)) (fun () ->
            applied := id :: !applied);
        Transport.send ~key plain ~src:(snd !eps.(s)) ~dst:(snd !eps.(d)) (fun () ->
            match Hashtbl.find_opt newest (s, d, key) with
            | Some n when n >= seq -> bump stale (s, d)
            | _ ->
              Hashtbl.replace newest (s, d, key) seq;
              bump delivered (s, d);
              model_applied := id :: !model_applied)
      in
      List.iter
        (function
          | Register n ->
            for _ = 1 to n do
              register ()
            done
          | Send (s, d, key) -> send s d key
          | Advance dt ->
            Engine.run_until engine (Engine.now engine +. dt);
            Engine.run_until plain_engine (Engine.now plain_engine +. dt))
        ops;
      Engine.run engine ();
      Engine.run plain_engine ();
      (* drops and copies come from the plain transport's identical draws *)
      let model_counters (s, d) =
        if not (Hashtbl.mem sends (s, d)) then Transport.zero_counters
        else
          {
            (Transport.channel_counters plain ~src:(snd !eps.(s)) ~dst:(snd !eps.(d))) with
            Transport.sent = count sends (s, d);
            delivered = count delivered (s, d);
            stale = count stale (s, d);
          }
      in
      let expected =
        List.map
          (fun (s, d) -> (Printf.sprintf "e%d" s, Printf.sprintf "e%d" d, model_counters (s, d)))
          (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) sends []))
      in
      let actual =
        List.map
          (fun (src, dst, c) -> (Transport.endpoint_name src, Transport.endpoint_name dst, c))
          (Transport.channels tr)
      in
      let sum f = List.fold_left (fun acc (_, _, c) -> acc + f c) 0 expected in
      let totals = Transport.totals tr and plain_totals = Transport.totals plain in
      let n = Array.length !eps in
      !applied = !model_applied
      && actual = expected
      && totals.Transport.sent = !n_sent
      && totals.Transport.delivered = sum (fun c -> c.Transport.delivered)
      && totals.Transport.stale = sum (fun c -> c.Transport.stale)
      && totals.Transport.dropped = plain_totals.Transport.dropped
      && totals.Transport.duplicated = plain_totals.Transport.duplicated
      && plain_totals.Transport.stale = 0
      && List.for_all
           (fun s ->
             List.for_all
               (fun d ->
                 Transport.channel_counters tr ~src:(fst !eps.(s)) ~dst:(fst !eps.(d))
                 = model_counters (s, d))
               [ 0; s; n - 1 ])
           (List.init n Fun.id))

(* ------------------------------------------------------------------ *)
(* Distributed deployment over the transport                           *)
(* ------------------------------------------------------------------ *)

let run_distributed ?tconfig ?(horizon = 120_000.) ?prepare () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Engine.create () in
  let transport =
    Option.map (fun config -> Transport.create ~config engine) tconfig
  in
  let d = Distributed.create ?transport engine workload in
  Option.iter (fun f -> f workload d) prepare;
  Distributed.run d ~duration:horizon;
  (workload, d)

let final_state workload d =
  ( Distributed.utility d,
    List.map
      (fun (s : Subtask.t) -> Distributed.latency d s.id)
      (Workload.subtasks workload) )

let test_zero_fault_transport_equals_legacy_path () =
  (* The implicit transport built from config.message_delay and an explicit
     zero-fault constant-delay transport must produce bit-for-bit the same
     trajectory. *)
  let _, d_legacy = run_distributed ~horizon:60_000. () in
  let _, d_transport =
    run_distributed ~tconfig:Transport.default_config ~horizon:60_000. ()
  in
  let workload = Lla_workloads.Paper_sim.base () in
  let u1, lats1 = final_state workload d_legacy in
  let u2, lats2 = final_state workload d_transport in
  Alcotest.(check bool) "identical utility" true (Float.equal u1 u2);
  Alcotest.(check bool) "identical latency vector" true
    (List.for_all2 Float.equal lats1 lats2);
  Alcotest.(check int) "identical message count" (Distributed.messages_sent d_legacy)
    (Distributed.messages_sent d_transport)

let lossy_config seed =
  {
    Transport.default_config with
    delay = Delay_model.jittered ~base:1. ~jitter:0.5;
    faults = { Transport.no_faults with drop = 0.1 };
    seed;
  }

let test_distributed_chaos_deterministic () =
  let workload = Lla_workloads.Paper_sim.base () in
  let state seed =
    let _, d = run_distributed ~tconfig:(lossy_config seed) ~horizon:30_000. () in
    final_state workload d
  in
  let u1, lats1 = state 7 and u2, lats2 = state 7 in
  Alcotest.(check bool) "same seed, identical final utility" true (Float.equal u1 u2);
  Alcotest.(check bool) "same seed, identical latencies" true
    (List.for_all2 Float.equal lats1 lats2)

let test_converges_under_ten_percent_loss () =
  (* The acceptance bound: 10% message loss and +/-50% delay jitter keep
     the aggregate utility within 5% of the fault-free run. *)
  let workload, d_ref = run_distributed ~tconfig:Transport.default_config () in
  let reference, _ = final_state workload d_ref in
  let _, d = run_distributed ~tconfig:(lossy_config 42) () in
  let lossy = Distributed.utility d in
  let gap = Float.abs (lossy -. reference) /. Float.abs reference in
  Alcotest.(check bool)
    (Printf.sprintf "within 5%% of fault-free (%.2f vs %.2f, gap %.2f%%)" lossy reference
       (100. *. gap))
    true (gap < 0.05);
  let c = Transport.totals (Distributed.transport d) in
  Alcotest.(check bool) "loss actually happened" true
    (c.Transport.dropped > c.Transport.sent / 20)

let test_partition_heal_recovery () =
  (* Cut three price agents off from every controller mid-run (crashing
     them for the duration); after the heal the deployment must re-converge
     to the fault-free utility. *)
  let workload, d_ref = run_distributed ~tconfig:Transport.default_config () in
  let reference, _ = final_state workload d_ref in
  let partitioned_resources w =
    List.filteri (fun i _ -> i < 3) w.Workload.resources
    |> List.map (fun (r : Resource.t) -> r.Resource.id)
  in
  let _, d =
    run_distributed ~tconfig:Transport.default_config
      ~prepare:(fun w d ->
        let transport = Distributed.transport d in
        let agents = List.map (Distributed.agent_endpoint d) (partitioned_resources w) in
        let controllers =
          List.map (fun (t : Task.t) -> Distributed.controller_endpoint d t.Task.id) w.Workload.tasks
        in
        Transport.partition transport ~at:40_000. ~duration:40_000. ~group_a:agents
          ~group_b:controllers;
        List.iter
          (fun e -> Transport.schedule_outage transport e ~at:40_000. ~duration:40_000.)
          agents)
      ()
  in
  let final = Distributed.utility d in
  let gap = Float.abs (final -. reference) /. Float.abs reference in
  Alcotest.(check bool)
    (Printf.sprintf "recovered after heal (%.2f vs %.2f, gap %.2f%%)" final reference
       (100. *. gap))
    true (gap < 0.05);
  let c = Transport.totals (Distributed.transport d) in
  Alcotest.(check bool) "partition cut traffic" true (c.Transport.cut > 1000);
  let transport = Distributed.transport d in
  let outages =
    List.fold_left
      (fun acc rid -> acc + Transport.outages transport (Distributed.agent_endpoint d rid))
      0
      (partitioned_resources workload)
  in
  Alcotest.(check int) "each partitioned agent crashed once" 3 outages

let test_agent_crash_restart_reconverges () =
  let workload, d_ref = run_distributed ~tconfig:Transport.default_config () in
  let reference, _ = final_state workload d_ref in
  let _, d =
    run_distributed ~tconfig:Transport.default_config
      ~prepare:(fun w d ->
        let rid = (List.hd w.Workload.resources).Resource.id in
        Transport.schedule_outage (Distributed.transport d) (Distributed.agent_endpoint d rid)
          ~at:30_000. ~duration:10_000.)
      ()
  in
  let final = Distributed.utility d in
  let gap = Float.abs (final -. reference) /. Float.abs reference in
  Alcotest.(check bool)
    (Printf.sprintf "price state rebuilt after restart (gap %.2f%%)" (100. *. gap))
    true (gap < 0.05)

let test_stop_cancels_periodic_ticks () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Engine.create () in
  let d = Distributed.create engine workload in
  Distributed.run d ~duration:5_000.;
  Alcotest.(check bool) "ticks keep the engine busy" true (Engine.pending engine > 0);
  Distributed.stop d;
  let rounds_at_stop = Distributed.price_rounds d in
  (* Without stop this would never terminate: the periodic loops reschedule
     forever. After stop only in-flight messages remain. *)
  Engine.run engine ();
  Alcotest.(check int) "engine drained" 0 (Engine.pending engine);
  Alcotest.(check int) "no rounds after stop" rounds_at_stop (Distributed.price_rounds d)

let test_chaos_experiment_smoke () =
  (* The CLI-facing harness end to end, on a reduced budget. *)
  let r = Lla_experiments.Chaos.run ~seed:1 ~horizon:30_000. ~drops:[ 0.1 ] ~jitters:[ 0.5 ] () in
  (match r.Lla_experiments.Chaos.drop_points with
  | [ p ] ->
    Alcotest.(check bool) "drop point within 5%" true
      (p.Lla_experiments.Chaos.utility_gap_percent < 5.)
  | _ -> Alcotest.fail "expected one drop point");
  Alcotest.(check bool) "partition run recovered" true
    (r.Lla_experiments.Chaos.partition.Lla_experiments.Chaos.final_gap_percent < 5.);
  Alcotest.(check bool) "report renders" true
    (String.length (Lla_experiments.Chaos.report r) > 400)

let () =
  Alcotest.run "lla_transport"
    [
      ( "channel",
        [
          Alcotest.test_case "constant delay, in order" `Quick test_constant_delivery_in_order;
          Alcotest.test_case "drop everything" `Quick test_drop_everything;
          Alcotest.test_case "duplicates without lww" `Quick test_duplicates_without_lww;
          Alcotest.test_case "lww discards duplicates" `Quick test_lww_discards_duplicates;
          Alcotest.test_case "reordering + lww monotonicity" `Quick
            test_reordering_and_lww_monotonicity;
          Alcotest.test_case "retry recovers losses" `Quick test_retry_recovers_losses;
          Alcotest.test_case "partition cuts and heals" `Quick test_partition_cuts_and_heals;
          Alcotest.test_case "retry rides out a partition" `Quick test_retry_rides_out_partition;
          Alcotest.test_case "retry jitter band and zero-jitter schedule" `Quick test_retry_jitter;
          Alcotest.test_case "retry jitter validation" `Quick test_retry_jitter_validation;
          Alcotest.test_case "outage and restart hook" `Quick test_outage_and_restart_hook;
          Alcotest.test_case "seeded determinism" `Quick test_seeded_determinism;
          QCheck_alcotest.to_alcotest prop_tables_match_model;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "zero-fault transport = legacy path" `Slow
            test_zero_fault_transport_equals_legacy_path;
          Alcotest.test_case "chaos runs are deterministic" `Slow
            test_distributed_chaos_deterministic;
          Alcotest.test_case "converges under 10% loss" `Slow test_converges_under_ten_percent_loss;
          Alcotest.test_case "partition + heal recovery" `Slow test_partition_heal_recovery;
          Alcotest.test_case "agent crash/restart reconverges" `Slow
            test_agent_crash_restart_reconverges;
          Alcotest.test_case "stop cancels periodic ticks" `Quick test_stop_cancels_periodic_ticks;
          Alcotest.test_case "chaos experiment smoke" `Slow test_chaos_experiment_smoke;
        ] );
    ]
