(* Invariant checking over recorded traces: replay the event streams of
   live distributed runs through the Invariant oracles (Eq. 3 resource
   budgets, Eq. 4 path critical-times, safe-mode causality), and pin the
   oracles themselves down on hand-built streams where the expected
   verdict is known by construction. *)

module Trace = Lla_obs.Trace
module Invariant = Lla_obs.Invariant
module Distributed = Lla_runtime.Distributed
module Transport = Lla_transport.Transport

let record seq at event = { Trace.seq; at; event }

let traced_run ?config ?resilience ~workload ~duration () =
  let obs = Lla_obs.create () in
  let sink, seen = Trace.memory_sink () in
  Trace.attach obs.Lla_obs.trace sink;
  let engine = Lla_sim.Engine.create () in
  let d = Distributed.create ?config ?resilience ~obs engine workload in
  Distributed.run d ~duration;
  Distributed.stop d;
  (d, seen ())

(* ------------------------------------------------------------------ *)
(* Live traces                                                         *)
(* ------------------------------------------------------------------ *)

let assert_no_violations what violations =
  match violations with
  | [] -> ()
  | v :: _ -> Alcotest.failf "%s, first: %a" what Invariant.pp_violation v

(* A healthy distributed run: the recorded price events in the settled
   suffix must show every resource within its budget and every path
   within its critical time. The asynchronous deployment works off
   stale latency announcements, so its instantaneous operands oscillate
   in a band around the constraint surface (measured peak ~8% late in
   this seed's run) — the oracle asserts the band, and that nothing
   non-finite or unbounded ever appears. *)
let test_healthy_run_obeys_constraints () =
  let _, records =
    traced_run ~workload:(Lla_workloads.Paper_sim.base ()) ~duration:10_000. ()
  in
  Alcotest.(check bool) "stream is monotone" true (Invariant.monotone records);
  Alcotest.(check bool) "trace is non-trivial" true (List.length records > 1000);
  assert_no_violations "constraint excursions beyond the settled band"
    (Invariant.check_constraints ~tolerance:0.10 ~from:8_000. records);
  Alcotest.(check bool) "no safe-mode events at all" true
    (List.for_all
       (fun (r : Trace.record) ->
         match r.Trace.event with Trace.Safe_mode_entered _ -> false | _ -> true)
       records)

(* The synchronous solver has no staleness, so its converged suffix must
   sit tightly on the constraint surface: past [converged_at] the
   recorded operands stay within a few percent (this seed peaks at 2.2%
   just after the convergence point and decays from there). *)
let test_converged_solver_trace_is_tight () =
  let obs = Lla_obs.create () in
  let sink, seen = Trace.memory_sink () in
  Trace.attach obs.Lla_obs.trace sink;
  let solver = Lla.Solver.create ~obs (Lla_workloads.Paper_sim.base ()) in
  match Lla.Solver.run_until_converged solver ~max_iterations:1_000 with
  | None -> Alcotest.fail "solver did not converge within 1000 iterations"
  | Some converged ->
    let records = seen () in
    Alcotest.(check bool) "stream is monotone" true (Invariant.monotone records);
    assert_no_violations "constraint violations after convergence"
      (Invariant.check_constraints ~tolerance:0.03 ~from:(float_of_int converged) records)

(* A forced divergence (huge fixed step on a tight workload): safe mode
   must engage, and the trace must show that every entry was caused by a
   watchdog trip — never spontaneous. *)
let test_divergent_run_safe_mode_causality () =
  let workload = Lla_workloads.Paper_sim.scaled ~copies:1 ~critical_time_factor:1.5 () in
  let config =
    { Distributed.default_config with Distributed.step_policy = Lla.Step_size.fixed 64. }
  in
  let resilience =
    {
      Distributed.default_resilience with
      Distributed.health = false;
      checkpoint_period = None;
    }
  in
  let d, records = traced_run ~config ~resilience ~workload ~duration:20_000. () in
  Alcotest.(check bool) "divergence tripped safe mode" true (Distributed.safe_entries d >= 1);
  let entries =
    List.length
      (List.filter
         (fun (r : Trace.record) ->
           match r.Trace.event with Trace.Safe_mode_entered _ -> true | _ -> false)
         records)
  in
  Alcotest.(check int) "every entry is in the trace" (Distributed.safe_entries d) entries;
  Alcotest.(check bool) "stream is monotone" true (Invariant.monotone records);
  Alcotest.(check bool) "every entry preceded by a watchdog trip" true
    (Invariant.safe_entries_preceded_by_trip records)

(* ------------------------------------------------------------------ *)
(* Oracles on hand-built streams                                       *)
(* ------------------------------------------------------------------ *)

let price ~share_sum ~capacity =
  Trace.Price_updated { resource = 0; mu = 1.; step = 1.; share_sum; capacity; congested = false }

let path ~latency ~critical_time =
  Trace.Path_price_updated { path = 0; lambda = 0.; step = 1.; latency; critical_time }

let test_check_constraints_flags_overruns () =
  let stream =
    [
      record 0 0. (price ~share_sum:1.2 ~capacity:1.0);  (* transient: exempt *)
      record 1 10. (price ~share_sum:0.99 ~capacity:1.0);
      record 2 20. (price ~share_sum:1.2 ~capacity:1.0);  (* Eq. 3 overrun *)
      record 3 30. (path ~latency:99. ~critical_time:100.);
      record 4 40. (path ~latency:107. ~critical_time:100.);  (* Eq. 4 overrun *)
      record 5 50. (price ~share_sum:1.04 ~capacity:1.0);  (* within 5% tolerance *)
    ]
  in
  let violations = Invariant.check_constraints ~tolerance:0.05 ~from:5. stream in
  Alcotest.(check (list int)) "exactly the two overruns, in order" [ 2; 4 ]
    (List.map (fun (v : Invariant.violation) -> v.Invariant.seq) violations);
  (* zero tolerance also catches the 4% overrun *)
  let strict = Invariant.check_constraints ~from:5. stream in
  Alcotest.(check (list int)) "strict tolerance" [ 2; 4; 5 ]
    (List.map (fun (v : Invariant.violation) -> v.Invariant.seq) strict)

let test_check_constraints_non_finite_always_violates () =
  let stream =
    [
      record 0 10. (price ~share_sum:Float.nan ~capacity:1.0);
      record 1 20. (path ~latency:Float.infinity ~critical_time:100.);
    ]
  in
  let violations = Invariant.check_constraints ~tolerance:1e9 ~from:0. stream in
  Alcotest.(check int) "both flagged regardless of tolerance" 2 (List.length violations)

let test_safe_mode_causality_oracle () =
  let trip = Trace.Watchdog_trip { reason = "r" } in
  let enter = Trace.Safe_mode_entered { reason = "r"; fallback = "f" } in
  let ok = [ record 0 0. trip; record 1 1. enter; record 2 2. Trace.Safe_mode_exited ] in
  Alcotest.(check bool) "trip then entry" true (Invariant.safe_entries_preceded_by_trip ok);
  Alcotest.(check bool) "vacuously true without entries" true
    (Invariant.safe_entries_preceded_by_trip [ record 0 0. trip ]);
  let spontaneous = [ record 0 0. enter ] in
  Alcotest.(check bool) "spontaneous entry" false
    (Invariant.safe_entries_preceded_by_trip spontaneous);
  let reused_trip =
    [ record 0 0. trip; record 1 1. enter; record 2 2. Trace.Safe_mode_exited; record 3 3. enter ]
  in
  Alcotest.(check bool) "a trip only licenses one entry" false
    (Invariant.safe_entries_preceded_by_trip reused_trip)

let test_monotone_oracle () =
  let e = Trace.Safe_mode_exited in
  Alcotest.(check bool) "well-formed" true
    (Invariant.monotone [ record 0 0. e; record 1 0. e; record 2 5. e ]);
  Alcotest.(check bool) "empty stream" true (Invariant.monotone []);
  Alcotest.(check bool) "time going backwards" false
    (Invariant.monotone [ record 0 5. e; record 1 4. e ]);
  Alcotest.(check bool) "repeated sequence number" false
    (Invariant.monotone [ record 0 0. e; record 0 1. e ])

let () =
  Alcotest.run "lla_invariants"
    [
      ( "live-traces",
        [
          Alcotest.test_case "healthy run obeys Eq. 3 and Eq. 4" `Slow
            test_healthy_run_obeys_constraints;
          Alcotest.test_case "converged solver trace is tight" `Slow
            test_converged_solver_trace_is_tight;
          Alcotest.test_case "forced divergence: safe-mode causality" `Slow
            test_divergent_run_safe_mode_causality;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "constraint overruns flagged" `Quick
            test_check_constraints_flags_overruns;
          Alcotest.test_case "non-finite always violates" `Quick
            test_check_constraints_non_finite_always_violates;
          Alcotest.test_case "safe-mode causality" `Quick test_safe_mode_causality_oracle;
          Alcotest.test_case "monotone well-formedness" `Quick test_monotone_oracle;
        ] );
    ]
