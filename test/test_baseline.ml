(* Tests for the deadline-slicing baselines and the centralized reference
   optimizer. *)

open Lla_model

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

let base_workload () = Lla_workloads.Paper_sim.base ()

(* A chain with known WCETs for hand-checked slicing. *)
let chain_workload () =
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:2. () in
  let b = Subtask.make ~id:2 ~task:tid ~resource:1 ~exec_time:6. () in
  let c = Subtask.make ~id:3 ~task:tid ~resource:2 ~exec_time:2. () in
  let task =
    Task.make_exn ~id:1 ~subtasks:[ a; b; c ]
      ~graph:(Graph.chain [ a.Subtask.id; b.Subtask.id; c.Subtask.id ])
      ~critical_time:30.
      ~utility:(Utility.linear ~k:2. ~critical_time:30.)
      ~trigger:(Trigger.periodic ~period:100. ())
      ()
  in
  Workload.make_exn ~tasks:[ task ] ~resources:(List.init 3 (fun i -> Resource.make i))

let test_equal_slice_values () =
  let w = chain_workload () in
  let assign = Lla_baseline.Slicing.get `Equal w in
  (* C / path length = 30 / 3 = 10 per subtask. *)
  List.iter (fun i -> check_close "even slice" 10. (assign (Ids.Subtask_id.make i))) [ 1; 2; 3 ]

let test_proportional_slice_values () =
  let w = chain_workload () in
  let assign = Lla_baseline.Slicing.proportional_slice w in
  (* Scale = 30 / (2 + 6 + 2) = 3. *)
  check_close "2 * 3" 6. (assign (Ids.Subtask_id.make 1));
  check_close "6 * 3" 18. (assign (Ids.Subtask_id.make 2));
  check_close "2 * 3" 6. (assign (Ids.Subtask_id.make 3))

let test_laxity_slice_values () =
  let w = chain_workload () in
  let assign = Lla_baseline.Slicing.get `Laxity w in
  (* Laxity = 30 - 10 = 20, over 3 stages -> c_s + 20/3. *)
  check_close ~eps:1e-9 "a" (2. +. (20. /. 3.)) (assign (Ids.Subtask_id.make 1));
  check_close ~eps:1e-9 "b" (6. +. (20. /. 3.)) (assign (Ids.Subtask_id.make 2))

let test_slicing_meets_deadlines_everywhere () =
  List.iter
    (fun workload ->
      List.iter
        (fun kind ->
          let assign = Lla_baseline.Slicing.get kind workload in
          Alcotest.(check bool)
            (Lla_baseline.Slicing.name_of kind ^ " meets deadlines")
            true
            (Lla_baseline.Slicing.respects_deadlines workload assign))
        [ `Equal; `Proportional; `Laxity ])
    [ base_workload (); chain_workload (); Lla_workloads.Prototype.workload () ]

let test_lla_beats_slicing_on_feasible_assignments () =
  (* On the paper workload LLA's utility must beat every slicing heuristic
     (they ignore prices, so they misallocate tight resources). *)
  let workload = base_workload () in
  let solver = Lla.Solver.create workload in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:3000);
  let lla_utility = Lla.Solver.utility solver in
  List.iter
    (fun kind ->
      let assign = Lla_baseline.Slicing.get kind workload in
      let utility = Lla_baseline.Slicing.utility workload assign in
      Alcotest.(check bool)
        (Printf.sprintf "LLA %.2f >= %s %.2f" lla_utility (Lla_baseline.Slicing.name_of kind)
           utility)
        true (lla_utility >= utility -. 1e-6))
    [ `Equal; `Proportional; `Laxity ]

let test_slicing_may_violate_resources () =
  (* On the tightly-provisioned paper workload the equal slice ignores
     resource capacities and oversubscribes at least one resource — the
     motivating failure of price-free heuristics. *)
  let workload = base_workload () in
  let assign = Lla_baseline.Slicing.get `Equal workload in
  Alcotest.(check bool) "equal slicing oversubscribes" false
    (Lla_baseline.Slicing.respects_resources workload assign)

let prop_slicing_deadline_safe =
  QCheck.Test.make ~name:"slicing: every heuristic meets deadlines on random workloads" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let workload = Lla_workloads.Random_gen.generate ~seed () in
      List.for_all
        (fun kind ->
          Lla_baseline.Slicing.respects_deadlines workload
            (Lla_baseline.Slicing.get kind workload))
        [ `Equal; `Proportional; `Laxity ])

let test_centralized_reference_quality () =
  let workload = base_workload () in
  let result = Lla_baseline.Centralized.solve ~iterations:20000 workload in
  Alcotest.(check bool)
    (Printf.sprintf "KKT residual small (%.4f)" result.Lla_baseline.Centralized.kkt_worst)
    true
    (result.Lla_baseline.Centralized.kkt_worst < 0.08);
  (* All latencies defined and positive. *)
  List.iter
    (fun (s : Subtask.t) ->
      Alcotest.(check bool) "latency positive" true
        (Lla_baseline.Centralized.assignment result s.id > 0.))
    (Workload.subtasks workload)

let test_centralized_unknown_subtask () =
  let result = Lla_baseline.Centralized.solve ~iterations:100 (chain_workload ()) in
  Alcotest.(check bool) "unknown subtask raises" true
    (try
       ignore (Lla_baseline.Centralized.assignment result (Ids.Subtask_id.make 999));
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "lla_baseline"
    [
      ( "slicing",
        [
          Alcotest.test_case "equal slice values" `Quick test_equal_slice_values;
          Alcotest.test_case "proportional slice values" `Quick test_proportional_slice_values;
          Alcotest.test_case "laxity slice values" `Quick test_laxity_slice_values;
          Alcotest.test_case "deadline-safe by construction" `Quick
            test_slicing_meets_deadlines_everywhere;
          Alcotest.test_case "LLA dominates heuristics" `Slow
            test_lla_beats_slicing_on_feasible_assignments;
          Alcotest.test_case "heuristics can violate resources" `Quick
            test_slicing_may_violate_resources;
          QCheck_alcotest.to_alcotest prop_slicing_deadline_safe;
        ] );
      ( "centralized",
        [
          Alcotest.test_case "reference quality" `Slow test_centralized_reference_quality;
          Alcotest.test_case "unknown subtask" `Quick test_centralized_unknown_subtask;
        ] );
    ]
