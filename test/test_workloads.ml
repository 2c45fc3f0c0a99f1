(* Tests for the paper workloads and the random generator. *)

open Lla_model

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

(* ------------------------------------------------------------------ *)
(* Paper simulation workload                                           *)
(* ------------------------------------------------------------------ *)

let test_base_structure () =
  let w = Lla_workloads.Paper_sim.base () in
  Alcotest.(check int) "3 tasks" 3 (List.length w.Workload.tasks);
  Alcotest.(check int) "21 subtasks" 21 (List.length (Workload.subtasks w));
  Alcotest.(check int) "8 resources" 8 (List.length w.Workload.resources);
  let by_name name = List.find (fun (t : Task.t) -> t.Task.name = name) w.Workload.tasks in
  Alcotest.(check int) "task1 has 7 subtasks" 7 (List.length (by_name "task1").Task.subtasks);
  Alcotest.(check int) "task2 has 8 subtasks" 8 (List.length (by_name "task2").Task.subtasks);
  Alcotest.(check int) "task3 has 6 subtasks" 6 (List.length (by_name "task3").Task.subtasks);
  check_close "task1 C" 45. (by_name "task1").Task.critical_time;
  check_close "task2 C" 76. (by_name "task2").Task.critical_time;
  check_close "task3 C" 53. (by_name "task3").Task.critical_time

let test_base_graph_shapes () =
  let w = Lla_workloads.Paper_sim.base () in
  let by_name name = List.find (fun (t : Task.t) -> t.Task.name = name) w.Workload.tasks in
  let paths name = Task.n_paths (by_name name) in
  Alcotest.(check int) "task1 fan-out: 5 paths" 5 (paths "task1");
  Alcotest.(check int) "task2 aggregation: 2 paths" 2 (paths "task2");
  Alcotest.(check int) "task3 chain: 1 path" 1 (paths "task3")

let test_reported_solution_feasible () =
  (* Table 1's reported latencies must satisfy the derived availabilities
     (we set B_r = their share sums) and the critical times. *)
  let w = Lla_workloads.Paper_sim.base () in
  let reported name =
    let prefix = String.sub name 0 3 in
    List.assoc prefix Lla_workloads.Paper_sim.reported_latencies
  in
  let latency sid =
    let s = Workload.subtask w sid in
    reported s.Subtask.name
  in
  let violations = Workload.constraint_violations w ~latency ~tolerance:0.01 in
  Alcotest.(check (list string)) "reported optimum is feasible" [] violations

let test_reported_critical_paths_consistent () =
  (* The reverse-engineered graphs must realize the reported critical-path
     values exactly (this pinned the DAG shapes; see DESIGN.md). *)
  let w = Lla_workloads.Paper_sim.base () in
  let latency sid =
    let s = Workload.subtask w sid in
    List.assoc (String.sub s.Subtask.name 0 3) Lla_workloads.Paper_sim.reported_latencies
  in
  List.iter
    (fun (t : Task.t) ->
      let _, cost = Task.critical_path t ~latency in
      let expected = List.assoc t.Task.name Lla_workloads.Paper_sim.reported_critical_paths in
      check_close ~eps:0.06 (t.Task.name ^ " critical path") expected cost)
    w.Workload.tasks

let test_scaled_duplicates () =
  let w = Lla_workloads.Paper_sim.scaled ~copies:2 () in
  Alcotest.(check int) "6 tasks" 6 (List.length w.Workload.tasks);
  Alcotest.(check int) "42 subtasks" 42 (List.length (Workload.subtasks w));
  (* Critical times over-provisioned by 1.25 * copies by default. *)
  let t1 = List.find (fun (t : Task.t) -> t.Task.name = "task1") w.Workload.tasks in
  check_close "scaled critical time" (45. *. 2.5) t1.Task.critical_time;
  (* The copy shares the resource mapping of the original. *)
  let copy = List.find (fun (t : Task.t) -> t.Task.name = "task1.copy1") w.Workload.tasks in
  let resources_of (t : Task.t) =
    List.map (fun (s : Subtask.t) -> Ids.Resource_id.to_int s.resource) t.Task.subtasks
  in
  Alcotest.(check (list int)) "same mapping" (resources_of t1) (resources_of copy)

let test_unschedulable_six_keeps_critical_times () =
  let w = Lla_workloads.Paper_sim.unschedulable_six () in
  Alcotest.(check int) "6 tasks" 6 (List.length w.Workload.tasks);
  List.iter
    (fun (t : Task.t) ->
      let base_name =
        match String.index_opt t.Task.name '.' with
        | Some i -> String.sub t.Task.name 0 i
        | None -> t.Task.name
      in
      let expected = List.assoc base_name Lla_workloads.Paper_sim.critical_times in
      check_close "original C" expected t.Task.critical_time)
    w.Workload.tasks

let test_availabilities_match_reported_shares () =
  (* B_r must equal the share sums implied by Table 1 (lag 0). *)
  let sums = Array.make 8 0. in
  let w = Lla_workloads.Paper_sim.base () in
  List.iter
    (fun (s : Subtask.t) ->
      let lat = List.assoc (String.sub s.Subtask.name 0 3) Lla_workloads.Paper_sim.reported_latencies in
      sums.(Ids.Resource_id.to_int s.resource) <-
        sums.(Ids.Resource_id.to_int s.resource) +. (s.exec_time /. lat))
    (Workload.subtasks w);
  List.iteri
    (fun i (r : Resource.t) -> check_close ~eps:1e-9 (Printf.sprintf "B_r%d" i) sums.(i) r.availability)
    w.Workload.resources

(* ------------------------------------------------------------------ *)
(* Prototype workload                                                  *)
(* ------------------------------------------------------------------ *)

let test_prototype_structure () =
  let w = Lla_workloads.Prototype.workload () in
  Alcotest.(check int) "4 tasks" 4 (List.length w.Workload.tasks);
  Alcotest.(check int) "3 resources" 3 (List.length w.Workload.resources);
  List.iter
    (fun (r : Resource.t) ->
      check_close "availability 0.9 (GC reservation)" 0.9 r.availability;
      check_close "5 ms lag" 5. r.lag;
      Alcotest.(check int) "4 subtasks per CPU" 4 (List.length (Workload.subtasks_on w r.id)))
    w.Workload.resources

let test_prototype_min_shares () =
  let w = Lla_workloads.Prototype.workload () in
  check_close "fast floor" 0.2 Lla_workloads.Prototype.fast_min_share;
  check_close "slow floor" 0.13 Lla_workloads.Prototype.slow_min_share;
  List.iter
    (fun tid ->
      List.iter
        (fun sid -> check_close "fast subtask min share" 0.2 (Workload.min_share w sid))
        (Task.subtask_ids (Workload.task w tid)))
    Lla_workloads.Prototype.fast_task_ids;
  (* 66% utilization per CPU as computed in §6.2. *)
  List.iter
    (fun (r : Resource.t) -> check_close "utilization 0.66" 0.66 (Workload.utilization w r.id))
    w.Workload.resources

(* ------------------------------------------------------------------ *)
(* Random generator                                                    *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let a = Lla_workloads.Random_gen.generate ~seed:5 () in
  let b = Lla_workloads.Random_gen.generate ~seed:5 () in
  Alcotest.(check string) "same stats line" (Workload.stats a) (Workload.stats b);
  let lat (w : Workload.t) =
    List.map (fun (s : Subtask.t) -> s.exec_time) (Workload.subtasks w)
  in
  Alcotest.(check (list (float 0.))) "same exec times" (lat a) (lat b)

let prop_generator_valid_and_feasible =
  QCheck.Test.make ~name:"generator: workloads validate and admit a feasible assignment" ~count:25
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let w = Lla_workloads.Random_gen.generate ~seed () in
      (* Validation happened in make_exn; check capacity margins: at the
         witness latencies (unknown here) feasibility held, so the LLA
         lat_hi assignment must at least satisfy the resource constraints
         within the capacity margin. *)
      let distinct_resources_per_task =
        List.for_all
          (fun (t : Task.t) ->
            let rs = List.map (fun (s : Subtask.t) -> s.resource) t.Task.subtasks in
            List.length (List.sort_uniq compare rs) = List.length rs)
          w.Workload.tasks
      in
      let critical_times_positive =
        List.for_all (fun (t : Task.t) -> t.Task.critical_time > 0.) w.Workload.tasks
      in
      distinct_resources_per_task && critical_times_positive)

let prop_generator_unschedulable_shrinks =
  QCheck.Test.make ~name:"generator: make_unschedulable shrinks every critical time" ~count:20
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let w = Lla_workloads.Random_gen.generate ~seed () in
      let bad = Lla_workloads.Random_gen.make_unschedulable ~severity:2.5 ~seed w in
      List.for_all2
        (fun (a : Task.t) (b : Task.t) ->
          Float.abs ((a.Task.critical_time /. 2.5) -. b.Task.critical_time) < 1e-9)
        w.Workload.tasks bad.Workload.tasks)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lla_workloads"
    [
      ( "paper-sim",
        [
          Alcotest.test_case "base structure" `Quick test_base_structure;
          Alcotest.test_case "graph shapes from Table 1" `Quick test_base_graph_shapes;
          Alcotest.test_case "reported solution feasible" `Quick test_reported_solution_feasible;
          Alcotest.test_case "reported critical paths realized" `Quick
            test_reported_critical_paths_consistent;
          Alcotest.test_case "scaled duplicates" `Quick test_scaled_duplicates;
          Alcotest.test_case "unschedulable keeps critical times" `Quick
            test_unschedulable_six_keeps_critical_times;
          Alcotest.test_case "availabilities from Table 1" `Quick
            test_availabilities_match_reported_shares;
        ] );
      ( "prototype",
        [
          Alcotest.test_case "structure" `Quick test_prototype_structure;
          Alcotest.test_case "min shares and utilization (6.2)" `Quick test_prototype_min_shares;
        ] );
      ( "random-gen",
        [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic ]
        @ qcheck [ prop_generator_valid_and_feasible; prop_generator_unschedulable_shrinks ] );
    ]
