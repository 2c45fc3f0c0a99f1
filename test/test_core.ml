(* Tests for the LLA core: problem compilation, latency allocation, price
   updates, step sizes, solver convergence, KKT optimality, the
   schedulability probe and the online error corrector. *)

open Lla_model

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

let base_workload () = Lla_workloads.Paper_sim.base ()

(* A minimal 1-task / 2-resource workload with hand-checkable numbers. *)
let tiny_workload ?(availability = 0.5) ?(critical_time = 40.) () =
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:4. () in
  let b = Subtask.make ~id:2 ~task:tid ~resource:1 ~exec_time:6. () in
  let task =
    Task.make_exn ~id:1 ~subtasks:[ a; b ]
      ~graph:(Graph.chain [ a.Subtask.id; b.Subtask.id ])
      ~critical_time
      ~utility:(Utility.linear ~k:2. ~critical_time)
      ~trigger:(Trigger.periodic ~period:200. ())
      ()
  in
  Workload.make_exn ~tasks:[ task ]
    ~resources:[ Resource.make ~availability 0; Resource.make ~availability 1 ]

(* ------------------------------------------------------------------ *)
(* Problem compilation                                                 *)
(* ------------------------------------------------------------------ *)

let test_problem_dimensions () =
  let p = Lla.Problem.compile (base_workload ()) in
  Alcotest.(check int) "subtasks" 21 (Lla.Problem.n_subtasks p);
  Alcotest.(check int) "resources" 8 (Lla.Problem.n_resources p);
  Alcotest.(check int) "tasks" 3 (Lla.Problem.n_tasks p);
  (* task1 fan-out: 5 paths; task2 diamond: 2; task3 chain: 1 *)
  Alcotest.(check int) "paths" 8 (Lla.Problem.n_paths p)

let test_problem_indices_consistent () =
  let workload = base_workload () in
  let p = Lla.Problem.compile workload in
  Array.iteri
    (fun i (s : Lla.Problem.subtask) ->
      Alcotest.(check int) "subtask index roundtrip" i (Lla.Problem.subtask_index p s.sid);
      let model_subtask = Workload.subtask workload s.sid in
      check_close "exec copied" model_subtask.Subtask.exec_time s.exec;
      let owner = Workload.owner workload s.sid in
      Alcotest.(check int) "task index" s.task (Lla.Problem.task_index p owner.Task.id))
    p.Lla.Problem.subtasks

let test_problem_by_resource_partition () =
  let p = Lla.Problem.compile (base_workload ()) in
  let total = Array.fold_left (fun acc a -> acc + Array.length a) 0 p.Lla.Problem.by_resource in
  Alcotest.(check int) "every subtask on exactly one resource" (Lla.Problem.n_subtasks p) total;
  Array.iteri
    (fun r members ->
      Array.iter
        (fun i ->
          Alcotest.(check int) "membership consistent" r p.Lla.Problem.subtasks.(i).resource)
        members)
    p.Lla.Problem.by_resource

let test_problem_linear_slope_detection () =
  let p = Lla.Problem.compile (base_workload ()) in
  Array.iter
    (fun (t : Lla.Problem.task) ->
      match t.linear_slope with
      | Some slope -> check_close "paper utilities have slope -1" (-1.) slope
      | None -> Alcotest.fail "linear utility not detected")
    p.Lla.Problem.tasks;
  (* Non-linear utility must not be detected as linear. *)
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:1. () in
  let task =
    Task.make_exn ~id:1 ~subtasks:[ a ]
      ~graph:(Graph.chain [ a.Subtask.id ])
      ~critical_time:10.
      ~utility:(Utility.logarithmic ~k:2. ~critical_time:10. ())
      ~trigger:(Trigger.periodic ~period:100. ())
      ()
  in
  let w = Workload.make_exn ~tasks:[ task ] ~resources:[ Resource.make 0 ] in
  let p = Lla.Problem.compile w in
  Alcotest.(check bool) "log utility is not linear" true
    (p.Lla.Problem.tasks.(0).linear_slope = None)

let test_problem_weights_match_model () =
  let workload = base_workload () in
  let p = Lla.Problem.compile workload in
  Array.iter
    (fun (s : Lla.Problem.subtask) ->
      let owner = Workload.owner workload s.sid in
      check_close "weight" (Task.weight owner s.sid) s.weight)
    p.Lla.Problem.subtasks

let test_problem_paths_cover_subtasks () =
  let p = Lla.Problem.compile (base_workload ()) in
  Array.iteri
    (fun i (s : Lla.Problem.subtask) ->
      Alcotest.(check bool) "every subtask on >= 1 path" true (Array.length s.paths > 0);
      Array.iter
        (fun pi ->
          let path = p.Lla.Problem.paths.(pi) in
          Alcotest.(check bool) "path contains the subtask" true
            (Array.exists (Int.equal i) path.subtask_indices))
        s.paths)
    p.Lla.Problem.subtasks

let test_problem_share_sum_matches_workload () =
  let workload = base_workload () in
  let p = Lla.Problem.compile workload in
  let lat = Array.map (fun (s : Lla.Problem.subtask) -> s.lat_hi) p.Lla.Problem.subtasks in
  let offsets = Array.make (Lla.Problem.n_subtasks p) 0. in
  let latency sid = lat.(Lla.Problem.subtask_index p sid) in
  for r = 0 to Lla.Problem.n_resources p - 1 do
    let from_problem = Lla.Problem.share_sum p r ~lat ~offsets in
    let from_workload = Workload.share_sum workload p.Lla.Problem.resource_ids.(r) ~latency in
    check_close ~eps:1e-9 "share sums agree" from_workload from_problem
  done

(* ------------------------------------------------------------------ *)
(* Allocation                                                          *)
(* ------------------------------------------------------------------ *)

let test_allocation_closed_form_value () =
  (* Single subtask, known prices: lat = sqrt(mu * c / (w |f'| + lsum)). *)
  let w = tiny_workload () in
  let p = Lla.Problem.compile w in
  let mu = [| 16.; 25. |] in
  let lambda = Array.make (Lla.Problem.n_paths p) 0.5 in
  let offsets = Array.make 2 0. in
  let lat = Array.make 2 1. in
  Lla.Allocation.allocate p ~mu ~lambda ~offsets ~sweeps:1 ~lat;
  (* subtask a: c = 4, w = 1, |f'| = 1, lsum = 0.5 -> sqrt(16*4/1.5) *)
  check_close ~eps:1e-9 "subtask a" (sqrt (16. *. 4. /. 1.5)) lat.(0);
  check_close ~eps:1e-9 "subtask b" (sqrt (25. *. 6. /. 1.5)) lat.(1)

let test_allocation_clamps_to_bounds () =
  let w = tiny_workload ~critical_time:20. () in
  let p = Lla.Problem.compile w in
  let offsets = Array.make 2 0. in
  let lat = Array.make 2 1. in
  (* Huge price: latency would exceed the critical time; must clamp at C. *)
  Lla.Allocation.allocate p ~mu:[| 1e6; 1e6 |]
    ~lambda:(Array.make (Lla.Problem.n_paths p) 0.)
    ~offsets ~sweeps:1 ~lat;
  check_close "clamped to critical time" 20. lat.(0);
  (* Zero price: resource free, latency collapses to lat_lo = c + l. *)
  Lla.Allocation.allocate p ~mu:[| 0.; 0. |]
    ~lambda:(Array.make (Lla.Problem.n_paths p) 0.)
    ~offsets ~sweeps:1 ~lat;
  check_close "collapses to lat_lo" 4. lat.(0);
  check_close "collapses to lat_lo (b)" 6. lat.(1)

let test_allocation_general_matches_closed_form () =
  (* The general Gauss-Seidel path must agree with the closed form for a
     linear utility. Force the general path with a custom utility whose
     derivative is constant but not detected (two different df values at
     probes would break detection; instead compare closed-form task against
     a custom-built equivalent). *)
  let build utility =
    let tid = Ids.Task_id.make 1 in
    let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:4. () in
    let b = Subtask.make ~id:2 ~task:tid ~resource:1 ~exec_time:6. () in
    let task =
      Task.make_exn ~id:1 ~subtasks:[ a; b ]
        ~graph:(Graph.chain [ a.Subtask.id; b.Subtask.id ])
        ~critical_time:40. ~utility
        ~trigger:(Trigger.periodic ~period:200. ())
        ()
    in
    Workload.make_exn ~tasks:[ task ]
      ~resources:[ Resource.make ~availability:0.5 0; Resource.make ~availability:0.5 1 ]
  in
  (* An "almost linear" utility that defeats slope detection by an
     invisible wobble far below solver tolerance. *)
  let sneaky =
    Utility.custom ~name:"sneaky-linear"
      ~f:(fun x -> 80. -. x)
      ~df:(fun x -> -1. -. (1e-13 *. x))
  in
  let linear = build (Utility.linear ~k:2. ~critical_time:40.) in
  let general = build sneaky in
  let solve w =
    let p = Lla.Problem.compile w in
    let lat = Array.make 2 1. in
    Lla.Allocation.allocate p ~mu:[| 16.; 25. |]
      ~lambda:(Array.make (Lla.Problem.n_paths p) 0.5)
      ~offsets:(Array.make 2 0.) ~sweeps:3 ~lat;
    lat
  in
  let lat_closed = solve linear and lat_general = solve general in
  check_close ~eps:1e-6 "general matches closed form (a)" lat_closed.(0) lat_general.(0);
  check_close ~eps:1e-6 "general matches closed form (b)" lat_closed.(1) lat_general.(1)

let test_allocation_offset_shifts_latency () =
  let w = tiny_workload () in
  let p = Lla.Problem.compile w in
  let mu = [| 16.; 25. |] in
  let lambda = Array.make (Lla.Problem.n_paths p) 0.5 in
  let lat0 = Array.make 2 1. and lat1 = Array.make 2 1. in
  Lla.Allocation.allocate p ~mu ~lambda ~offsets:(Array.make 2 0.) ~sweeps:1 ~lat:lat0;
  Lla.Allocation.allocate p ~mu ~lambda ~offsets:[| -3.; 2. |] ~sweeps:1 ~lat:lat1;
  check_close ~eps:1e-9 "negative offset shifts down" (lat0.(0) -. 3.) lat1.(0);
  check_close ~eps:1e-9 "positive offset shifts up" (lat0.(1) +. 2.) lat1.(1)

let test_allocation_effective_bounds () =
  let w = tiny_workload () in
  let p = Lla.Problem.compile w in
  let lo0, hi0 = Lla.Allocation.effective_bounds p 0 ~offset:0. in
  check_close "lo = c" 4. lo0;
  check_close "hi = C (stability is looser)" 40. hi0;
  let lo_neg, _ = Lla.Allocation.effective_bounds p 0 ~offset:(-2.) in
  check_close "offset shifts lo" 2. lo_neg;
  let _, hi_pos = Lla.Allocation.effective_bounds p 0 ~offset:10. in
  (* Stability shifts with offset but the critical time caps hi. *)
  check_close "hi capped by critical time" 40. hi_pos;
  (* A pathological offset larger than the critical time still keeps the
     invariant lo <= hi. *)
  let lo_huge, hi_huge = Lla.Allocation.effective_bounds p 0 ~offset:1e9 in
  Alcotest.(check bool) "lo <= hi always" true (lo_huge <= hi_huge)

(* ------------------------------------------------------------------ *)
(* Price updates                                                       *)
(* ------------------------------------------------------------------ *)

let test_price_update_directions () =
  let w = tiny_workload ~availability:0.5 () in
  let p = Lla.Problem.compile w in
  let offsets = Array.make 2 0. in
  (* Low latencies -> shares over capacity -> mu must rise. *)
  let lat = [| 5.; 7.5 |] in
  (* shares: 4/5 = 0.8 and 6/7.5 = 0.8, both > 0.5 *)
  let mu = [| 1.; 1. |] in
  let used = Lla.Price_update.update_resource p 0 ~lat ~offsets ~gamma:1. ~mu in
  check_close "share observed" 0.8 used;
  check_close "mu rises by gamma * excess" 1.3 mu.(0);
  (* High latencies -> shares below capacity -> mu must fall (but not below 0). *)
  let lat = [| 40.; 40. |] in
  let used = Lla.Price_update.update_resource p 0 ~lat ~offsets ~gamma:1. ~mu in
  check_close "share low" 0.1 used;
  check_close "mu falls" 0.9 mu.(0);
  let mu = [| 0.05; 0. |] in
  ignore (Lla.Price_update.update_resource p 0 ~lat ~offsets ~gamma:1. ~mu);
  check_close "projection at zero" 0. mu.(0);
  (* The per-resource step alone: same rule, no guards. *)
  check_close "resource_step rises" 1.3
    (Lla.Price_update.resource_step ~mu:1. ~gamma:1. ~capacity:0.5 ~used:0.8);
  check_close "resource_step projects" 0.
    (Lla.Price_update.resource_step ~mu:0.05 ~gamma:1. ~capacity:0.5 ~used:0.1)

let test_path_price_directions () =
  let w = tiny_workload ~critical_time:40. () in
  let p = Lla.Problem.compile w in
  let lambda = [| 1. |] in
  (* Path latency 50 > C = 40: lambda rises by gamma * (50/40 - 1). *)
  let latency = Lla.Price_update.update_path p 0 ~lat:[| 25.; 25. |] ~gamma:1. ~lambda in
  check_close "latency observed" 50. latency;
  check_close "lambda rises" 1.25 lambda.(0);
  (* Path latency 20 < C: lambda falls, projected at zero. *)
  let lambda = [| 0.1 |] in
  ignore (Lla.Price_update.update_path p 0 ~lat:[| 10.; 10. |] ~gamma:1. ~lambda);
  check_close "lambda projected" 0. lambda.(0);
  check_close "path_step rises" 1.25
    (Lla.Price_update.path_step ~lambda:1. ~gamma:1. ~latency:50. ~critical_time:40.);
  check_close "path_step projects" 0.
    (Lla.Price_update.path_step ~lambda:0.1 ~gamma:1. ~latency:20. ~critical_time:40.)

let test_price_update_congestion_flags () =
  let w = tiny_workload ~availability:0.5 ~critical_time:40. () in
  let p = Lla.Problem.compile w in
  let steps = Lla.Step_size.create p (Lla.Step_size.fixed 1.) in
  let mu = [| 1.; 1. |] and lambda = [| 0. |] in
  let congestion =
    Lla.Price_update.update p ~lat:[| 5.; 50. |] ~offsets:(Array.make 2 0.) ~steps ~mu ~lambda
  in
  Alcotest.(check bool) "r0 congested" true congestion.Lla.Price_update.resources.(0);
  Alcotest.(check bool) "r1 not congested" false congestion.Lla.Price_update.resources.(1);
  Alcotest.(check bool) "path over critical time" true congestion.Lla.Price_update.paths.(0)

let test_price_update_guards_nonfinite_lat () =
  (* A poisoned latency must never reach the multipliers: the share sum /
     path latency it produces is non-finite, the prices keep their last
     finite values, and every neutralized observation is counted. *)
  let w = tiny_workload ~availability:0.5 ~critical_time:40. () in
  let p = Lla.Problem.compile w in
  let steps = Lla.Step_size.create p (Lla.Step_size.fixed 1.) in
  let mu = [| 1.5; 2.5 |] and lambda = [| 0.75 |] in
  let congestion =
    Lla.Price_update.update p ~lat:[| Float.nan; 10. |] ~offsets:(Array.make 2 0.) ~steps ~mu
      ~lambda
  in
  check_close "guarded mu untouched" 1.5 mu.(0);
  Alcotest.(check bool) "other mu still updates" true (Float.is_finite mu.(1));
  Alcotest.(check bool) "lambda stays finite" true (Float.is_finite lambda.(0));
  check_close "guarded lambda untouched" 0.75 lambda.(0);
  Alcotest.(check bool)
    (Printf.sprintf "guards counted (%d)" congestion.Lla.Price_update.guards)
    true
    (congestion.Lla.Price_update.guards >= 2)

(* Safe-mode entry's heal rule: a non-finite price, or one above
   min mu_cap (1000 * max 1 mu0), goes back to mu0; any other is kept. *)
let test_heal_resource_price () =
  let heal = Lla.Price_update.heal_resource_price in
  let check what expect got = Alcotest.(check (float 0.)) what expect got in
  check "nan" 1. (heal ~mu_cap:1e6 ~mu0:1. Float.nan);
  check "+inf" 1. (heal ~mu_cap:1e6 ~mu0:1. Float.infinity);
  check "-inf" 1. (heal ~mu_cap:1e6 ~mu0:1. Float.neg_infinity);
  check "at the 1000 * mu0 cap" 1000. (heal ~mu_cap:1e6 ~mu0:1. 1000.);
  check "above the 1000 * mu0 cap" 1. (heal ~mu_cap:1e6 ~mu0:1. 1000.5);
  check "below the cap" 0.25 (heal ~mu_cap:1e6 ~mu0:1. 0.25);
  check "mu0 below 1 still caps at 1000" 999. (heal ~mu_cap:1e6 ~mu0:0.5 999.);
  check "mu0 below 1, above the cap" 0.5 (heal ~mu_cap:1e6 ~mu0:0.5 1001.);
  check "cap scales with mu0" 4000. (heal ~mu_cap:1e6 ~mu0:5. 4000.);
  check "above 1000 * mu0" 5. (heal ~mu_cap:1e6 ~mu0:5. 5001.);
  check "watchdog cap below 1000 * mu0" 1. (heal ~mu_cap:100. ~mu0:1. 150.);
  check "at the watchdog cap" 100. (heal ~mu_cap:100. ~mu0:1. 100.)

let test_price_update_heals_poisoned_mu () =
  (* An already non-finite multiplier is healed to 0 before the gradient
     step, so one poisoned price cannot stick forever. *)
  let w = tiny_workload ~availability:0.5 () in
  let p = Lla.Problem.compile w in
  let mu = [| Float.nan; 1. |] in
  let lat = [| 5.; 7.5 |] (* both shares 0.8 > B = 0.5: prices rise *) in
  ignore (Lla.Price_update.update_resource p 0 ~lat ~offsets:(Array.make 2 0.) ~gamma:1. ~mu);
  Alcotest.(check bool) "healed to finite" true (Float.is_finite mu.(0));
  check_close "healed from 0 then stepped" 0.3 mu.(0);
  let lambda = [| Float.infinity |] in
  ignore (Lla.Price_update.update_path p 0 ~lat:[| 25.; 25. |] ~gamma:1. ~lambda);
  Alcotest.(check bool) "lambda healed to finite" true (Float.is_finite lambda.(0))

let test_allocation_guards_nonfinite_mu () =
  (* NaN prices must not poison the enacted latencies: the previous finite
     latency is kept and the guard counter advances. *)
  let w = tiny_workload ~critical_time:500. () in
  let p = Lla.Problem.compile w in
  let lat = [| 9.; 11. |] in
  let guards = ref 0 in
  Lla.Allocation.allocate p ~guards ~mu:[| Float.nan; Float.nan |]
    ~lambda:(Array.make (Lla.Problem.n_paths p) 0.1)
    ~offsets:(Array.make 2 0.) ~sweeps:1 ~lat;
  check_close "lat 0 kept" 9. lat.(0);
  check_close "lat 1 kept" 11. lat.(1);
  Alcotest.(check bool) (Printf.sprintf "guards counted (%d)" !guards) true (!guards >= 2);
  (* A non-finite previous latency falls back to the upper bound instead. *)
  let lat = [| Float.nan; 11. |] in
  Lla.Allocation.allocate p ~guards ~mu:[| Float.nan; Float.nan |]
    ~lambda:(Array.make (Lla.Problem.n_paths p) 0.1)
    ~offsets:(Array.make 2 0.) ~sweeps:1 ~lat;
  Alcotest.(check bool) "poisoned lat replaced by finite bound" true (Float.is_finite lat.(0))

(* ------------------------------------------------------------------ *)
(* Step sizes                                                          *)
(* ------------------------------------------------------------------ *)

let test_step_size_fixed () =
  let p = Lla.Problem.compile (tiny_workload ()) in
  let policy = Lla.Step_size.fixed 0.7 in
  let steps = Lla.Step_size.create p policy in
  check_close "resource gamma" 0.7 (Lla.Step_size.resource_gamma steps 0);
  check_close "path gamma" 0.7 (Lla.Step_size.path_gamma steps 0);
  Lla.Step_size.observe steps ~congested_resources:[| true; true |];
  check_close "fixed ignores congestion" 0.7 (Lla.Step_size.resource_gamma steps 0);
  (* The per-entity rule behind [create] and [observe]. *)
  check_close "initial" 0.7 (Lla.Step_size.initial policy);
  check_close "adapt keeps a fixed step" 0.7 (Lla.Step_size.adapt policy 0.7 ~congested:true)

let test_step_size_adaptive_doubles_and_resets () =
  let p = Lla.Problem.compile (tiny_workload ()) in
  let policy = Lla.Step_size.adaptive ~initial:1.0 ~cap:8. () in
  let steps = Lla.Step_size.create p policy in
  check_close "initial" 1. (Lla.Step_size.initial policy);
  check_close "adapt doubles" 4. (Lla.Step_size.adapt policy 2. ~congested:true);
  check_close "adapt caps" 8. (Lla.Step_size.adapt policy 6. ~congested:true);
  check_close "adapt reverts" 1. (Lla.Step_size.adapt policy 8. ~congested:false);
  Lla.Step_size.observe steps ~congested_resources:[| true; false |];
  check_close "congested doubles" 2. (Lla.Step_size.resource_gamma steps 0);
  check_close "uncongested resets" 1. (Lla.Step_size.resource_gamma steps 1);
  (* The path traverses r0 (congested) so it doubles too. *)
  check_close "path over congested resource doubles" 2. (Lla.Step_size.path_gamma steps 0);
  Lla.Step_size.observe steps ~congested_resources:[| true; false |];
  Lla.Step_size.observe steps ~congested_resources:[| true; false |];
  Lla.Step_size.observe steps ~congested_resources:[| true; false |];
  check_close "cap respected" 8. (Lla.Step_size.resource_gamma steps 0);
  Lla.Step_size.observe steps ~congested_resources:[| false; false |];
  check_close "reverts to initial" 1. (Lla.Step_size.resource_gamma steps 0);
  check_close "path reverts" 1. (Lla.Step_size.path_gamma steps 0)

let test_step_size_validation () =
  Alcotest.check_raises "fixed <= 0" (Invalid_argument "Step_size.fixed: gamma <= 0") (fun () ->
      ignore (Lla.Step_size.fixed 0.));
  let split =
    Lla.Step_size.split ~resource:(Lla.Step_size.fixed 1.) ~path:(Lla.Step_size.fixed 2.)
  in
  Alcotest.check_raises "initial of a split"
    (Invalid_argument "Step_size.initial: Split has one step per family") (fun () ->
      ignore (Lla.Step_size.initial split));
  Alcotest.check_raises "adapt of a split"
    (Invalid_argument "Step_size.adapt: Split has one step per family") (fun () ->
      ignore (Lla.Step_size.adapt split 1. ~congested:true))

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

let test_solver_converges_on_base_workload () =
  let solver = Lla.Solver.create (base_workload ()) in
  match Lla.Solver.run_until_converged solver ~max_iterations:2000 with
  | None -> Alcotest.fail "solver did not converge on the paper workload"
  | Some _ ->
    Alcotest.(check bool) "feasible" true (Lla.Solver.feasible solver);
    Alcotest.(check bool) "positive utility" true (Lla.Solver.utility solver > 0.)

let test_solver_critical_paths_near_critical_times () =
  let solver = Lla.Solver.create (base_workload ()) in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:2000);
  List.iter
    (fun ((task : Task.t), _, cost) ->
      let ratio = cost /. task.Task.critical_time in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 1%% below C (ratio %.4f)" task.Task.name ratio)
        true
        (ratio >= 0.99 && ratio <= 1.0001))
    (Lla.Solver.critical_paths solver)

let test_solver_latency_share_consistency () =
  let solver = Lla.Solver.create (base_workload ()) in
  Lla.Solver.run solver ~iterations:500;
  let workload = base_workload () in
  List.iter
    (fun (sid, lat) ->
      let share_fn = Workload.share_function workload sid in
      check_close ~eps:1e-9 "share = share_fn(lat)" (share_fn.Share.eval lat)
        (Lla.Solver.share solver sid))
    (Lla.Solver.latencies solver)

let test_solver_prices_nonnegative () =
  let solver = Lla.Solver.create (base_workload ()) in
  for _ = 1 to 300 do
    Lla.Solver.step solver;
    Array.iter (fun m -> Alcotest.(check bool) "mu >= 0" true (m >= 0.))
      (Lla.Solver.mu_array solver);
    Array.iter (fun l -> Alcotest.(check bool) "lambda >= 0" true (l >= 0.))
      (Lla.Solver.lambda_array solver)
  done

let test_solver_latencies_within_bounds () =
  let solver = Lla.Solver.create (base_workload ()) in
  Lla.Solver.run solver ~iterations:300;
  let p = Lla.Solver.problem solver in
  Array.iteri
    (fun i lat ->
      let s = p.Lla.Problem.subtasks.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s within [%.2f, %.2f] (got %.2f)" s.name s.lat_lo s.lat_hi lat)
        true
        (lat >= s.lat_lo -. 1e-9 && lat <= s.lat_hi +. 1e-9))
    (Lla.Solver.lat_array solver)

let test_solver_series_recorded () =
  let config = { Lla.Solver.default_config with record_shares = true } in
  let solver = Lla.Solver.create ~config (base_workload ()) in
  Lla.Solver.run solver ~iterations:50;
  Alcotest.(check int) "utility points" 50 (Lla_stdx.Series.length (Lla.Solver.utility_series solver));
  let shares = Lla.Solver.share_series solver in
  Alcotest.(check int) "one series per resource" 8 (List.length shares);
  List.iter (fun (_, s) -> Alcotest.(check int) "share points" 50 (Lla_stdx.Series.length s)) shares

let test_solver_deterministic () =
  let run () =
    let solver = Lla.Solver.create (base_workload ()) in
    Lla.Solver.run solver ~iterations:250;
    (Lla.Solver.utility solver, Array.copy (Lla.Solver.lat_array solver))
  in
  let u1, lat1 = run () and u2, lat2 = run () in
  check_close "same utility" u1 u2;
  Array.iteri (fun i l -> check_close "same latencies" l lat2.(i)) lat1

let test_solver_nonlinear_utilities_converge () =
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:3. () in
  let b = Subtask.make ~id:2 ~task:tid ~resource:1 ~exec_time:4. () in
  let task utility =
    Task.make_exn ~id:1 ~subtasks:[ a; b ]
      ~graph:(Graph.chain [ a.Subtask.id; b.Subtask.id ])
      ~critical_time:60. ~utility
      ~trigger:(Trigger.periodic ~period:100. ())
      ()
  in
  (* The price step size must be matched to the utility's curvature: a
     nearly-flat utility (soft deadline far from C) makes latencies very
     sensitive to mu, so gamma must shrink; a steep one (quadratic) needs
     larger steps to close the gap in reasonable time. *)
  List.iter
    (fun (name, utility, policy) ->
      let w =
        Workload.make_exn
          ~tasks:[ task utility ]
          ~resources:[ Resource.make ~availability:0.4 0; Resource.make ~availability:0.4 1 ]
      in
      let config = { Lla.Solver.default_config with step_policy = policy } in
      let solver = Lla.Solver.create ~config w in
      match Lla.Solver.run_until_converged solver ~max_iterations:6000 with
      | Some _ -> Alcotest.(check bool) (name ^ " feasible") true (Lla.Solver.feasible solver)
      | None -> Alcotest.fail (Printf.sprintf "no convergence for %s" name))
    [
      ( "logarithmic",
        Utility.logarithmic ~k:2. ~critical_time:60. (),
        Lla.Solver.default_config.Lla.Solver.step_policy );
      ( "soft-deadline",
        Utility.soft_deadline ~sharpness:8. ~critical_time:60. (),
        Lla.Step_size.adaptive ~initial:0.1 () );
      ("quadratic", Utility.quadratic (), Lla.Step_size.adaptive ~initial:4. ());
    ]

(* ------------------------------------------------------------------ *)
(* KKT optimality                                                      *)
(* ------------------------------------------------------------------ *)

let test_kkt_small_at_convergence () =
  let solver = Lla.Solver.create (base_workload ()) in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:3000);
  Lla.Solver.run solver ~iterations:2000;
  let r = Lla.Kkt.of_solver solver in
  Alcotest.(check bool)
    (Printf.sprintf "KKT residuals small: worst %.3g" (Lla.Kkt.worst r))
    true
    (Lla.Kkt.worst r < 0.06)

let test_kkt_large_when_unconverged () =
  let solver = Lla.Solver.create (base_workload ()) in
  Lla.Solver.run solver ~iterations:2;
  let r = Lla.Kkt.of_solver solver in
  Alcotest.(check bool) "residuals visible early" true (Lla.Kkt.worst r > 0.05)

let test_solver_matches_centralized_reference () =
  let workload = base_workload () in
  let solver = Lla.Solver.create workload in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:3000);
  let central = Lla_baseline.Centralized.solve ~iterations:20000 workload in
  let gap =
    Float.abs (Lla.Solver.utility solver -. central.Lla_baseline.Centralized.utility)
    /. Float.abs central.Lla_baseline.Centralized.utility
  in
  Alcotest.(check bool) (Printf.sprintf "within 3%% of reference (gap %.4f)" gap) true (gap < 0.03)

let prop_kkt_on_random_schedulable_workloads =
  QCheck.Test.make ~name:"solver: KKT residuals small at convergence on random workloads"
    ~count:12
    QCheck.(int_range 1 1000)
    (fun seed ->
      let workload = Lla_workloads.Random_gen.generate ~seed () in
      let solver = Lla.Solver.create workload in
      match Lla.Solver.run_until_converged solver ~max_iterations:4000 with
      | None ->
        (* A few percent of seeds need the probe's step-size ladder to
           converge (see Schedulability.probe); the classification property
           covers them. Here we assert optimality *of converged runs*. *)
        true
      | Some _ ->
        Lla.Solver.run solver ~iterations:1000;
        let r = Lla.Kkt.of_solver solver in
        Lla.Kkt.worst r < 0.1)

(* ------------------------------------------------------------------ *)
(* Schedulability probe                                                *)
(* ------------------------------------------------------------------ *)

let test_probe_schedulable () =
  match Lla.Schedulability.probe (base_workload ()) with
  | Lla.Schedulability.Schedulable { max_path_usage; _ } ->
    Alcotest.(check bool) "paths tight but within C" true (max_path_usage <= 1.001)
  | Lla.Schedulability.Unschedulable _ -> Alcotest.fail "base workload must be schedulable"

let test_probe_unschedulable () =
  match
    Lla.Schedulability.probe ~iterations:800 (Lla_workloads.Paper_sim.unschedulable_six ())
  with
  | Lla.Schedulability.Schedulable _ -> Alcotest.fail "6-task unscaled workload must not converge"
  | Lla.Schedulability.Unschedulable { overruns; violations; _ } ->
    Alcotest.(check bool) "overruns reported" true (overruns <> []);
    Alcotest.(check bool) "violations reported" true (violations <> []);
    List.iter
      (fun (_, ratio) -> Alcotest.(check bool) "overrun ratios exceed 1" true (ratio > 1.))
      overruns

let prop_probe_classifies_random_workloads =
  QCheck.Test.make ~name:"probe: schedulable by construction vs broken critical times" ~count:8
    QCheck.(int_range 1 500)
    (fun seed ->
      let good = Lla_workloads.Random_gen.generate ~seed () in
      let bad = Lla_workloads.Random_gen.make_unschedulable ~severity:3.0 ~seed good in
      Lla.Schedulability.is_schedulable (Lla.Schedulability.probe ~iterations:3000 good)
      && not (Lla.Schedulability.is_schedulable (Lla.Schedulability.probe ~iterations:800 bad)))

(* ------------------------------------------------------------------ *)
(* Error correction                                                    *)
(* ------------------------------------------------------------------ *)

let test_error_correction_basic () =
  let c = Lla.Error_correction.create ~percentile:100. () in
  Alcotest.(check (option (float 0.))) "no samples" None (Lla.Error_correction.correct c ~predicted:10.);
  Lla.Error_correction.observe c ~measured_latency:4.;
  Lla.Error_correction.observe c ~measured_latency:6.;
  (match Lla.Error_correction.correct c ~predicted:10. with
  | Some offset -> check_close "max(4,6) - 10" (-4.) offset
  | None -> Alcotest.fail "expected an offset");
  Alcotest.(check int) "window cleared" 0 (Lla.Error_correction.sample_count c);
  Alcotest.(check int) "rounds" 1 (Lla.Error_correction.corrections c)

let test_error_correction_smoothing () =
  let c = Lla.Error_correction.create ~percentile:100. () in
  Lla.Error_correction.observe c ~measured_latency:0.;
  ignore (Lla.Error_correction.correct c ~predicted:10.);
  (* first error -10 taken as-is *)
  check_close "first" (-10.) (Lla.Error_correction.offset c);
  Lla.Error_correction.observe c ~measured_latency:10.;
  ignore (Lla.Error_correction.correct c ~predicted:10.);
  (* new sample 0; 0.3 * 0 + 0.7 * (-10) = -7 *)
  check_close "smoothed" (-7.) (Lla.Error_correction.offset c)

let test_error_correction_percentile () =
  let c = Lla.Error_correction.create ~percentile:50. () in
  List.iter (fun x -> Lla.Error_correction.observe c ~measured_latency:x) [ 1.; 2.; 3.; 4.; 100. ];
  (match Lla.Error_correction.correct c ~predicted:0. with
  | Some offset -> check_close "median not max" 3. offset
  | None -> Alcotest.fail "expected offset")

(* The window holds the 256 most recent measurements: older ones are
   overwritten, so a round reads only the latest behaviour. *)
let test_error_correction_window () =
  let c = Lla.Error_correction.create ~percentile:100. () in
  for _ = 1 to 44 do
    Lla.Error_correction.observe c ~measured_latency:1000.
  done;
  for i = 1 to 256 do
    Lla.Error_correction.observe c ~measured_latency:(float_of_int i)
  done;
  Alcotest.(check int) "window full" 256 (Lla.Error_correction.sample_count c);
  match Lla.Error_correction.correct c ~predicted:0. with
  | Some offset -> check_close "oldest samples evicted" 256. offset
  | None -> Alcotest.fail "expected an offset"

let test_error_correction_skips_nonfinite () =
  let c = Lla.Error_correction.create ~percentile:100. () in
  Lla.Error_correction.observe c ~measured_latency:4.;
  Lla.Error_correction.observe c ~measured_latency:Float.nan;
  Lla.Error_correction.observe c ~measured_latency:Float.infinity;
  Lla.Error_correction.observe c ~measured_latency:6.;
  Alcotest.(check int) "non-finite samples skipped" 2 (Lla.Error_correction.skipped_samples c);
  Alcotest.(check int) "only finite samples admitted" 2 (Lla.Error_correction.sample_count c);
  (* A non-finite prediction aborts the round but keeps the window. *)
  Alcotest.(check (option (float 0.)))
    "non-finite prediction refused" None
    (Lla.Error_correction.correct c ~predicted:Float.nan);
  Alcotest.(check int) "refusal counted" 3 (Lla.Error_correction.skipped_samples c);
  Alcotest.(check int) "window kept" 2 (Lla.Error_correction.sample_count c);
  check_close "offset untouched" 0. (Lla.Error_correction.offset c);
  (* The kept window still supports a normal correction round. *)
  (match Lla.Error_correction.correct c ~predicted:10. with
  | Some error -> check_close "corrects from finite window" (-4.) error
  | None -> Alcotest.fail "expected a correction");
  Alcotest.(check int) "round completed" 1 (Lla.Error_correction.corrections c)

let test_solver_offsets_affect_shares () =
  let w = Lla_workloads.Prototype.workload () in
  let solver = Lla.Solver.create w in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:3000);
  let fast = Ids.Subtask_id.make 10 in
  let before = Lla.Solver.share solver fast in
  (* The documented Fig. 8 shape: a -25 ms offset (over-prediction) lets the
     fast subtasks drop to the 0.2 rate-stability floor. *)
  List.iter
    (fun t ->
      List.iter
        (fun sid -> Lla.Solver.set_offset solver sid (-25.))
        (Task.subtask_ids (Workload.task w t)))
    Lla_workloads.Prototype.fast_task_ids;
  Lla.Solver.run solver ~iterations:3000;
  let after = Lla.Solver.share solver fast in
  Alcotest.(check bool)
    (Printf.sprintf "share drops from %.4f to %.4f" before after)
    true (before > 0.27 && after < 0.21);
  check_close ~eps:5e-3 "lands on the 0.2 stability floor"
    Lla_workloads.Prototype.fast_min_share after


let test_solver_set_capacity_adapts () =
  (* Over-provisioned workload: shrink the busiest resource mid-run; the
     solver must re-converge feasibly at a lower utility, and recover when
     capacity returns. *)
  let workload = Lla_workloads.Paper_sim.scaled ~copies:1 ~critical_time_factor:1.5 () in
  let solver = Lla.Solver.create workload in
  let rid = Ids.Resource_id.make 4 in
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:2000);
  let nominal = Lla.Solver.utility solver in
  let original = Lla.Solver.capacity solver rid in
  Lla.Solver.set_capacity solver rid (original *. 0.7);
  Lla.Solver.run solver ~iterations:1500;
  Alcotest.(check bool) "feasible when degraded" true (Lla.Solver.feasible solver);
  let degraded = Lla.Solver.utility solver in
  Alcotest.(check bool)
    (Printf.sprintf "utility drops (%.2f < %.2f)" degraded nominal)
    true (degraded < nominal);
  Lla.Solver.set_capacity solver rid original;
  Lla.Solver.run solver ~iterations:1500;
  let recovered = Lla.Solver.utility solver in
  Alcotest.(check bool)
    (Printf.sprintf "utility recovers (%.2f ~ %.2f)" recovered nominal)
    true
    (Float.abs (recovered -. nominal) /. nominal < 0.02)

let test_solver_set_capacity_validation () =
  let solver = Lla.Solver.create (base_workload ()) in
  Alcotest.check_raises "capacity > 1" (Invalid_argument "Solver.set_capacity: outside [0, 1]")
    (fun () -> Lla.Solver.set_capacity solver (Ids.Resource_id.make 0) 1.5)


let test_solver_set_arrival_rate () =
  (* Raising the fast tasks' rate from 40/s to 60/s lifts their stability
     floor to 0.3; the solver re-converges with fast shares pinned there. *)
  let w = Lla_workloads.Prototype.workload () in
  let solver = Lla.Solver.create w in
  (* Mirror Fig. 8's corrected model so the floor is the binding bound. *)
  List.iter
    (fun tid ->
      List.iter (fun sid -> Lla.Solver.set_offset solver sid (-25.))
        (Task.subtask_ids (Workload.task w tid)))
    Lla_workloads.Prototype.fast_task_ids;
  ignore (Lla.Solver.run_until_converged solver ~max_iterations:4000);
  let fast = Ids.Subtask_id.make 10 in
  check_close ~eps:5e-3 "floor 0.2 at 40/s" 0.2 (Lla.Solver.share solver fast);
  List.iter (fun tid -> Lla.Solver.set_arrival_rate solver tid 0.06)
    Lla_workloads.Prototype.fast_task_ids;
  Lla.Solver.run solver ~iterations:4000;
  check_close ~eps:5e-3 "floor 0.3 at 60/s" 0.3 (Lla.Solver.share solver fast);
  Alcotest.(check bool) "negative rate rejected" true
    (try
       Lla.Solver.set_arrival_rate solver (Ids.Task_id.make 1) (-1.);
       false
     with Invalid_argument _ -> true)


(* ------------------------------------------------------------------ *)
(* Monotonicity and invariance properties                              *)
(* ------------------------------------------------------------------ *)

let prop_allocation_monotone_in_mu =
  QCheck.Test.make ~name:"allocation: latency is non-decreasing in the resource price"
    QCheck.(pair (float_range 0.1 100.) (float_range 0.1 100.))
    (fun (mu_lo, mu_delta) ->
      let w = tiny_workload ~critical_time:500. () in
      let p = Lla.Problem.compile w in
      let solve mu0 =
        let lat = Array.make 2 1. in
        Lla.Allocation.allocate p ~mu:[| mu0; mu0 |]
          ~lambda:(Array.make (Lla.Problem.n_paths p) 0.1)
          ~offsets:(Array.make 2 0.) ~sweeps:1 ~lat;
        lat
      in
      let a = solve mu_lo and b = solve (mu_lo +. mu_delta) in
      b.(0) >= a.(0) -. 1e-9 && b.(1) >= a.(1) -. 1e-9)

let prop_allocation_monotone_in_lambda =
  QCheck.Test.make ~name:"allocation: latency is non-increasing in the path price"
    QCheck.(pair (float_range 0. 10.) (float_range 0.1 10.))
    (fun (lam_lo, lam_delta) ->
      let w = tiny_workload ~critical_time:500. () in
      let p = Lla.Problem.compile w in
      let solve lam =
        let lat = Array.make 2 1. in
        Lla.Allocation.allocate p ~mu:[| 25.; 25. |]
          ~lambda:(Array.make (Lla.Problem.n_paths p) lam)
          ~offsets:(Array.make 2 0.) ~sweeps:1 ~lat;
        lat
      in
      let a = solve lam_lo and b = solve (lam_lo +. lam_delta) in
      b.(0) <= a.(0) +. 1e-9 && b.(1) <= a.(1) +. 1e-9)

let prop_price_update_fixed_point =
  QCheck.Test.make ~name:"prices: exact capacity and exact deadline are fixed points"
    QCheck.(pair (float_range 0.5 5.) (float_range 0.1 3.))
    (fun (mu0, gamma) ->
      (* Choose latencies so the share sum equals B exactly and the path
         equals C exactly: neither price may move. *)
      let w = tiny_workload ~availability:0.5 ~critical_time:20. () in
      let p = Lla.Problem.compile w in
      (* share a = 4/lat_a = 0.5 -> lat_a = 8; share b = 6/lat_b = 0.5 ->
         lat_b = 12; path = 20 = C. *)
      let lat = [| 8.; 12. |] in
      let offsets = Array.make 2 0. in
      let mu = [| mu0; mu0 |] and lambda = [| mu0 |] in
      ignore (Lla.Price_update.update_resource p 0 ~lat ~offsets ~gamma ~mu);
      ignore (Lla.Price_update.update_path p 0 ~lat ~gamma ~lambda);
      Float.abs (mu.(0) -. mu0) < 1e-9 && Float.abs (lambda.(0) -. mu0) < 1e-9)

let test_solver_invariant_under_task_order () =
  (* Permuting the declaration order of tasks must not change the converged
     utility (each task's controller is independent given prices). *)
  let build order =
    let tasks =
      List.map (fun i -> List.nth (Lla_workloads.Paper_sim.base ()).Workload.tasks i) order
    in
    Workload.make_exn ~tasks ~resources:(Lla_workloads.Paper_sim.base ()).Workload.resources
  in
  let solve w =
    let solver = Lla.Solver.create w in
    ignore (Lla.Solver.run_until_converged solver ~max_iterations:2000);
    Lla.Solver.utility solver
  in
  let u1 = solve (build [ 0; 1; 2 ]) and u2 = solve (build [ 2; 0; 1 ]) in
  check_close ~eps:0.2 "order-invariant utility" u1 u2

let prop_solver_total_share_bounded_after_convergence =
  QCheck.Test.make ~name:"solver: converged share sums respect capacities" ~count:10
    QCheck.(int_range 1 300)
    (fun seed ->
      let w = Lla_workloads.Random_gen.generate ~seed () in
      let solver = Lla.Solver.create w in
      match Lla.Solver.run_until_converged solver ~max_iterations:8000 with
      | None -> true (* covered by the classification property *)
      | Some _ ->
        List.for_all
          (fun (r : Resource.t) ->
            let latency sid = Lla.Solver.latency solver sid in
            Workload.share_sum w r.id ~latency <= r.availability *. 1.006)
          w.Workload.resources)


let test_solver_shared_resource_within_task () =
  (* The paper assumes "no two subtasks in the same task consume the same
     resource" only to simplify exposition; the solver must handle the
     general case. Both subtasks of a chain run on one CPU. *)
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:3. () in
  let b = Subtask.make ~id:2 ~task:tid ~resource:0 ~exec_time:5. () in
  let task =
    Task.make_exn ~id:1 ~subtasks:[ a; b ]
      ~graph:(Graph.chain [ a.Subtask.id; b.Subtask.id ])
      ~critical_time:60.
      ~utility:(Utility.linear ~k:2. ~critical_time:60.)
      ~trigger:(Trigger.periodic ~period:200. ())
      ()
  in
  let w = Workload.make_exn ~tasks:[ task ] ~resources:[ Resource.make ~availability:0.5 0 ] in
  let solver = Lla.Solver.create w in
  (match Lla.Solver.run_until_converged solver ~max_iterations:6000 with
  | Some _ -> ()
  | None -> Alcotest.fail "shared-resource task did not converge");
  let latency sid = Lla.Solver.latency solver sid in
  check_close ~eps:3e-3 "both shares sum to B"
    0.5
    (Workload.share_sum w (Ids.Resource_id.make 0) ~latency);
  Alcotest.(check bool) "path within C" true
    (latency (Ids.Subtask_id.make 1) +. latency (Ids.Subtask_id.make 2) <= 60.001)

let test_solver_single_subtask_task () =
  (* Degenerate single-node graph: one subtask, one path of length 1. *)
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:4. () in
  let task =
    Task.make_exn ~id:1 ~subtasks:[ a ]
      ~graph:(Graph.chain [ a.Subtask.id ])
      ~critical_time:30.
      ~utility:(Utility.linear ~k:2. ~critical_time:30.)
      ~trigger:(Trigger.periodic ~period:100. ())
      ()
  in
  let w = Workload.make_exn ~tasks:[ task ] ~resources:[ Resource.make ~availability:0.4 0 ] in
  let solver = Lla.Solver.create w in
  (match Lla.Solver.run_until_converged solver ~max_iterations:6000 with
  | Some _ -> ()
  | None -> Alcotest.fail "single-subtask task did not converge");
  (* The optimum pins the share at B: lat = c / B = 10. *)
  check_close ~eps:0.1 "lat = c / B" 10. (Lla.Solver.latency solver (Ids.Subtask_id.make 1))

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lla_core"
    [
      ( "problem",
        [
          Alcotest.test_case "dimensions" `Quick test_problem_dimensions;
          Alcotest.test_case "index consistency" `Quick test_problem_indices_consistent;
          Alcotest.test_case "by-resource partition" `Quick test_problem_by_resource_partition;
          Alcotest.test_case "linear slope detection" `Quick test_problem_linear_slope_detection;
          Alcotest.test_case "weights" `Quick test_problem_weights_match_model;
          Alcotest.test_case "paths cover subtasks" `Quick test_problem_paths_cover_subtasks;
          Alcotest.test_case "share sums agree with model" `Quick
            test_problem_share_sum_matches_workload;
        ] );
      ( "monotonicity",
        [ Alcotest.test_case "task-order invariance" `Slow test_solver_invariant_under_task_order ]
        @ qcheck
            [
              prop_allocation_monotone_in_mu;
              prop_allocation_monotone_in_lambda;
              prop_price_update_fixed_point;
              prop_solver_total_share_bounded_after_convergence;
            ] );
      ( "allocation",
        [
          Alcotest.test_case "closed-form value" `Quick test_allocation_closed_form_value;
          Alcotest.test_case "clamping at bounds" `Quick test_allocation_clamps_to_bounds;
          Alcotest.test_case "general solver matches closed form" `Quick
            test_allocation_general_matches_closed_form;
          Alcotest.test_case "offsets shift latencies" `Quick test_allocation_offset_shifts_latency;
          Alcotest.test_case "effective bounds" `Quick test_allocation_effective_bounds;
          Alcotest.test_case "non-finite prices guarded" `Quick test_allocation_guards_nonfinite_mu;
        ] );
      ( "prices",
        [
          Alcotest.test_case "resource price directions (Eq. 8)" `Quick
            test_price_update_directions;
          Alcotest.test_case "path price directions (Eq. 9)" `Quick test_path_price_directions;
          Alcotest.test_case "congestion flags" `Quick test_price_update_congestion_flags;
          Alcotest.test_case "non-finite latency guarded" `Quick
            test_price_update_guards_nonfinite_lat;
          Alcotest.test_case "poisoned multiplier healed" `Quick
            test_price_update_heals_poisoned_mu;
          Alcotest.test_case "safe-mode heal rule" `Quick test_heal_resource_price;
        ] );
      ( "step-size",
        [
          Alcotest.test_case "fixed" `Quick test_step_size_fixed;
          Alcotest.test_case "adaptive doubling heuristic" `Quick
            test_step_size_adaptive_doubles_and_resets;
          Alcotest.test_case "validation" `Quick test_step_size_validation;
        ] );
      ( "solver",
        [
          Alcotest.test_case "converges on paper workload" `Slow
            test_solver_converges_on_base_workload;
          Alcotest.test_case "critical paths within 1% of C" `Slow
            test_solver_critical_paths_near_critical_times;
          Alcotest.test_case "latency/share consistency" `Quick
            test_solver_latency_share_consistency;
          Alcotest.test_case "prices stay non-negative" `Quick test_solver_prices_nonnegative;
          Alcotest.test_case "latencies within bounds" `Quick test_solver_latencies_within_bounds;
          Alcotest.test_case "series recording" `Quick test_solver_series_recorded;
          Alcotest.test_case "deterministic" `Quick test_solver_deterministic;
          Alcotest.test_case "non-linear utilities converge" `Slow
            test_solver_nonlinear_utilities_converge;
          Alcotest.test_case "capacity change adapts online" `Slow
            test_solver_set_capacity_adapts;
          Alcotest.test_case "capacity validation" `Quick test_solver_set_capacity_validation;
          Alcotest.test_case "measured arrival rate moves the stability floor" `Slow
            test_solver_set_arrival_rate;
          Alcotest.test_case "shared resource within a task" `Slow
            test_solver_shared_resource_within_task;
          Alcotest.test_case "single-subtask task" `Slow test_solver_single_subtask_task;
        ] );
      ( "kkt",
        [
          Alcotest.test_case "small at convergence" `Slow test_kkt_small_at_convergence;
          Alcotest.test_case "large when unconverged" `Quick test_kkt_large_when_unconverged;
          Alcotest.test_case "matches centralized reference" `Slow
            test_solver_matches_centralized_reference;
        ]
        @ qcheck [ prop_kkt_on_random_schedulable_workloads ] );
      ( "schedulability",
        [
          Alcotest.test_case "schedulable verdict" `Slow test_probe_schedulable;
          Alcotest.test_case "unschedulable verdict" `Slow test_probe_unschedulable;
        ]
        @ qcheck [ prop_probe_classifies_random_workloads ] );
      ( "error-correction",
        [
          Alcotest.test_case "additive error" `Quick test_error_correction_basic;
          Alcotest.test_case "exponential smoothing" `Quick test_error_correction_smoothing;
          Alcotest.test_case "percentile selection" `Quick test_error_correction_percentile;
          Alcotest.test_case "window keeps the latest 256" `Quick test_error_correction_window;
          Alcotest.test_case "non-finite samples skipped" `Quick
            test_error_correction_skips_nonfinite;
          Alcotest.test_case "offsets reproduce Fig. 8 share shift" `Slow
            test_solver_offsets_affect_shares;
        ] );
    ]
