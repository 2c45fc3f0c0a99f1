(* Lla_scale: generator determinism / admission, kernel-vs-solver
   equivalence, dirty-set sparsity, the zero-allocation guarantee of the
   kernel tick, problem order at the kernel's API boundary, the
   clearing-price start, and golden bit-identity digests. *)

open Lla_model
module Generator = Lla_scale.Generator
module Kernel = Lla_scale.Kernel
module Solver = Lla.Solver

let qcheck = QCheck_alcotest.to_alcotest

let small_params seed =
  (* vary the shape mix and skew a little with the seed so the qcheck
     properties do not all exercise one corner of the generator *)
  let base = Generator.sized ~resources:(12 + (seed mod 9)) ~subtasks:(40 + (seed mod 37)) () in
  {
    base with
    Generator.sharing_skew = 1. +. float_of_int (seed mod 3);
    chain_weight = 1.;
    fan_out_weight = float_of_int (1 + (seed mod 2));
    aggregation_weight = float_of_int (1 + (seed mod 3));
  }

let kernel_exn ?obs ?config workload =
  match Kernel.create ?obs ?config workload with
  | Ok k -> k
  | Error e -> Alcotest.failf "Kernel.create: %s" e

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  let params = Generator.sized ~subtasks:300 () in
  let a = Generator.generate ~params ~seed:42 () in
  let b = Generator.generate ~params ~seed:42 () in
  Alcotest.(check string)
    "same seed, byte-identical workload" (Workload_codec.to_string a) (Workload_codec.to_string b);
  let c = Generator.generate ~params ~seed:43 () in
  if String.equal (Workload_codec.to_string a) (Workload_codec.to_string c) then
    Alcotest.fail "different seeds produced identical workloads"

let test_generator_reaches_target () =
  let params = Generator.sized ~subtasks:500 () in
  let w = Generator.generate ~params ~seed:7 () in
  let subtasks =
    List.fold_left (fun acc (t : Task.t) -> acc + List.length t.Task.subtasks) 0 w.Workload.tasks
  in
  if subtasks < 500 then Alcotest.failf "only %d subtasks generated (target 500)" subtasks;
  List.iter
    (fun (r : Resource.t) ->
      if r.availability <= 0. || r.availability > 1. then
        Alcotest.failf "availability %.3f outside (0, 1]" r.availability)
    w.Workload.resources

let test_generator_witness_fits () =
  (* the witness rescale must leave headroom on every resource: the
     compiled problem's minimum shares (stability floors) fit capacities *)
  let w = Generator.generate ~params:(Generator.sized ~subtasks:400 ()) ~seed:11 () in
  let problem = Lla.Problem.compile w in
  for r = 0 to Lla.Problem.n_resources problem - 1 do
    let floor_sum =
      Array.fold_left
        (fun acc i ->
          let s = problem.Lla.Problem.subtasks.(i) in
          acc +. (s.Lla.Problem.share.Share.lat_min /. s.Lla.Problem.stability))
        0.
        problem.Lla.Problem.by_resource.(r)
    in
    let cap = problem.Lla.Problem.capacities.(r) in
    if floor_sum > cap +. 1e-9 then
      Alcotest.failf "resource %d: stability floor %.4f exceeds capacity %.4f" r floor_sum cap
  done

let prop_generator_deterministic =
  QCheck.Test.make ~name:"generator: same seed => byte-identical scenario" ~count:15
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let params = small_params seed in
      let a = Generator.generate ~params ~seed () in
      let b = Generator.generate ~params ~seed () in
      String.equal (Workload_codec.to_string a) (Workload_codec.to_string b))

let prop_generator_schedulable =
  QCheck.Test.make ~name:"generator: scenarios pass Schedulability admission" ~count:6
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      Lla.Schedulability.is_schedulable (Lla.Schedulability.probe w))

(* ------------------------------------------------------------------ *)
(* Kernel equivalence with the reference solver                        *)
(* ------------------------------------------------------------------ *)

let agree ~label ~tolerance a b =
  if Array.length a <> Array.length b then
    QCheck.Test.fail_reportf "%s: length %d vs %d" label (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      let scale = Float.max 1. (Float.max (Float.abs x) (Float.abs y)) in
      if not (Float.abs (x -. y) <= tolerance *. scale) then
        QCheck.Test.fail_reportf "%s[%d]: kernel %.17g vs solver %.17g" label i x y)
    a;
  true

let prop_kernel_matches_solver =
  QCheck.Test.make
    ~name:"kernel: lat/mu/lambda match Solver within 1e-9 (adaptive steps)" ~count:20
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      let solver = Solver.create w in
      let kernel = kernel_exn w in
      let iterations = 60 + (seed mod 80) in
      Solver.run solver ~iterations;
      Kernel.run kernel ~iterations;
      agree ~label:"lat" ~tolerance:1e-9 (Kernel.lat_array kernel) (Solver.lat_array solver)
      && agree ~label:"mu" ~tolerance:1e-9 (Kernel.mu_array kernel) (Solver.mu_array solver)
      && agree ~label:"lambda" ~tolerance:1e-9 (Kernel.lambda_array kernel)
           (Solver.lambda_array solver))

let prop_kernel_matches_solver_fixed_step =
  QCheck.Test.make ~name:"kernel: matches Solver under a fixed step policy" ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      let policy = Lla.Step_size.fixed 0.5 in
      let solver =
        Solver.create ~config:{ Solver.default_config with step_policy = policy } w
      in
      let kernel =
        kernel_exn ~config:{ Kernel.default_config with step_policy = policy } w
      in
      Solver.run solver ~iterations:100;
      Kernel.run kernel ~iterations:100;
      agree ~label:"lat" ~tolerance:1e-9 (Kernel.lat_array kernel) (Solver.lat_array solver)
      && agree ~label:"mu" ~tolerance:1e-9 (Kernel.mu_array kernel) (Solver.mu_array solver)
      && agree ~label:"lambda" ~tolerance:1e-9 (Kernel.lambda_array kernel)
           (Solver.lambda_array solver))

let prop_kernel_matches_solver_split_step =
  (* scale_config's Split policy (resources escalated, paths on the small
     cap) must preserve the element-wise equivalence: both sides resolve
     the same per-family components. *)
  QCheck.Test.make ~name:"kernel: matches Solver under a Split step policy" ~count:10
    QCheck.(int_range 1 1_000_000)
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      let policy =
        Lla.Step_size.split
          ~resource:(Lla.Step_size.adaptive ~initial:1.0 ~cap:1e9 ())
          ~path:(Lla.Step_size.adaptive ~initial:1.0 ())
      in
      let solver =
        Solver.create ~config:{ Solver.default_config with step_policy = policy } w
      in
      let kernel =
        kernel_exn ~config:{ Kernel.default_config with step_policy = policy } w
      in
      Solver.run solver ~iterations:100;
      Kernel.run kernel ~iterations:100;
      agree ~label:"lat" ~tolerance:1e-9 (Kernel.lat_array kernel) (Solver.lat_array solver)
      && agree ~label:"mu" ~tolerance:1e-9 (Kernel.mu_array kernel) (Solver.mu_array solver)
      && agree ~label:"lambda" ~tolerance:1e-9 (Kernel.lambda_array kernel)
           (Solver.lambda_array solver))

let test_kernel_movement_matches () =
  (* movement drives Kernel.solve's convergence; it must agree with the
     solver's movement series tick for tick *)
  let w = Generator.generate ~params:(small_params 5) ~seed:5 () in
  let solver = Solver.create w in
  let kernel = kernel_exn w in
  for i = 1 to 40 do
    Solver.step solver;
    Kernel.step kernel;
    let expected =
      let ys = Lla_stdx.Series.ys (Solver.movement_series solver) in
      ys.(Array.length ys - 1)
    in
    if Float.abs (Kernel.movement kernel -. expected) > 1e-9 then
      Alcotest.failf "tick %d: movement %.17g vs solver %.17g" i (Kernel.movement kernel)
        expected
  done

let test_kernel_rejects_nonlinear () =
  let critical_time = 120. in
  let t1 = Ids.Task_id.make 1 in
  let subtasks =
    [
      Subtask.make ~id:1 ~task:t1 ~resource:0 ~exec_time:2. ();
      Subtask.make ~id:2 ~task:t1 ~resource:1 ~exec_time:3. ();
    ]
  in
  let graph =
    Graph.make_exn
      ~nodes:(List.map (fun (s : Subtask.t) -> s.Subtask.id) subtasks)
      ~edges:[ (Ids.Subtask_id.make 1, Ids.Subtask_id.make 2) ]
  in
  let task =
    Task.make_exn ~id:1 ~subtasks ~graph ~critical_time
      ~utility:(Utility.logarithmic ~k:2. ~critical_time ())
      ~trigger:(Trigger.periodic ~period:400. ())
      ()
  in
  let w =
    Workload.make_exn ~tasks:[ task ]
      ~resources:[ Resource.make ~availability:0.9 0; Resource.make ~availability:0.9 1 ]
  in
  match Kernel.create w with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "kernel accepted a non-linear utility"

(* ------------------------------------------------------------------ *)
(* Full-sweep oracle                                                   *)
(* ------------------------------------------------------------------ *)

(* The safe-mode watchdog's default price cap, the one the soak passes
   to [Kernel.enter_fallback]. *)
let mu_cap = Lla_runtime.Safe_mode.mu_cap

let oracle_configs =
  [|
    Kernel.default_config;
    Kernel.scale_config;
    { Kernel.scale_config with Kernel.price_init = Kernel.Cold };
    { Kernel.default_config with Kernel.step_policy = Lla.Step_size.fixed 0.5 };
  |]

(* The dirty sets skip only updates that are provably the identity. A
   full sweep ([requeue_all] before every tick) skips nothing, so a
   kernel ticking on its dirty sets must agree with it bit for bit after
   every tick, whatever between-tick calls come in between. The calls
   cover every mutator that re-queues what it writes. [poison_price] is
   left out: it is a raw write whose members are deliberately not
   re-queued, so it departs from a full sweep by design (the
   between-ticks goldens below pin it). *)
let full_sweep_oracle seed =
  let w = Generator.generate ~params:(small_params seed) ~seed () in
  let config = oracle_configs.(seed mod Array.length oracle_configs) in
  let a = kernel_exn ~config w and b = kernel_exn ~config w in
  let both f =
    f a;
    f b
  in
  let rng = Random.State.make [| seed |] in
  let n_task = Kernel.n_tasks a and n_res = Kernel.n_resources a in
  let n_sub = Kernel.n_subtasks a in
  let cap0 = Array.init n_res (Kernel.capacity a) in
  let saved = ref None in
  let op () =
    match Random.State.int rng 9 with
    | 0 ->
      let k = Random.State.int rng n_task in
      both (fun x ->
          if Kernel.task_active x k then Kernel.retire_task x k else Kernel.admit_task x k)
    | 1 ->
      let r = Random.State.int rng n_res in
      let v = cap0.(r) *. (0.5 +. Random.State.float rng 1.) in
      both (fun x -> Kernel.set_capacity x r v)
    | 2 ->
      let i = Random.State.int rng n_sub in
      let d = (Random.State.float rng 2. -. 1.) *. (Kernel.lat_array a).(i) in
      both (fun x -> Kernel.disturb_latency x i d)
    | 3 ->
      let lat = Array.map (fun v -> v *. (0.5 +. Random.State.float rng 1.)) (Kernel.lat_array a) in
      both (fun x -> Kernel.enter_fallback x ~mu_cap ~lat)
    | 4 -> both (fun x -> Kernel.set_frozen x true)
    | 5 ->
      both (fun x ->
          Kernel.set_frozen x false;
          Kernel.requeue_all x)
    | 6 -> both Kernel.crash_reset
    | 7 -> (
      match !saved with
      | None -> ()
      | Some (lat, mu, lambda) ->
        both (fun x ->
            Kernel.crash_reset x;
            match Kernel.restore_iterate x ~lat ~mu ~lambda with
            | Ok () -> ()
            | Error e -> QCheck.Test.fail_reportf "restore_iterate: %s" e))
    | _ ->
      saved :=
        Some
          ( Kernel.lat_array a,
            Array.copy (Kernel.mu_array a),
            Array.copy (Kernel.lambda_array a) )
  in
  let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  let check tick label x y =
    Array.iteri
      (fun i v ->
        if not (same_bits v y.(i)) then
          QCheck.Test.fail_reportf "tick %d: %s[%d] = %.17g, full sweep %.17g" tick label i v
            y.(i))
      x
  in
  for tick = 1 to 400 do
    if Random.State.int rng 8 = 0 then op ();
    Kernel.step a;
    Kernel.requeue_all b;
    Kernel.step b;
    check tick "lat" (Kernel.lat_array a) (Kernel.lat_array b);
    check tick "mu" (Kernel.mu_array a) (Kernel.mu_array b);
    check tick "lambda" (Kernel.lambda_array a) (Kernel.lambda_array b);
    check tick "movement" [| Kernel.movement a |] [| Kernel.movement b |];
    if Kernel.guard_events a <> Kernel.guard_events b then
      QCheck.Test.fail_reportf "tick %d: %d guard events, full sweep %d" tick
        (Kernel.guard_events a) (Kernel.guard_events b)
  done;
  true

let prop_kernel_matches_full_sweep =
  QCheck.Test.make ~name:"kernel: dirty-set ticks match a full sweep bit for bit" ~count:200
    QCheck.(int_range 1 1_000_000)
    full_sweep_oracle

(* About one random run in a hundred catches a kernel that does not push
   a path when one of its resources stops being congested: the path keeps
   its escalated step while the full sweep resets it. These seeds under
   [scale_config] each catch it within 125 ticks. *)
let test_full_sweep_flip_seeds () =
  List.iter (fun seed -> ignore (full_sweep_oracle seed)) [ 26; 238; 802; 2786 ]

(* ------------------------------------------------------------------ *)
(* Dirty-set sparsity and the zero-allocation tick                     *)
(* ------------------------------------------------------------------ *)

let test_kernel_solves_and_sparsifies () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks:2_000 ()) ~seed:3 () in
  let kernel = kernel_exn ~config:Kernel.scale_config w in
  (match Kernel.solve kernel ~max_iterations:4_000 with
  | None -> Alcotest.failf "no convergence in 4000 ticks (movement %.2e)" (Kernel.movement kernel)
  | Some _ -> ());
  if not (Kernel.feasible kernel) then
    Alcotest.failf "infeasible after solve: %s" (String.concat "; " (Kernel.violations kernel));
  (* Past the transient, a tick visits only what can still change. From
     the clearing start the solve ends at the exact fixpoint, so the 100
     extra ticks below visit no subtask, resource or path at all; from a
     cold start the iterate keeps cycling and its active constraints stay
     queued, so the savings there are partial. This check asks only for
     real sparsity; the golden "a converged clearing-start tick visits
     nothing" pins the exact zero. *)
  let before = Kernel.cumulative_touch kernel in
  let extra = 100 in
  Kernel.run kernel ~iterations:extra;
  let after = Kernel.cumulative_touch kernel in
  let touched = after.Kernel.subtasks_touched - before.Kernel.subtasks_touched in
  let budget = extra * Kernel.n_subtasks kernel in
  if touched * 100 >= budget * 97 then
    Alcotest.failf "dirty sets bought no sparsity: %d of %d subtask updates after convergence"
      touched budget;
  (* All constraint prices in hand are finite and the iterate is still
     feasible after the extra ticks: the post-convergence dither stays
     within tolerance. *)
  if not (Kernel.feasible kernel) then
    Alcotest.failf "left feasibility during post-convergence ticks: %s"
      (String.concat "; " (Kernel.violations kernel))

let zero_alloc ~subtasks ~seed () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks ()) ~seed () in
  let kernel = kernel_exn w in
  Kernel.run kernel ~iterations:5 (* warm up: queues populated, caches filled *);
  (* [Gc.minor_words ()] itself allocates its boxed float result, so
     measure the delta of an empty probe and require the delta across N
     ticks to be exactly the same. *)
  let probe iterations =
    let before = Gc.minor_words () in
    Kernel.run kernel ~iterations;
    Gc.minor_words () -. before
  in
  let empty = probe 0 in
  let hundred = probe 100 in
  if hundred <> empty then
    Alcotest.failf "kernel tick allocates: %.0f minor words over 100 ticks" (hundred -. empty)

let test_kernel_tick_zero_alloc = zero_alloc ~subtasks:1_000 ~seed:9

let test_64k_tick_zero_alloc = zero_alloc ~subtasks:64_000 ~seed:42

let test_kernel_profiled_run () =
  (* with obs attached, the per-phase totals must cover every tick *)
  let obs = Lla_obs.create () in
  Lla_obs.Profile.set_enabled obs.Lla_obs.profile true;
  let w = Generator.generate ~params:(small_params 1) ~seed:1 () in
  let kernel = kernel_exn ~obs w in
  Kernel.run kernel ~iterations:30;
  let stats = Lla_obs.Profile.stats obs.Lla_obs.profile in
  let count_of name =
    (* match the leaf phase only: children's paths contain the parent *)
    List.fold_left
      (fun acc (s : Lla_obs.Profile.stat) ->
        match List.rev s.Lla_obs.Profile.path with
        | leaf :: _ when String.equal leaf name -> acc + s.Lla_obs.Profile.count
        | _ -> acc)
      0 stats
  in
  Alcotest.(check int) "kernel.step timed per tick" 30 (count_of "kernel.step");
  Alcotest.(check int) "allocate timed per tick" 30 (count_of "allocate")

(* ------------------------------------------------------------------ *)
(* Problem order at the API boundary                                   *)
(* ------------------------------------------------------------------ *)

(* The kernel stores subtasks resource-major; every subtask index and
   array crossing its API is in problem order. On a scenario whose
   subtasks are not already grouped by resource, a slip in that mapping
   moves a value to the wrong subtask. *)
let test_kernel_problem_order () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks:300 ()) ~seed:5 () in
  let k = kernel_exn w in
  let problem = Kernel.problem k in
  let subs = problem.Lla.Problem.subtasks in
  let n = Array.length subs in
  let grouped =
    Array.for_all
      (fun members ->
        let m = Array.length members in
        m = 0 || members.(m - 1) - members.(0) = m - 1)
      problem.Lla.Problem.by_resource
  in
  Alcotest.(check bool) "scenario interleaves resources" false grouped;
  let lo i = Float.max 1e-9 subs.(i).Lla.Problem.lat_lo in
  let hi i =
    let s = subs.(i) in
    Float.max (lo i)
      (Float.min s.Lla.Problem.stability
         problem.Lla.Problem.tasks.(s.Lla.Problem.task).Lla.Problem.critical_time)
  in
  let same_bits x y = Int64.bits_of_float x = Int64.bits_of_float y in
  let check ~what ~expect got =
    Array.iteri
      (fun j v ->
        let want = expect j in
        if not (same_bits v want) then
          Alcotest.failf "%s: [%d] = %.17g, expected %.17g" what j v want)
      got
  in
  (* one full tick re-solves every subtask, so every latency is inside
     its bounds from here on *)
  Kernel.run k ~iterations:20;
  let moved = ref 0 in
  for i = 0 to n - 1 do
    if i mod 13 = 0 then begin
      let before = Kernel.lat_array k in
      let d = -0.5 *. (before.(i) -. lo i) in
      Kernel.disturb_latency k i d;
      let after = Kernel.lat_array k in
      if not (same_bits after.(i) before.(i)) then incr moved;
      check ~what:(Printf.sprintf "disturb_latency %d" i)
        ~expect:(fun j -> if j = i then Float.max (lo i) (before.(i) +. d) else before.(j))
        after
    end
  done;
  if !moved = 0 then Alcotest.fail "no disturbance moved a latency";
  (* enter_fallback: a distinct value per subtask, each clamped in place *)
  let fallback =
    Array.init n (fun i ->
        match i mod 4 with
        | 0 | 1 -> lo i +. ((hi i -. lo i) *. float_of_int (i + 1) /. float_of_int (n + 1))
        | 2 -> hi i +. 1e3 +. float_of_int i
        | _ -> nan)
  in
  Kernel.enter_fallback k ~mu_cap ~lat:fallback;
  check ~what:"enter_fallback"
    ~expect:(fun i ->
      let v = fallback.(i) in
      if not (Float.is_finite v) then hi i
      else if v < lo i then lo i
      else if v > hi i then hi i
      else v)
    (Kernel.lat_array k);
  (* restore_iterate of the kernel's own copies is the identity *)
  Kernel.run k ~iterations:10;
  let lat = Kernel.lat_array k
  and mu = Array.copy (Kernel.mu_array k)
  and lambda = Array.copy (Kernel.lambda_array k) in
  (match Kernel.restore_iterate k ~lat ~mu ~lambda with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore_iterate: %s" e);
  check ~what:"restored lat" ~expect:(Array.get lat) (Kernel.lat_array k);
  check ~what:"restored mu" ~expect:(Array.get mu) (Kernel.mu_array k);
  check ~what:"restored lambda" ~expect:(Array.get lambda) (Kernel.lambda_array k);
  (* retire_task pins exactly its own block's problem indices *)
  let task = 3 in
  let members = problem.Lla.Problem.tasks.(task).Lla.Problem.subtask_indices in
  let before = Kernel.lat_array k in
  Kernel.retire_task k task;
  check ~what:"retire_task"
    ~expect:(fun j -> if Array.mem j members then 1. else before.(j))
    (Kernel.lat_array k);
  (* lat_array hands out a copy *)
  let a = Kernel.lat_array k in
  let v = a.(0) in
  a.(0) <- v +. 1.;
  Alcotest.(check (float 0.)) "writing the copy leaves the kernel" v (Kernel.lat_array k).(0)

(* ------------------------------------------------------------------ *)
(* Golden bit-identity                                                 *)
(* ------------------------------------------------------------------ *)

(* The kernel≡solver properties above allow 1e-9 slack, and the churn /
   restore checks compare the kernel with itself. These goldens hold
   the kernel to a fixed reference bit for bit, in two parts. The
   iterate digest covers every latency, price, the tick count, the
   guard count and the utility: any change to the kernel's layout or
   pass order that moves one of them changes the hex string. The three
   cumulative touch counts are pinned as plain integers beside it, so a
   change to what the dirty sets visit reads as a count, and the
   iterate digest shows that it moved no bit. The first four goldens
   were recorded before the clearing start existed, so they run
   [scale_config] from the cold start. *)
let cold_scale_config = { Kernel.scale_config with Kernel.price_init = Kernel.Cold }

let golden_kernel ?(config = cold_scale_config) ?(subtasks = 10_000) () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks ()) ~seed:42 () in
  let k = kernel_exn ~config w in
  if Kernel.solve k ~max_iterations:4_000 = None then
    Alcotest.failf "%d-subtask golden scenario: no solve" subtasks;
  Kernel.run k ~iterations:200;
  k

let iterate_digest k =
  let b = Buffer.create (1 lsl 18) in
  let float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  Array.iter float (Kernel.lat_array k);
  Array.iter float (Kernel.mu_array k);
  Array.iter float (Kernel.lambda_array k);
  int (Kernel.iteration k);
  int (Kernel.guard_events k);
  float (Kernel.utility k);
  Digest.to_hex (Digest.string (Buffer.contents b))

let check_golden ~what ~digest ~touched k =
  Alcotest.(check string) (what ^ ": iterate digest") digest (iterate_digest k);
  let c = Kernel.cumulative_touch k in
  Alcotest.(check (triple int int int))
    (what ^ ": subtasks, resources and paths touched")
    touched
    (c.Kernel.subtasks_touched, c.Kernel.resources_touched, c.Kernel.paths_touched)

let test_golden_solve () =
  check_golden ~what:"10k seed-42 after solve + 200 ticks"
    ~digest:"84cb868c3e79cfb4cec39805ca890425" ~touched:(2163843, 45237, 801998) (golden_kernel ())

let between_ticks k =
  let lat = Array.copy (Kernel.lat_array k)
  and mu = Array.copy (Kernel.mu_array k)
  and lambda = Array.copy (Kernel.lambda_array k) in
  Kernel.retire_task k 3;
  Kernel.retire_task k 7;
  Kernel.run k ~iterations:3;
  Kernel.admit_task k 3;
  Kernel.run k ~iterations:3;
  Kernel.poison_price k 0 nan;
  Kernel.poison_price k 5 nan;
  Kernel.run k ~iterations:2;
  Kernel.disturb_latency k 11 250.;
  Kernel.disturb_latency k 4_000 (-1e9);
  Kernel.run k ~iterations:2;
  let fallback =
    Array.mapi (fun i v -> v *. (1. +. (float_of_int (i mod 7) /. 10.))) (Kernel.lat_array k)
  in
  Kernel.enter_fallback k ~mu_cap ~lat:fallback;
  Kernel.set_frozen k true;
  Kernel.run k ~iterations:10;
  Kernel.set_frozen k false;
  Kernel.requeue_all k;
  Kernel.run k ~iterations:5;
  Kernel.crash_reset k;
  (match Kernel.restore_iterate k ~lat ~mu ~lambda with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore_iterate: %s" e);
  Kernel.run k ~iterations:50

let test_golden_between_ticks () =
  let k = golden_kernel () in
  between_ticks k;
  check_golden ~what:"10k seed-42 after churn, poison, disturbance, fallback and restore"
    ~digest:"a807061d4fc8b37b1c701c3c462520ee" ~touched:(2454865, 51946, 963220) k

let test_golden_64k_solve () =
  check_golden ~what:"64k seed-42 after solve + 200 ticks"
    ~digest:"f8e32c690a2c65b05ff9d4696ce97d45" ~touched:(13640221, 255522, 6172393)
    (golden_kernel ~subtasks:64_000 ())

let test_golden_64k_between_ticks () =
  let k = golden_kernel ~subtasks:64_000 () in
  between_ticks k;
  check_golden ~what:"64k seed-42 after churn, poison, disturbance, fallback and restore"
    ~digest:"cb23fadba2af8445337d06c18ca4fd50" ~touched:(14769891, 280264, 6525923) k

let test_golden_clearing_solve () =
  check_golden ~what:"10k seed-42 clearing start after solve + 200 ticks"
    ~digest:"728a95d48a2c170e2078e72657feb101" ~touched:(10001, 200, 3141)
    (golden_kernel ~config:Kernel.scale_config ())

let test_golden_64k_clearing_solve () =
  check_golden ~what:"64k seed-42 clearing start after solve + 200 ticks"
    ~digest:"a8deda7ba6bb8975bb50dcd5eb3c0c84" ~touched:(64755, 1614, 20610)
    (golden_kernel ~config:Kernel.scale_config ~subtasks:64_000 ())

(* At the clearing fixpoint every price update is the identity, so once
   the solve has converged a tick has nothing to visit. *)
let test_converged_tick_quiescent () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks:10_000 ()) ~seed:42 () in
  let k = kernel_exn ~config:Kernel.scale_config w in
  if Kernel.solve k ~max_iterations:4_000 = None then Alcotest.fail "10k seed-42: no solve";
  Kernel.step k;
  let c = Kernel.last_touch k in
  Alcotest.(check (triple int int int))
    "subtasks, resources and paths visited by a converged tick" (0, 0, 0)
    (c.Kernel.subtasks_touched, c.Kernel.resources_touched, c.Kernel.paths_touched)

(* ------------------------------------------------------------------ *)
(* Golden build outputs                                                *)
(* ------------------------------------------------------------------ *)

(* The kernel digests pin iterates; these pin what the iterates are
   computed from: the generated workload's text and every array
   [Problem.compile] builds from it, floats by bits. *)
let golden_workload () =
  Generator.generate ~params:(Generator.sized ~subtasks:10_000 ()) ~seed:42 ()

let test_golden_workload_text () =
  let text = Workload_codec.to_string (golden_workload ()) in
  Alcotest.(check int) "10k seed-42 workload bytes" 1_182_590 (String.length text);
  Alcotest.(check string)
    "10k seed-42 workload MD5" "4be00c8283a8a102e7d6983abf140ae4"
    (Digest.to_hex (Digest.string text))

let problem_digest (p : Lla.Problem.t) =
  let b = Buffer.create (1 lsl 20) in
  let float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let ints a =
    int (Array.length a);
    Array.iter int a
  in
  let str s =
    int (String.length s);
    Buffer.add_string b s
  in
  Array.iteri
    (fun i (s : Lla.Problem.subtask) ->
      int (Ids.Subtask_id.to_int s.sid);
      int (Lla.Problem.subtask_index p s.sid - i);
      str s.name;
      int s.task;
      int s.resource;
      float s.exec;
      float s.weight;
      float s.share.Share.lat_min;
      float (s.share.Share.eval (2. *. s.share.Share.lat_min));
      float s.lat_lo;
      float s.lat_hi;
      float s.stability;
      ints s.paths)
    p.subtasks;
  Array.iter
    (fun (q : Lla.Problem.path) ->
      int q.task;
      int q.index_in_task;
      ints q.subtask_indices;
      float q.critical_time;
      ints q.path_resources)
    p.paths;
  Array.iteri
    (fun i (t : Lla.Problem.task) ->
      int (Ids.Task_id.to_int t.tid);
      int (Lla.Problem.task_index p t.tid - i);
      str t.task_name;
      (match t.linear_slope with Some k -> float k | None -> int (-1));
      float t.critical_time;
      ints t.subtask_indices;
      ints t.path_indices)
    p.tasks;
  Array.iteri
    (fun r id ->
      int (Ids.Resource_id.to_int id);
      int (Lla.Problem.resource_index p id - r);
      float p.capacities.(r);
      ints p.by_resource.(r))
    p.resource_ids;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_compiled_problem () =
  Alcotest.(check string)
    "10k seed-42 compiled problem digest" "54a7c2a528b0a565144c9cec37501b11"
    (problem_digest (Lla.Problem.compile (golden_workload ())))

(* Words per subtask to generate, compile and compact the 10^4 scenario:
   minor words plus the words allocated straight into the major heap
   (arrays of 256 words or more), so that moving data into big arrays is
   counted, not hidden. 196.8 (167.8 minor, 29.0 direct) on the flat
   build; the map/list build took 360.2 (326.3 minor, 33.9 direct), and
   the Map/Set build before it 887 minor. The budget is 5 % above it.
   [Gc.minor_words] and the promoted and major totals of [Gc.counters]
   are exact at any point ([Gc.quick_stat]'s totals move only at
   collections, and [Gc.counters]' minor total is not exact), and
   allocation is deterministic, so this is exact, not a timing. *)
let build_words_budget = 207.

let test_build_allocation () =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let minor0 = Gc.minor_words () and direct0 = direct () in
  let problem = Lla.Problem.compile (golden_workload ()) in
  (match Kernel.of_problem ~config:Kernel.scale_config problem with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "Kernel.of_problem: %s" e);
  let words = Gc.minor_words () -. minor0 +. (direct () -. direct0) in
  let per_subtask = words /. float_of_int (Lla.Problem.n_subtasks problem) in
  if per_subtask > build_words_budget then
    Alcotest.failf "build allocates %.1f words per subtask (budget %.0f)" per_subtask
      build_words_budget

(* ------------------------------------------------------------------ *)
(* Clearing-price start                                                *)
(* ------------------------------------------------------------------ *)

(* The share sums and path latencies of the kernel's live latencies, in
   the order the kernel adds them. *)
let sums k =
  let problem = Kernel.problem k in
  let lat = Kernel.lat_array k in
  let shares =
    Array.map
      (fun members ->
        Array.fold_left
          (fun acc i ->
            let w = problem.Lla.Problem.subtasks.(i).Lla.Problem.share.Share.lat_min in
            acc +. (w /. Float.max w lat.(i)))
          0. members)
      problem.Lla.Problem.by_resource
  in
  let paths =
    Array.map
      (fun (p : Lla.Problem.path) ->
        Array.fold_left (fun acc i -> acc +. lat.(i)) 0. p.Lla.Problem.subtask_indices)
      problem.Lla.Problem.paths
  in
  (shares, paths)

(* Complementary slackness at the start prices, read after the first
   tick, which allocates at them: a priced constraint is tight within
   1e-9 relative, an unpriced one holds. Seed 8 is the first 2k seed
   whose start prices a path (one of 669); every resource is priced. *)
let test_clearing_kkt_at_start () =
  let w = Generator.generate ~params:(Generator.sized ~subtasks:2_000 ()) ~seed:8 () in
  let k = kernel_exn ~config:Kernel.scale_config w in
  let mu = Array.copy (Kernel.mu_array k) and lambda = Array.copy (Kernel.lambda_array k) in
  Kernel.step k;
  let shares, paths = sums k in
  let problem = Kernel.problem k in
  let check ~what ~price ~bound ~value =
    let priced = ref 0 in
    Array.iteri
      (fun j v ->
        let b = bound j in
        if price.(j) > 0. then begin
          incr priced;
          if Float.abs (v -. b) > 1e-9 *. b then
            Alcotest.failf "%s %d: price %g but %.17g vs bound %.17g" what j price.(j) v b
        end
        else if v > b then Alcotest.failf "%s %d: unpriced but %.17g > %.17g" what j v b)
      value;
    if !priced = 0 then Alcotest.failf "no %s is priced: the check is vacuous" what
  in
  check ~what:"resource" ~price:mu ~bound:(Array.get problem.Lla.Problem.capacities) ~value:shares;
  check ~what:"path" ~price:lambda
    ~bound:(fun p -> problem.Lla.Problem.paths.(p).Lla.Problem.critical_time)
    ~value:paths

(* Two tasks over two resources. Task 1's chain needs 5 ms at its
   lower bounds against a 4 ms critical time, and its first subtask
   needs half of resource 0 even at its upper bound, which offers 5%.
   No price clears either, so both keep the cold values; resource 1 and
   task 2's path still clear. *)
let test_clearing_total () =
  let sub ~id ~task ~resource ~exec =
    Subtask.make ~id ~task:(Ids.Task_id.make task) ~resource ~exec_time:exec ()
  in
  let task ~id ~subtasks ~critical_time =
    let ids = List.map (fun (s : Subtask.t) -> s.Subtask.id) subtasks in
    let rec chain = function a :: (b :: _ as rest) -> (a, b) :: chain rest | _ -> [] in
    Task.make_exn ~id ~subtasks
      ~graph:(Graph.make_exn ~nodes:ids ~edges:(chain ids))
      ~critical_time
      ~utility:(Utility.linear ~k:2. ~critical_time)
      ~trigger:(Trigger.periodic ~period:400. ())
      ()
  in
  let w =
    Workload.make_exn
      ~tasks:
        [
          task ~id:1 ~critical_time:4.
            ~subtasks:[ sub ~id:1 ~task:1 ~resource:0 ~exec:2.; sub ~id:2 ~task:1 ~resource:1 ~exec:3. ];
          task ~id:2 ~critical_time:30.
            ~subtasks:[ sub ~id:3 ~task:2 ~resource:1 ~exec:1.; sub ~id:4 ~task:2 ~resource:1 ~exec:1. ];
        ]
      ~resources:[ Resource.make ~availability:0.05 0; Resource.make ~availability:0.9 1 ]
  in
  let config = Kernel.scale_config in
  let k = kernel_exn ~config w in
  let mu = Array.copy (Kernel.mu_array k) and lambda = Array.copy (Kernel.lambda_array k) in
  Alcotest.(check (float 0.)) "overloaded resource keeps mu0" 1. mu.(0);
  Alcotest.(check (float 0.)) "unreachable path keeps lambda0" 0. lambda.(0);
  if not (mu.(1) > 0. && Float.is_finite mu.(1)) then
    Alcotest.failf "resource 1 should clear at a finite positive price, got %g" mu.(1);
  if not (Array.for_all Float.is_finite lambda && Array.for_all (fun l -> l >= 0.) lambda) then
    Alcotest.fail "non-finite or negative path price";
  Kernel.run k ~iterations:100;
  if not (Array.for_all Float.is_finite (Kernel.mu_array k)) then
    Alcotest.fail "non-finite resource price after 100 ticks";
  Alcotest.(check int) "no guard events" 0 (Kernel.guard_events k)

(* From the clearing start every 10^4 scenario stops at the 50-tick
   window's minimum plus the first tick's move; the cold start takes
   55-127 ticks on the same seeds. *)
let test_clearing_seed_matrix () =
  for seed = 1 to 10 do
    let w = Generator.generate ~params:(Generator.sized ~subtasks:10_000 ()) ~seed () in
    let k = kernel_exn ~config:Kernel.scale_config w in
    match Kernel.solve k ~max_iterations:60 with
    | Some _ when Kernel.feasible k -> ()
    | Some n -> Alcotest.failf "seed %d: stopped at tick %d but infeasible" seed n
    | None -> Alcotest.failf "seed %d: no convergence within 60 ticks" seed
  done

(* [Schedulability.probe] rejects some generator seeds under
   [small_params]: 30, 480 and 1329 of seeds 1-3000, and 459088 and
   696667, the seeds that QCHECK_SEED 155 and 573 draw. Over QCHECK_SEED
   1-1500 the admission property above fails on six (155, 573, 749,
   1202, 1372 and 1403), about one run in 250. The scenarios are
   schedulable: from the clearing start the kernel meets Eq. 3/4 at tick
   51 on each. From the cold start seed 480 takes 837 ticks and seeds 30
   and 1329 do not converge within 8000, and the probe's step ladder has
   no clearing rung. Seed 30 (76 subtasks, 15 resources) is a unit-sized
   cold-start repro. *)
let test_clearing_probe_rejects () =
  List.iter
    (fun seed ->
      let w = Generator.generate ~params:(small_params seed) ~seed () in
      let k = kernel_exn ~config:Kernel.scale_config w in
      match Kernel.solve k ~max_iterations:60 with
      | Some _ when Kernel.feasible k -> ()
      | Some n -> Alcotest.failf "seed %d: stopped at tick %d but infeasible" seed n
      | None -> Alcotest.failf "seed %d: no convergence within 60 ticks" seed)
    [ 30; 480; 1329; 459088; 696667 ]

let () =
  Alcotest.run "scale"
    [
      ( "generator",
        [
          Alcotest.test_case "same seed is byte-identical" `Quick test_generator_deterministic;
          Alcotest.test_case "reaches the subtask target" `Quick test_generator_reaches_target;
          Alcotest.test_case "witness fits every capacity" `Quick test_generator_witness_fits;
          qcheck prop_generator_deterministic;
          qcheck prop_generator_schedulable;
        ] );
      ( "kernel",
        [
          qcheck prop_kernel_matches_solver;
          qcheck prop_kernel_matches_solver_fixed_step;
          qcheck prop_kernel_matches_solver_split_step;
          qcheck prop_kernel_matches_full_sweep;
          Alcotest.test_case "full-sweep oracle on congestion-flip seeds" `Quick
            test_full_sweep_flip_seeds;
          Alcotest.test_case "movement matches the solver" `Quick test_kernel_movement_matches;
          Alcotest.test_case "rejects non-linear utilities" `Quick test_kernel_rejects_nonlinear;
          Alcotest.test_case "solves and sparsifies at 2k subtasks" `Quick
            test_kernel_solves_and_sparsifies;
          Alcotest.test_case "tick allocates zero minor words" `Quick test_kernel_tick_zero_alloc;
          Alcotest.test_case "64k tick allocates zero minor words" `Quick test_64k_tick_zero_alloc;
          Alcotest.test_case "profiled run times every tick" `Quick test_kernel_profiled_run;
          Alcotest.test_case "API arrays stay in problem order" `Quick test_kernel_problem_order;
        ] );
      ( "golden",
        [
          Alcotest.test_case "digest after solve + 200 ticks" `Quick test_golden_solve;
          Alcotest.test_case "digest after between-tick calls" `Quick test_golden_between_ticks;
          Alcotest.test_case "64k digest after solve + 200 ticks" `Quick test_golden_64k_solve;
          Alcotest.test_case "64k digest after between-tick calls" `Quick
            test_golden_64k_between_ticks;
          Alcotest.test_case "clearing-start digest after solve + 200 ticks" `Quick
            test_golden_clearing_solve;
          Alcotest.test_case "64k clearing-start digest after solve + 200 ticks" `Quick
            test_golden_64k_clearing_solve;
          Alcotest.test_case "a converged clearing-start tick visits nothing" `Quick
            test_converged_tick_quiescent;
          Alcotest.test_case "10k workload text" `Quick test_golden_workload_text;
          Alcotest.test_case "10k compiled problem" `Quick test_golden_compiled_problem;
          Alcotest.test_case "10k build stays under its allocation budget" `Quick
            test_build_allocation;
        ] );
      ( "clearing",
        [
          Alcotest.test_case "priced constraints are tight at the start" `Quick
            test_clearing_kkt_at_start;
          Alcotest.test_case "overload and unreachable deadline fall back" `Quick
            test_clearing_total;
          Alcotest.test_case "10k seeds 1-10 converge within 60 ticks" `Quick
            test_clearing_seed_matrix;
          Alcotest.test_case "probe-rejected seeds solve within 60 ticks" `Quick
            test_clearing_probe_rejects;
        ] );
    ]
