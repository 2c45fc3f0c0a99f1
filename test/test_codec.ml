(* Tests for the workload text codec and the admission controller. *)

open Lla_model

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

let sample_text =
  {|
# a two-task pipeline
resource 0 name=cpu kind=cpu availability=0.8 lag=1
resource 1 name=link kind=link availability=0.9

task 1 name=pipeline critical_time=50 utility=linear:2 trigger=periodic:100 variant=path-weighted percentile=100
subtask 10 task=1 name=stage-a resource=0 exec=8 share=reciprocal
subtask 11 task=1 name=stage-b resource=1 exec=4 share=power:1.5
edge 10 11

task 2 name=probe critical_time=80 utility=softdl:10:50 trigger=poisson:25 percentile=99
subtask 20 task=2 resource=0 exec=2
subtask 21 task=2 resource=1 exec=2
edge 20 21
|}

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let resource (w : Workload.t) i =
  List.find (fun (r : Resource.t) -> Ids.Resource_id.to_int r.id = i) w.resources

let parse_exn text =
  match Workload_codec.parse text with
  | Ok w -> w
  | Error msg -> Alcotest.fail ("parse failed: " ^ msg)

let test_parse_sample () =
  let w = parse_exn sample_text in
  Alcotest.(check int) "tasks" 2 (List.length w.Workload.tasks);
  Alcotest.(check int) "resources" 2 (List.length w.Workload.resources);
  let pipeline = Workload.task w (Ids.Task_id.make 1) in
  Alcotest.(check string) "name" "pipeline" pipeline.Task.name;
  check_close "critical time" 50. pipeline.Task.critical_time;
  check_close "lag parsed" 1. (resource w 0).Resource.lag;
  let stage_b = Workload.subtask w (Ids.Subtask_id.make 11) in
  (match stage_b.Subtask.share_spec with
  | Share.Power { exponent } -> check_close "power share" 1.5 exponent
  | Share.Reciprocal -> Alcotest.fail "expected a power share");
  let probe = Workload.task w (Ids.Task_id.make 2) in
  check_close "percentile" 99. probe.Task.latency_percentile;
  check_close "poisson rate" 0.025 (Trigger.mean_rate probe.Task.trigger)

let test_parse_solves () =
  let w = parse_exn sample_text in
  let solver = Lla.Solver.create w in
  match Lla.Solver.run_until_converged solver ~max_iterations:4000 with
  | Some _ -> Alcotest.(check bool) "feasible" true (Lla.Solver.feasible solver)
  | None -> Alcotest.fail "parsed workload should converge"

let expect_parse_error ~substring text =
  match Workload_codec.parse text with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected an error mentioning %S" substring)
  | Error msg ->
    let contains =
      let nl = String.length substring and hl = String.length msg in
      let rec scan i = i + nl <= hl && (String.sub msg i nl = substring || scan (i + 1)) in
      nl = 0 || scan 0
    in
    Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg substring) true contains

let test_parse_errors () =
  expect_parse_error ~substring:"no tasks" "resource 0\n";
  expect_parse_error ~substring:"unknown directive" "bogus 1 2 3\n";
  expect_parse_error ~substring:"line 2"
    "resource 0\nresource x\ntask 1 critical_time=1 utility=negative trigger=periodic:10\n";
  expect_parse_error ~substring:"missing required attribute"
    "resource 0\ntask 1 utility=negative trigger=periodic:10\nsubtask 5 task=1 resource=0 exec=1\n";
  expect_parse_error ~substring:"unknown trigger"
    "resource 0\ntask 1 critical_time=5 utility=negative trigger=cron:5\nsubtask 5 task=1 resource=0 exec=1\n";
  expect_parse_error ~substring:"unknown utility"
    "resource 0\ntask 1 critical_time=5 utility=步:1 trigger=periodic:10\nsubtask 5 task=1 resource=0 exec=1\n";
  expect_parse_error ~substring:"no subtasks"
    "resource 0\ntask 1 critical_time=5 utility=negative trigger=periodic:10\n";
  expect_parse_error ~substring:"undeclared task"
    "resource 0\n\
     task 1 critical_time=5 utility=negative trigger=periodic:10\n\
     subtask 5 task=1 resource=0 exec=1\n\
     subtask 6 task=9 resource=0 exec=1\n";
  expect_parse_error ~substring:"crosses tasks"
    "resource 0\nresource 1\n\
     task 1 critical_time=5 utility=negative trigger=periodic:10\n\
     subtask 5 task=1 resource=0 exec=1\n\
     task 2 critical_time=5 utility=negative trigger=periodic:10\n\
     subtask 6 task=2 resource=1 exec=1\n\
     edge 5 6\n"

(* The parser groups subtask and edge lines by task once; each error path
   of that grouping, with its exact message and line. *)
let test_parse_grouped_errors () =
  let expect msg text =
    match Workload_codec.parse text with
    | Ok _ -> Alcotest.failf "expected %S" msg
    | Error got -> Alcotest.(check string) "message" msg got
  in
  let header = "resource 0\nresource 1\n" in
  let task id =
    Printf.sprintf "task %d critical_time=50 utility=negative trigger=periodic:100\n" id
  in
  let subtask id task = Printf.sprintf "subtask %d task=%d resource=0 exec=1\n" id task in
  (* a task whose subtasks are all declared under another id *)
  expect "line 3: task 1 has no subtasks" (header ^ task 1 ^ task 2 ^ subtask 5 2);
  (* an edge into another task, after the task's own subtasks *)
  expect "line 7: edge 5 -> 6 crosses tasks"
    (header ^ task 1 ^ subtask 5 1 ^ task 2 ^ subtask 6 2 ^ "edge 5 6\n");
  (* an id two tasks declare brings its edges to both: task 1 accepts
     5 -> 6, task 2 sees the same edge leave its copy of 5 *)
  expect "line 9: edge 5 -> 6 crosses tasks"
    (header ^ task 1 ^ subtask 5 1 ^ subtask 6 1 ^ task 2 ^ subtask 5 2 ^ subtask 7 2
   ^ "edge 5 6\n");
  (* the graph's own checks keep their messages (no line) *)
  expect "graph contains a cycle"
    (header ^ task 1 ^ subtask 4 1 ^ subtask 5 1 ^ subtask 6 1 ^ "edge 4 5\nedge 5 6\nedge 6 5\n");
  (* ... and come before the utility's *)
  expect "graph has 2 roots; the paper's task model requires a unique start subtask"
    (header ^ "task 1 critical_time=50 utility=bogus trigger=periodic:100\n" ^ subtask 5 1
   ^ subtask 6 1);
  expect "line 3: unknown utility spec \"bogus\""
    (header ^ "task 1 critical_time=50 utility=bogus trigger=periodic:100\n" ^ subtask 5 1);
  expect "T1: duplicate subtask ids" (header ^ task 1 ^ subtask 5 1 ^ subtask 5 1);
  (* every task is built before orphans are looked for *)
  expect "line 10: edge 9 -> 6 crosses tasks"
    (header ^ task 1 ^ subtask 5 1 ^ subtask 8 9 ^ subtask 6 1 ^ "edge 5 6\n" ^ task 2
   ^ subtask 9 2 ^ "edge 9 6\n");
  expect "line 5: subtask 8 references undeclared task 9"
    (header ^ task 1 ^ subtask 5 1 ^ subtask 8 9 ^ subtask 6 1 ^ "edge 5 6\n");
  (* an edge whose source no task declares belongs to no task *)
  expect "line 5: edge 99 -> 5 leaves undeclared subtask 99"
    (header ^ task 1 ^ subtask 5 1 ^ "edge 99 5\n");
  (* orphans still come first *)
  expect "line 5: subtask 8 references undeclared task 9"
    (header ^ task 1 ^ subtask 5 1 ^ subtask 8 9 ^ "edge 99 5\n");
  (* a duplicate id across tasks that passes both tasks is the workload's *)
  expect "workload: subtask ids are not globally unique"
    (header ^ task 1 ^ subtask 5 1 ^ task 2 ^ subtask 5 2)

(* A generated 10^4-subtask scenario re-serializes byte for byte. *)
let test_roundtrip_10k () =
  let w =
    Lla_scale.Generator.generate ~params:(Lla_scale.Generator.sized ~subtasks:10_000 ()) ~seed:42 ()
  in
  let text = Workload_codec.to_string w in
  Alcotest.(check string) "parse then to_string" text (Workload_codec.to_string (parse_exn text))

let test_parse_comments_and_hash_names () =
  let text =
    "resource 0 name=cpu#1   # trailing comment\n\
     task 1 critical_time=5 utility=negative trigger=periodic:10\n\
     subtask 5 task=1 name=T1#1 resource=0 exec=1\n"
  in
  let w = parse_exn text in
  Alcotest.(check string) "hash kept inside names" "T1#1"
    (Workload.subtask w (Ids.Subtask_id.make 5)).Subtask.name;
  Alcotest.(check string) "resource name" "cpu#1"
    (resource w 0).Resource.name

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let workloads_equal (a : Workload.t) (b : Workload.t) =
  (* Structural equality via the serialized form plus a behavioural probe:
     the solver must produce the same allocation on both. *)
  let solve w =
    let solver = Lla.Solver.create w in
    Lla.Solver.run solver ~iterations:400;
    (Lla.Solver.utility solver, List.map snd (Lla.Solver.latencies solver))
  in
  let ua, la = solve a and ub, lb = solve b in
  Float.abs (ua -. ub) < 1e-9 && List.for_all2 (fun x y -> Float.abs (x -. y) < 1e-9) la lb

let test_roundtrip_paper_workloads () =
  List.iter
    (fun (name, w) ->
      let text = Workload_codec.to_string w in
      let w' = parse_exn text in
      Alcotest.(check bool) (name ^ " round-trips") true (workloads_equal w w');
      (* Second round trip is a fixpoint. *)
      Alcotest.(check string) (name ^ " serialization stable") text (Workload_codec.to_string w'))
    [
      ("base", Lla_workloads.Paper_sim.base ());
      ("six", Lla_workloads.Paper_sim.scaled ~copies:2 ());
      ("prototype", Lla_workloads.Prototype.workload ());
      ( "phased prototype",
        Lla_workloads.Prototype.workload_with_rate_change ~switch_at:1000. ~fast_period_after:20.
          () );
    ]

let prop_roundtrip_random =
  QCheck.Test.make ~name:"codec: random workloads round-trip" ~count:25
    QCheck.(int_range 1 5000)
    (fun seed ->
      let w = Lla_workloads.Random_gen.generate ~seed () in
      match Workload_codec.parse (Workload_codec.to_string w) with
      | Error _ -> false
      | Ok w' -> workloads_equal w w')

let test_file_io () =
  let path = Filename.temp_file "lla_codec" ".lla" in
  let w = Lla_workloads.Paper_sim.base () in
  Workload_codec.save ~path w;
  let result = Workload_codec.load ~path in
  Sys.remove path;
  match result with
  | Ok w' -> Alcotest.(check bool) "file round trip" true (workloads_equal w w')
  | Error msg -> Alcotest.fail msg

let test_load_missing_file () =
  match Workload_codec.load ~path:"/nonexistent/definitely/missing.lla" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

let test_custom_utility_not_serializable () =
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:1. () in
  let task =
    Task.make_exn ~id:1 ~subtasks:[ a ]
      ~graph:(Graph.chain [ a.Subtask.id ])
      ~critical_time:10.
      ~utility:(Utility.custom ~name:"opaque" ~f:(fun x -> -.x) ~df:(fun _ -> -1.))
      ~trigger:(Trigger.periodic ~period:10. ())
      ()
  in
  let w = Workload.make_exn ~tasks:[ task ] ~resources:[ Resource.make 0 ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Workload_codec.to_string w);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Admission                                                           *)
(* ------------------------------------------------------------------ *)

let chain_task ~id ~exec ~period ~critical_time =
  let tid = Ids.Task_id.make id in
  let subtasks =
    List.init 2 (fun j ->
        Subtask.make ~id:((id * 10) + j) ~task:tid ~resource:j ~exec_time:exec ())
  in
  Task.make_exn ~id ~subtasks
    ~graph:(Graph.chain (List.map (fun (s : Subtask.t) -> s.id) subtasks))
    ~critical_time
    ~utility:(Utility.linear ~k:2. ~critical_time)
    ~trigger:(Trigger.periodic ~period ())
    ()

let admission_resources =
  [ Resource.make ~availability:0.35 0; Resource.make ~availability:0.35 1 ]

let test_admission_accepts_until_full () =
  let controller = Lla.Admission.create ~probe_iterations:1500 ~resources:admission_resources () in
  (* A task must split C = 100 ms between its two 5 ms subtasks, so each
     needs share >= 5 / 50 = 0.1 per resource at best; with B = 0.35 three
     tasks fit (0.3) and the fourth cannot (0.4). *)
  let decisions =
    List.map
      (fun id ->
        Lla.Admission.try_admit controller
          (chain_task ~id ~exec:5. ~period:200. ~critical_time:100.))
      [ 1; 2; 3; 4 ]
  in
  let admitted = function Lla.Admission.Admitted _ -> true | Lla.Admission.Rejected _ -> false in
  Alcotest.(check (list bool)) "three fit, fourth rejected" [ true; true; true; false ]
    (List.map admitted decisions);
  Alcotest.(check int) "accepted set" 3 (List.length (Lla.Admission.admitted controller))

let test_admission_rejection_keeps_state () =
  let controller = Lla.Admission.create ~probe_iterations:1500 ~resources:admission_resources () in
  ignore
    (Lla.Admission.try_admit controller
       (chain_task ~id:1 ~exec:5. ~period:200. ~critical_time:100.));
  let before = Lla.Admission.utility controller in
  (match
     Lla.Admission.try_admit controller
       (chain_task ~id:2 ~exec:50. ~period:500. ~critical_time:25.)
   with
  | Lla.Admission.Rejected _ -> ()
  | Lla.Admission.Admitted _ -> Alcotest.fail "impossible task admitted");
  Alcotest.(check int) "state unchanged" 1 (List.length (Lla.Admission.admitted controller));
  match (before, Lla.Admission.utility controller) with
  | Some a, Some b -> check_close ~eps:1e-6 "utility unchanged" a b
  | _ -> Alcotest.fail "expected utilities"

let test_admission_id_collision () =
  let controller = Lla.Admission.create ~probe_iterations:500 ~resources:admission_resources () in
  ignore (Lla.Admission.try_admit controller (chain_task ~id:1 ~exec:2. ~period:100. ~critical_time:50.));
  match Lla.Admission.try_admit controller (chain_task ~id:1 ~exec:2. ~period:100. ~critical_time:50.) with
  | Lla.Admission.Rejected { reason } ->
    Alcotest.(check bool) "reason mentions ids" true (String.length reason > 0)
  | Lla.Admission.Admitted _ -> Alcotest.fail "duplicate id admitted"

let test_admission_retire_frees_capacity () =
  let controller = Lla.Admission.create ~probe_iterations:1500 ~resources:admission_resources () in
  List.iter
    (fun id ->
      ignore
        (Lla.Admission.try_admit controller
           (chain_task ~id ~exec:5. ~period:200. ~critical_time:100.)))
    [ 1; 2; 3 ];
  (match
     Lla.Admission.try_admit controller (chain_task ~id:4 ~exec:5. ~period:200. ~critical_time:100.)
   with
  | Lla.Admission.Rejected _ -> ()
  | Lla.Admission.Admitted _ -> Alcotest.fail "should be full");
  Alcotest.(check bool) "retire" true (Lla.Admission.retire controller (Ids.Task_id.make 2));
  Alcotest.(check bool) "retire absent task" false
    (Lla.Admission.retire controller (Ids.Task_id.make 2));
  match
    Lla.Admission.try_admit controller (chain_task ~id:4 ~exec:5. ~period:200. ~critical_time:100.)
  with
  | Lla.Admission.Admitted _ -> ()
  | Lla.Admission.Rejected { reason } -> Alcotest.fail ("expected admission after retire: " ^ reason)

let test_admission_retire_readmit_cycle () =
  (* Churn: fill the controller, retire a member, admit a strictly heavier
     replacement into the freed headroom, and check the re-solved utility
     is consistent — with the decision's own report, with a fresh offline
     solve of the accepted workload, and directionally with the heavier
     execution demand. *)
  let controller = Lla.Admission.create ~probe_iterations:1500 ~resources:admission_resources () in
  List.iter
    (fun id ->
      ignore
        (Lla.Admission.try_admit controller
           (chain_task ~id ~exec:5. ~period:200. ~critical_time:100.)))
    [ 1; 2; 3 ];
  let before =
    match Lla.Admission.utility controller with
    | Some u -> u
    | None -> Alcotest.fail "expected a utility for the full set"
  in
  Alcotest.(check bool) "retire" true (Lla.Admission.retire controller (Ids.Task_id.make 2));
  (* Two 5 ms tasks + one 6.5 ms task need 0.1 + 0.1 + 0.13 = 0.33 <= 0.35
     per resource: heavier than the retiree but still feasible. *)
  let decision_utility =
    match
      Lla.Admission.try_admit controller
        (chain_task ~id:4 ~exec:6.5 ~period:200. ~critical_time:100.)
    with
    | Lla.Admission.Admitted { utility; _ } -> utility
    | Lla.Admission.Rejected { reason } ->
      Alcotest.fail ("heavier replacement should fit: " ^ reason)
  in
  Alcotest.(check int) "set size restored" 3 (List.length (Lla.Admission.admitted controller));
  let after =
    match Lla.Admission.utility controller with
    | Some u -> u
    | None -> Alcotest.fail "expected a utility after re-admission"
  in
  Alcotest.(check bool)
    (Printf.sprintf "decision utility matches re-solve (%.3f ~ %.3f)" decision_utility after)
    true
    (Float.abs (decision_utility -. after) /. Float.max 1. (Float.abs after) < 0.02);
  Alcotest.(check bool)
    (Printf.sprintf "heavier set earns less utility (%.2f < %.2f)" after before)
    true (after < before);
  (* The controller's utility must agree with an independent solve of the
     workload it reports. *)
  match Lla.Admission.workload controller with
  | None -> Alcotest.fail "expected a workload"
  | Some w ->
    let solver = Lla.Solver.create w in
    ignore (Lla.Solver.run_until_converged solver ~max_iterations:4000);
    let fresh = Lla.Solver.utility solver in
    Alcotest.(check bool)
      (Printf.sprintf "fresh solve agrees (%.3f ~ %.3f)" fresh after)
      true
      (Float.abs (fresh -. after) /. Float.max 1. (Float.abs fresh) < 0.02)

let test_admission_empty () =
  let controller = Lla.Admission.create ~resources:admission_resources () in
  Alcotest.(check int) "empty" 0 (List.length (Lla.Admission.admitted controller));
  Alcotest.(check bool) "no workload" true (Lla.Admission.workload controller = None);
  Alcotest.(check bool) "no utility" true (Lla.Admission.utility controller = None)

let () =
  Alcotest.run "lla_codec"
    [
      ( "parse",
        [
          Alcotest.test_case "sample file" `Quick test_parse_sample;
          Alcotest.test_case "parsed workload solves" `Slow test_parse_solves;
          Alcotest.test_case "error reporting" `Quick test_parse_errors;
          Alcotest.test_case "grouped declarations: errors" `Quick test_parse_grouped_errors;
          Alcotest.test_case "comments and # in names" `Quick test_parse_comments_and_hash_names;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "paper workloads" `Slow test_roundtrip_paper_workloads;
          Alcotest.test_case "10k generated scenario, byte for byte" `Quick test_roundtrip_10k;
          QCheck_alcotest.to_alcotest prop_roundtrip_random;
          Alcotest.test_case "file io" `Quick test_file_io;
          Alcotest.test_case "missing file" `Quick test_load_missing_file;
          Alcotest.test_case "custom utility rejected" `Quick test_custom_utility_not_serializable;
        ] );
      ( "admission",
        [
          Alcotest.test_case "accepts until full" `Slow test_admission_accepts_until_full;
          Alcotest.test_case "rejection keeps state" `Slow test_admission_rejection_keeps_state;
          Alcotest.test_case "id collision" `Quick test_admission_id_collision;
          Alcotest.test_case "retire frees capacity" `Slow test_admission_retire_frees_capacity;
          Alcotest.test_case "retire/re-admit cycle re-solves" `Slow
            test_admission_retire_readmit_cycle;
          Alcotest.test_case "empty controller" `Quick test_admission_empty;
        ] );
    ]
