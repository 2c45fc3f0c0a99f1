open Lla_model

(* Table 1 of the paper. Each subtask: (local name, resource, exec ms,
   reported optimal latency ms). *)
let task1_spec =
  [
    ("T11", 0, 2., 9.7);
    ("T12", 1, 3., 13.8);
    ("T13", 2, 4., 19.5);
    ("T14", 3, 5., 14.4);
    ("T15", 4, 4., 21.4);
    ("T16", 5, 3., 10.5);
    ("T17", 6, 2., 19.2);
  ]

let task2_spec =
  [
    ("T21", 0, 2., 10.3);
    ("T22", 1, 4., 15.0);
    ("T23", 2, 3., 15.1);
    ("T24", 4, 6., 19.3);
    ("T25", 5, 7., 12.8);
    ("T26", 6, 5., 16.6);
    ("T27", 3, 2., 5.1);
    ("T28", 7, 3., 9.3);
  ]

let task3_spec =
  [
    ("T31", 0, 3., 9.9);
    ("T32", 1, 2., 7.9);
    ("T33", 2, 2., 6.2);
    ("T34", 4, 3., 9.8);
    ("T35", 6, 4., 10.3);
    ("T36", 7, 4., 8.7);
  ]

let critical_times = [ ("task1", 45.); ("task2", 76.); ("task3", 53.) ]

let reported_critical_paths = [ ("task1", 44.9); ("task2", 75.6); ("task3", 52.8) ]

let reported_latencies =
  List.concat_map
    (List.map (fun (name, _, _, lat) -> (name, lat)))
    [ task1_spec; task2_spec; task3_spec ]

(* B_r = the share sums implied by Table 1's reported optimum (lag 0):
   sum over subtasks on r of exec / latency. This realizes "we chose the
   parameters such that all resources are close to congestion". *)
let resource_availabilities =
  let sums = Array.make 8 0. in
  List.iter
    (List.iter (fun (_, r, exec, lat) -> sums.(r) <- sums.(r) +. (exec /. lat)))
    [ task1_spec; task2_spec; task3_spec ];
  sums

(* Edges by local subtask name, per the Fig. 4 shapes (see .mli). *)
let task1_edges =
  [ ("T11", "T12"); ("T12", "T13"); ("T12", "T14"); ("T12", "T15"); ("T12", "T16"); ("T12", "T17") ]

let task2_edges =
  [
    ("T21", "T22");
    ("T21", "T23");
    ("T22", "T24");
    ("T23", "T25");
    ("T24", "T26");
    ("T25", "T26");
    ("T26", "T27");
    ("T27", "T28");
  ]

let task3_edges =
  [ ("T31", "T32"); ("T32", "T33"); ("T33", "T34"); ("T34", "T35"); ("T35", "T36") ]

let resources_of availability_scale =
  List.init 8 (fun i ->
      let kind = if i mod 2 = 0 then Resource.Cpu else Resource.Link in
      Resource.make ~kind
        ~availability:(Float.min 1. (resource_availabilities.(i) *. availability_scale))
        i)

let period = 100.

(* Build one task from a spec. [id_base] offsets subtask ids so copies get
   globally unique ids; [copy] suffixes names. *)
let build_task ~variant ~task_id ~name ~spec ~edges ~critical_time =
  let id_base = task_id * 100 in
  let tid = Ids.Task_id.make task_id in
  let index_of = List.mapi (fun i (n, _, _, _) -> (n, i)) spec in
  let sid_of n = Ids.Subtask_id.make (id_base + List.assoc n index_of) in
  let subtasks =
    List.mapi
      (fun i (n, resource, exec_time, _) ->
        Subtask.make ~name:(Printf.sprintf "%s#%d" n task_id)
          ~id:(id_base + i) ~task:tid ~resource ~exec_time ())
      spec
  in
  let graph =
    Graph.make_exn
      ~nodes:(List.map (fun (n, _, _, _) -> sid_of n) spec)
      ~edges:(List.map (fun (a, b) -> (sid_of a, sid_of b)) edges)
  in
  Task.make_exn ~name ~variant ~id:task_id ~subtasks ~graph ~critical_time
    ~utility:(Utility.linear ~k:2. ~critical_time)
    ~trigger:(Trigger.periodic ~period ())
    ()

let specs =
  [
    ("task1", task1_spec, task1_edges, 45.);
    ("task2", task2_spec, task2_edges, 76.);
    ("task3", task3_spec, task3_edges, 53.);
  ]

let build ?(variant = Utility.Path_weighted) ~copies ~critical_time_factor () =
  if copies < 1 then invalid_arg "Paper_sim: copies < 1";
  let tasks =
    List.concat
      (List.init copies (fun copy ->
           List.mapi
             (fun i (base_name, spec, edges, ct) ->
               let task_id = (copy * 10) + i + 1 in
               let name =
                 if copy = 0 then base_name else Printf.sprintf "%s.copy%d" base_name copy
               in
               build_task ~variant ~task_id ~name ~spec ~edges
                 ~critical_time:(ct *. critical_time_factor))
             specs))
  in
  Workload.make_exn ~tasks ~resources:(resources_of 1.0)

let base ?variant () = build ?variant ~copies:1 ~critical_time_factor:1.0 ()

let scaled ?critical_time_factor ~copies () =
  let critical_time_factor =
    match critical_time_factor with
    | Some f -> f
    | None -> if copies = 1 then 1.0 else 1.25 *. float_of_int copies
  in
  build ~copies ~critical_time_factor ()

let unschedulable_six () = build ~copies:2 ~critical_time_factor:1.0 ()
