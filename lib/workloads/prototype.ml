open Lla_model

let fast_min_share = 0.04 *. 5. (* 40/s = 0.04/ms, WCET 5 ms *)

let slow_min_share = 0.01 *. 13.

let reported_shares =
  [ ("fast-before", 0.26); ("fast-after", 0.20); ("slow-before", 0.19); ("slow-after", 0.25) ]

let fast_task_ids = [ Ids.Task_id.make 1; Ids.Task_id.make 2 ]

let slow_task_ids = [ Ids.Task_id.make 3; Ids.Task_id.make 4 ]

let chain_task ~task_id ~name ~exec_time ~trigger ~critical_time =
  let tid = Ids.Task_id.make task_id in
  let subtasks =
    List.init 3 (fun stage ->
        Subtask.make
          ~name:(Printf.sprintf "%s.s%d" name stage)
          ~id:((task_id * 10) + stage)
          ~task:tid ~resource:stage ~exec_time ())
  in
  let graph = Graph.chain (List.map (fun (s : Subtask.t) -> s.id) subtasks) in
  Task.make_exn ~name ~id:task_id ~subtasks ~graph ~critical_time
    ~utility:(Utility.negative_latency ())
    ~trigger ()

let build ~fast_trigger () =
  let resources =
    List.init 3 (fun i -> Resource.make ~kind:Resource.Cpu ~availability:0.9 ~lag:5. i)
  in
  let slow_trigger = Trigger.periodic ~period:100. () in
  let tasks =
    [
      chain_task ~task_id:1 ~name:"fast1" ~exec_time:5. ~trigger:fast_trigger
        ~critical_time:105.;
      chain_task ~task_id:2 ~name:"fast2" ~exec_time:5. ~trigger:fast_trigger
        ~critical_time:105.;
      chain_task ~task_id:3 ~name:"slow1" ~exec_time:13. ~trigger:slow_trigger
        ~critical_time:800.;
      chain_task ~task_id:4 ~name:"slow2" ~exec_time:13. ~trigger:slow_trigger
        ~critical_time:800.;
    ]
  in
  Workload.make_exn ~tasks ~resources

let workload () =
  build ~fast_trigger:(Trigger.periodic ~period:25. ()) ()

let workload_with_rate_change ~switch_at ~fast_period_after () =
  let fast_trigger =
    Trigger.phased
      ~before:(Trigger.periodic ~period:25. ())
      ~switch_at
      ~after:(Trigger.periodic ~period:fast_period_after ())
  in
  build ~fast_trigger ()
