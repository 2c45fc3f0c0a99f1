open Lla_model

type shape =
  | Chain
  | Fan_out
  | Diamond

(* Every generated workload: 4 tasks of 3-7 subtasks on 8 resources
   (distinct resources within a task), WCETs from U(1, 8) ms, witness
   latencies of exec * U(2, 6), critical times 1.15x the witness
   critical path, availabilities 1.15x the witness share sums. *)
let n_tasks = 4

let n_resources = 8

let min_subtasks = 3

let max_subtasks = 7

let exec_lo, exec_hi = (1., 8.)

let latency_slack = 4.

let critical_time_margin = 1.15

let capacity_margin = 1.15

let shape_of_int = function 0 -> Chain | 1 -> Fan_out | _ -> Diamond

(* Build the edge list for a shape over subtasks 0..n-1 (local indices). *)
let edges_of_shape shape n =
  match shape with
  | Chain -> List.init (n - 1) (fun i -> (i, i + 1))
  | Fan_out ->
    (* 0 -> 1 -> {2..n-1}; degenerate to a chain when n < 3. *)
    if n < 3 then List.init (n - 1) (fun i -> (i, i + 1))
    else (0, 1) :: List.init (n - 2) (fun i -> (1, i + 2))
  | Diamond ->
    (* 0 -> {1..k} -> k+1 -> chain tail; needs n >= 4. *)
    if n < 4 then List.init (n - 1) (fun i -> (i, i + 1))
    else begin
      let branches = Stdlib.max 2 ((n - 2) / 2) in
      let join = branches + 1 in
      let branch_edges =
        List.concat (List.init branches (fun b -> [ (0, b + 1); (b + 1, join) ]))
      in
      let tail_edges = List.init (n - 1 - join) (fun i -> (join + i, join + i + 1)) in
      branch_edges @ tail_edges
    end

let period = 400.

(* Drawn description of one task before materialization. *)
type draft = {
  task_id : int;
  shape : shape;
  execs : float array;
  lats : float array;  (* witness latencies, mutated by the rescale pass *)
  resources : int array;
}

let generate ~seed () =
  let rng = Lla_stdx.Rng.create ~seed in
  (* Pass 1: draw shapes, execution times, witness latencies, resources. *)
  let drafts =
    List.init n_tasks (fun ti ->
        let task_id = ti + 1 in
        let n =
          min_subtasks
          + Lla_stdx.Rng.int rng ~bound:(max_subtasks - min_subtasks + 1)
        in
        let shape = shape_of_int (Lla_stdx.Rng.int rng ~bound:3) in
        let resource_pool = Array.init n_resources Fun.id in
        Lla_stdx.Rng.shuffle rng resource_pool;
        let execs =
          Array.init n (fun _ -> Lla_stdx.Rng.uniform rng ~lo:exec_lo ~hi:exec_hi)
        in
        let lats =
          Array.map
            (fun e -> e *. Lla_stdx.Rng.uniform rng ~lo:2. ~hi:(2. +. latency_slack))
            execs
        in
        { task_id; shape; execs; lats; resources = Array.sub resource_pool 0 n })
  in
  (* Pass 2: the witness must fit within availabilities <= 1. If any
     resource's witness share sum would need more than 1/capacity_margin,
     stretch every witness latency by a common factor (shares scale down
     inversely, preserving the structure of the draw). *)
  let witness_share drafts =
    let sums = Array.make n_resources 0. in
    List.iter
      (fun d ->
        Array.iteri
          (fun j r -> sums.(r) <- sums.(r) +. (d.execs.(j) /. d.lats.(j)))
          d.resources)
      drafts;
    sums
  in
  let max_sum = Array.fold_left Float.max 0. (witness_share drafts) in
  let scale = Float.max 1. (max_sum *. capacity_margin) in
  List.iter (fun d -> Array.iteri (fun j lat -> d.lats.(j) <- lat *. scale) d.lats) drafts;
  let sums = witness_share drafts in
  (* Pass 3: materialize tasks; critical times from the (scaled) witness. *)
  let tasks =
    List.map
      (fun d ->
        let tid = Ids.Task_id.make d.task_id in
        let n = Array.length d.execs in
        let subtasks =
          List.init n (fun j ->
              Subtask.make
                ~id:((d.task_id * 100) + j)
                ~task:tid ~resource:d.resources.(j) ~exec_time:d.execs.(j) ())
        in
        let sid j = (List.nth subtasks j : Subtask.t).id in
        let graph =
          Graph.make_exn
            ~nodes:(List.map (fun (s : Subtask.t) -> s.id) subtasks)
            ~edges:(List.map (fun (a, b) -> (sid a, sid b)) (edges_of_shape d.shape n))
        in
        let _, witness_critical_path =
          Graph.critical_path graph ~latency:(fun id ->
              d.lats.(Ids.Subtask_id.to_int id - (d.task_id * 100)))
        in
        let critical_time = critical_time_margin *. witness_critical_path in
        Task.make_exn ~variant:Utility.Path_weighted ~id:d.task_id ~subtasks ~graph ~critical_time
          ~utility:(Utility.linear ~k:2. ~critical_time)
          ~trigger:(Trigger.periodic ~period ())
          ())
      drafts
  in
  let resources =
    List.init n_resources (fun r ->
        let availability =
          if sums.(r) = 0. then 1. else Float.min 1. (capacity_margin *. sums.(r))
        in
        Resource.make ~availability r)
  in
  Workload.make_exn ~tasks ~resources

let make_unschedulable ?(severity = 2.5) ~seed (workload : Workload.t) =
  if severity <= 1. then invalid_arg "Random_gen.make_unschedulable: severity <= 1";
  ignore seed;
  let tasks =
    List.map
      (fun (t : Task.t) ->
        let critical_time = t.Task.critical_time /. severity in
        let t = Task.with_critical_time t critical_time in
        Task.with_utility t (Utility.linear ~k:2. ~critical_time))
      workload.Workload.tasks
  in
  Workload.make_exn ~tasks ~resources:workload.Workload.resources
