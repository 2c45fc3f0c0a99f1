open Lla_model

type params = {
  target_subtasks : int;
  n_resources : int;
  chain_weight : float;
  fan_out_weight : float;
  aggregation_weight : float;
  sharing_skew : float;
}

let default_params =
  {
    target_subtasks = 10_000;
    n_resources = 256;
    chain_weight = 1.;
    fan_out_weight = 1.;
    aggregation_weight = 1.;
    sharing_skew = 2.;
  }

(* The draws every scenario shares: chain length / trunk depth and
   leaves / parallel branches (inclusive), per-subtask execution time in
   ms, the witness latency factor [exec * U(2, 2 + latency_slack)], the
   linear utility slope, the critical time over the witness critical
   path, and the capacity headroom over witness shares. *)
let depth_range = (2, 8)

let width_range = (2, 6)

let exec_range = (1., 8.)

let latency_slack = 4.

let utility_k_range = (1.5, 3.)

let critical_margin_range = (1.25, 1.6)

let capacity_margin = 1.25

let sized ?resources ~subtasks () =
  let resources =
    match resources with Some r -> r | None -> Stdlib.max 16 (subtasks / 50)
  in
  { default_params with target_subtasks = subtasks; n_resources = resources }

let validate p =
  if p.target_subtasks < 2 then invalid_arg "Generator: target_subtasks < 2";
  if p.n_resources < 1 then invalid_arg "Generator: n_resources < 1";
  if p.chain_weight < 0. || p.fan_out_weight < 0. || p.aggregation_weight < 0. then
    invalid_arg "Generator: negative shape weight";
  if p.chain_weight +. p.fan_out_weight +. p.aggregation_weight <= 0. then
    invalid_arg "Generator: all shape weights zero";
  if p.sharing_skew < 1. then invalid_arg "Generator: sharing_skew < 1"

type shape =
  | Chain
  | Fan_out_tree
  | Aggregation_dag

(* The number of subtasks of a shape draw. *)
let shape_size shape ~depth ~width =
  match shape with
  | Chain -> depth
  | Fan_out_tree -> depth + width
  | Aggregation_dag -> 2 + (width * Stdlib.max 1 (depth - 2))

(* The shape's edges over the global subtask ids [first ..], in
   declaration order. *)
let shape_edges shape ~depth ~width ~first =
  let edge a b = (Ids.Subtask_id.make (first + a), Ids.Subtask_id.make (first + b)) in
  (* a -> a+1 -> ... -> b, consed onto [rest] *)
  let rec run a b rest = if a >= b then rest else edge a (a + 1) :: run (a + 1) b rest in
  match shape with
  | Chain ->
    (* 0 -> 1 -> ... -> depth-1 *)
    run 0 (depth - 1) []
  | Fan_out_tree ->
    (* trunk 0..depth-1, then the last trunk node fans out to [width]
       leaves (a request that forks to parallel downstream services). *)
    run 0 (depth - 1) (List.init width (fun j -> edge (depth - 1) (depth + j)))
  | Aggregation_dag ->
    (* source 0 forks into [width] branches of length [b], all joining at
       a final aggregation node (scatter/gather). *)
    let b = Stdlib.max 1 (depth - 2) in
    let join = shape_size shape ~depth ~width - 1 in
    let rec branches j =
      if j = width then []
      else
        let head = 1 + (j * b) in
        let last = head + b - 1 in
        edge 0 head :: run head last (edge last join :: branches (j + 1))
    in
    branches 0

(* Drawn description of one task before materialization. *)
type draft = {
  task_id : int;
  first_sid : int;  (* global id of local subtask 0 *)
  shape : shape;
  depth : int;
  width : int;
  subtasks : Subtask.t list;
  lats : float array;  (* witness latencies, mutated by the rescale pass *)
  k : float;  (* linear utility slope *)
  margin : float;  (* critical time over witness critical path *)
}

let draw_shape rng p =
  let total = p.chain_weight +. p.fan_out_weight +. p.aggregation_weight in
  let u = Lla_stdx.Rng.uniform rng ~lo:0. ~hi:total in
  if u < p.chain_weight then Chain
  else if u < p.chain_weight +. p.fan_out_weight then Fan_out_tree
  else Aggregation_dag

let draw_in_range rng (lo, hi) = lo + Lla_stdx.Rng.int rng ~bound:(hi - lo + 1)

(* Zipf-ish resource pick: u^skew concentrates mass near index 0, giving
   hot resources shared by many tasks while the tail stays sparse. *)
let draw_resource rng p =
  let u = Lla_stdx.Rng.float rng in
  let idx = int_of_float (float_of_int p.n_resources *. (u ** p.sharing_skew)) in
  Stdlib.min (p.n_resources - 1) idx

let generate ?(params = default_params) ~seed () =
  validate params;
  let p = params in
  let rng = Lla_stdx.Rng.create ~seed in
  let exec_lo, exec_hi = exec_range in
  (* Pass 1: draw drafts until the subtask budget is reached. Draw order
     is fixed (shape, depth, width, execs, latency factors, resources,
     utility slope, critical margin) so generation is deterministic. *)
  let drafts = ref [] in
  let total_subtasks = ref 0 in
  let next_task = ref 1 in
  while !total_subtasks < p.target_subtasks do
    let shape = draw_shape rng p in
    let depth = draw_in_range rng depth_range in
    let width = draw_in_range rng width_range in
    let n = shape_size shape ~depth ~width in
    let execs = Array.init n (fun _ -> Lla_stdx.Rng.uniform rng ~lo:exec_lo ~hi:exec_hi) in
    let lats =
      Array.map
        (fun e -> e *. Lla_stdx.Rng.uniform rng ~lo:2. ~hi:(2. +. latency_slack))
        execs
    in
    let resources = Array.init n (fun _ -> draw_resource rng p) in
    let tid = Ids.Task_id.make !next_task in
    let subtasks =
      List.init n (fun j ->
          Subtask.make ~id:(!total_subtasks + 1 + j) ~task:tid ~resource:resources.(j)
            ~exec_time:execs.(j) ())
    in
    let ulo, uhi = utility_k_range in
    let k = Lla_stdx.Rng.uniform rng ~lo:ulo ~hi:uhi in
    let mlo, mhi = critical_margin_range in
    let margin = Lla_stdx.Rng.uniform rng ~lo:mlo ~hi:mhi in
    drafts :=
      { task_id = !next_task; first_sid = !total_subtasks + 1; shape; depth; width; subtasks;
        lats; k; margin }
      :: !drafts;
    incr next_task;
    total_subtasks := !total_subtasks + n
  done;
  let drafts = List.rev !drafts in
  (* Pass 2: the witness must fit within availabilities <= 1. If any
     resource's witness share sum would need more than 1/capacity_margin,
     stretch every witness latency by a common factor (shares scale down
     inversely, preserving the structure of the draw). *)
  let witness_share () =
    let sums = Array.make p.n_resources 0. in
    List.iter
      (fun d ->
        List.iteri
          (fun j (s : Subtask.t) ->
            let r = Ids.Resource_id.to_int s.resource in
            sums.(r) <- sums.(r) +. (s.exec_time /. d.lats.(j)))
          d.subtasks)
      drafts;
    sums
  in
  let max_sum = Array.fold_left Float.max 0. (witness_share ()) in
  let scale = Float.max 1. (max_sum *. capacity_margin) in
  List.iter (fun d -> Array.iteri (fun j lat -> d.lats.(j) <- lat *. scale) d.lats) drafts;
  let sums = witness_share () in
  (* The trigger period must exceed every witness latency so admission's
     rate-stability check has headroom; one shared period keeps scenarios
     comparable across sizes. *)
  let max_lat =
    List.fold_left (fun acc d -> Array.fold_left Float.max acc d.lats) 0. drafts
  in
  let trigger = Trigger.periodic ~period:(Float.max 400. (4. *. max_lat)) () in
  (* Pass 3: materialize tasks; critical times from the (scaled) witness. *)
  let tasks =
    List.map
      (fun d ->
        let subtasks = d.subtasks in
        let graph =
          Graph.make_exn
            ~nodes:(List.map (fun (s : Subtask.t) -> s.id) subtasks)
            ~edges:(shape_edges d.shape ~depth:d.depth ~width:d.width ~first:d.first_sid)
        in
        let _, witness_critical_path =
          Graph.critical_path graph ~latency:(fun id ->
              d.lats.(Ids.Subtask_id.to_int id - d.first_sid))
        in
        let critical_time = d.margin *. witness_critical_path in
        Task.make_exn ~variant:Utility.Path_weighted ~id:d.task_id ~subtasks ~graph
          ~critical_time
          ~utility:(Utility.linear ~k:d.k ~critical_time)
          ~trigger
          ())
      drafts
  in
  let resources =
    List.init p.n_resources (fun r ->
        let availability =
          if sums.(r) = 0. then 1. else Float.min 1. (capacity_margin *. sums.(r))
        in
        Resource.make ~availability r)
  in
  Workload.make_exn ~tasks ~resources

let describe (w : Workload.t) =
  let tasks = List.length w.Workload.tasks in
  let subtasks =
    List.fold_left (fun acc (t : Task.t) -> acc + List.length t.Task.subtasks) 0 w.Workload.tasks
  in
  let paths =
    List.fold_left (fun acc (t : Task.t) -> acc + Task.n_paths t) 0 w.Workload.tasks
  in
  Printf.sprintf "%d tasks / %d subtasks / %d paths / %d resources" tasks subtasks paths
    (List.length w.Workload.resources)
