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

(* Edge lists over local subtask indices 0..n-1; [n] is determined by the
   shape draw so the caller learns it from the builder. *)
let shape_edges shape ~depth ~width =
  match shape with
  | Chain ->
    (* 0 -> 1 -> ... -> depth-1 *)
    (depth, List.init (depth - 1) (fun i -> (i, i + 1)))
  | Fan_out_tree ->
    (* trunk 0..depth-1, then the last trunk node fans out to [width]
       leaves (a request that forks to parallel downstream services). *)
    let n = depth + width in
    let trunk = List.init (depth - 1) (fun i -> (i, i + 1)) in
    let leaves = List.init width (fun j -> (depth - 1, depth + j)) in
    (n, trunk @ leaves)
  | Aggregation_dag ->
    (* source 0 forks into [width] branches of length [b], all joining at
       a final aggregation node (scatter/gather). *)
    let b = Stdlib.max 1 (depth - 2) in
    let n = 2 + (width * b) in
    let join = n - 1 in
    let branch j =
      let first = 1 + (j * b) in
      ((0, first) :: List.init (b - 1) (fun k -> (first + k, first + k + 1)))
      @ [ (first + b - 1, join) ]
    in
    (n, List.concat (List.init width branch))

(* Drawn description of one task before materialization. *)
type draft = {
  task_id : int;
  first_sid : int;  (* global id of local subtask 0 *)
  edges : (int * int) list;
  execs : float array;
  lats : float array;  (* witness latencies, mutated by the rescale pass *)
  resources : int array;
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
    let n, edges = shape_edges shape ~depth ~width in
    let execs = Array.init n (fun _ -> Lla_stdx.Rng.uniform rng ~lo:exec_lo ~hi:exec_hi) in
    let lats =
      Array.map
        (fun e -> e *. Lla_stdx.Rng.uniform rng ~lo:2. ~hi:(2. +. latency_slack))
        execs
    in
    let resources = Array.init n (fun _ -> draw_resource rng p) in
    let ulo, uhi = utility_k_range in
    let k = Lla_stdx.Rng.uniform rng ~lo:ulo ~hi:uhi in
    let mlo, mhi = critical_margin_range in
    let margin = Lla_stdx.Rng.uniform rng ~lo:mlo ~hi:mhi in
    drafts :=
      { task_id = !next_task; first_sid = !total_subtasks + 1; edges; execs; lats;
        resources; k; margin }
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
        Array.iteri (fun j r -> sums.(r) <- sums.(r) +. (d.execs.(j) /. d.lats.(j))) d.resources)
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
  let period = Float.max 400. (4. *. max_lat) in
  (* Pass 3: materialize tasks; critical times from the (scaled) witness. *)
  let tasks =
    List.map
      (fun d ->
        let tid = Ids.Task_id.make d.task_id in
        let n = Array.length d.execs in
        let subtasks =
          List.init n (fun j ->
              Subtask.make ~id:(d.first_sid + j) ~task:tid ~resource:d.resources.(j)
                ~exec_time:d.execs.(j) ())
        in
        let sid j = Ids.Subtask_id.make (d.first_sid + j) in
        let graph =
          Graph.make_exn
            ~nodes:(List.map (fun (s : Subtask.t) -> s.id) subtasks)
            ~edges:(List.map (fun (a, b) -> (sid a, sid b)) d.edges)
        in
        let _, witness_critical_path =
          Graph.critical_path graph ~latency:(fun id ->
              d.lats.(Ids.Subtask_id.to_int id - d.first_sid))
        in
        let critical_time = d.margin *. witness_critical_path in
        Task.make_exn ~variant:Utility.Path_weighted ~id:d.task_id ~subtasks ~graph
          ~critical_time
          ~utility:(Utility.linear ~k:d.k ~critical_time)
          ~trigger:(Trigger.periodic ~period ())
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
    List.fold_left (fun acc (t : Task.t) -> acc + Array.length t.Task.paths) 0 w.Workload.tasks
  in
  Printf.sprintf "%d tasks / %d subtasks / %d paths / %d resources" tasks subtasks paths
    (List.length w.Workload.resources)
