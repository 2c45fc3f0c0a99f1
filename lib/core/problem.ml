open Lla_model

type subtask = {
  sid : Ids.Subtask_id.t;
  name : string;
  task : int;
  resource : int;
  exec : float;
  weight : float;
  share : Share.t;
  lat_lo : float;
  lat_hi : float;
  mutable stability : float;
  paths : int array;
}

type path = {
  task : int;
  index_in_task : int;
  subtask_indices : int array;
  critical_time : float;
  path_resources : int array;
}

type task = {
  tid : Ids.Task_id.t;
  task_name : string;
  utility : Utility.t;
  linear_slope : float option;
  critical_time : float;
  subtask_indices : int array;
  path_indices : int array;
}

type t = {
  workload : Workload.t;
  subtasks : subtask array;
  tasks : task array;
  paths : path array;
  capacities : float array;
  resource_ids : Ids.Resource_id.t array;
  by_resource : int array array;
  subtask_of : int Ids.Subtask_id.Tbl.t;
  resource_of : int Ids.Resource_id.Tbl.t;
  task_of : int Ids.Task_id.Tbl.t;
}

(* A utility has a constant derivative iff df agrees at a few probe points
   spanning the relevant latency range; the paper's linear utilities are
   exact matches and get the closed-form allocation. *)
let detect_linear_slope (u : Utility.t) ~critical_time =
  let d0 = u.Utility.df 1e-3 in
  let same x = Float.abs (u.Utility.df x -. d0) <= 1e-12 *. Float.max 1. (Float.abs d0) in
  if same (0.25 *. critical_time) && same (0.5 *. critical_time) && same critical_time then
    Some d0
  else None

(* [invert n iter] lists, for each bucket 0..n-1, the items that [iter add]
   passes to [add item bucket], in the order passed: one pass counts, a
   second fills, so the whole costs O(n + items) and no list. *)
let invert n iter =
  let count = Array.make n 0 in
  iter (fun _ b -> count.(b) <- count.(b) + 1);
  let buckets = Array.map (fun c -> Array.make c 0) count in
  Array.fill count 0 n 0;
  iter (fun x b ->
      buckets.(b).(count.(b)) <- x;
      count.(b) <- count.(b) + 1);
  buckets

(* Compilation is linear in the workload size: ids resolve through hash
   tables sized to their final count, never through the workload's
   association lists (whose lookups are O(n) and would make compile
   quadratic — prohibitive for the Lla_scale generator's
   10^4..10^6-subtask scenarios), and a path member through its task's
   graph node number. Subtasks are numbered in task order, then in each
   task's list order. *)
let compile (workload : Workload.t) =
  let resources = Array.of_list workload.Workload.resources in
  let n_res = Array.length resources in
  let resource_of = Ids.Resource_id.Tbl.create n_res in
  Array.iteri (fun i (r : Resource.t) -> Ids.Resource_id.Tbl.replace resource_of r.id i) resources;
  let task_arr = Array.of_list workload.Workload.tasks in
  let n_tasks = Array.length task_arr in
  let task_of = Ids.Task_id.Tbl.create n_tasks in
  Array.iteri (fun i (t : Task.t) -> Ids.Task_id.Tbl.replace task_of t.id i) task_arr;
  (* [sub_start.(ti)] / [path_start.(ti)]: the number of task ti's first
     subtask / first path; entry n_tasks holds the totals. *)
  let sub_start = Array.make (n_tasks + 1) 0 and path_start = Array.make (n_tasks + 1) 0 in
  let widest = ref 0 in
  Array.iteri
    (fun ti (t : Task.t) ->
      let n = List.length t.Task.subtasks in
      widest := Stdlib.max !widest n;
      sub_start.(ti + 1) <- sub_start.(ti) + n;
      path_start.(ti + 1) <- path_start.(ti) + Task.n_paths t)
    task_arr;
  let n_sub = sub_start.(n_tasks) and n_paths = path_start.(n_tasks) in
  (* One pass numbers the subtasks; [node_sub.(sub_start.(ti) + k)] is
     the number of the subtask at task ti's graph node k. *)
  let records = Array.make n_sub (List.hd task_arr.(0).Task.subtasks) in
  let subtask_of = Ids.Subtask_id.Tbl.create n_sub in
  let resource = Array.make n_sub 0 and node_sub = Array.make n_sub 0 in
  Array.iteri
    (fun ti (t : Task.t) ->
      let base = sub_start.(ti) in
      List.iteri
        (fun j (s : Subtask.t) ->
          let i = base + j in
          records.(i) <- s;
          Ids.Subtask_id.Tbl.replace subtask_of s.id i;
          resource.(i) <- Ids.Resource_id.Tbl.find resource_of s.resource;
          node_sub.(base + Graph.index t.Task.graph s.id) <- i)
        t.Task.subtasks)
    task_arr;
  (* Global path numbering: task order, then Graph.paths order. A path's
     resources are its members' distinct resources in ascending id order,
     kept sorted in [distinct] by insertion as the members come. *)
  let resource_ids = Array.map (fun (r : Resource.t) -> r.id) resources in
  let key r = Ids.Resource_id.to_int resource_ids.(r) in
  let distinct = Array.make !widest 0 in
  let paths =
    Array.make n_paths
      {
        task = 0;
        index_in_task = 0;
        subtask_indices = [||];
        critical_time = 0.;
        path_resources = [||];
      }
  in
  Array.iteri
    (fun ti (t : Task.t) ->
      let base = sub_start.(ti) in
      for q = 0 to Task.n_paths t - 1 do
        let first = t.Task.path_off.(q) in
        let subtask_indices = Array.make (t.Task.path_off.(q + 1) - first) 0 in
        let count = ref 0 in
        for e = 0 to Array.length subtask_indices - 1 do
          let i = node_sub.(base + t.Task.path_members.(first + e)) in
          subtask_indices.(e) <- i;
          let r = resource.(i) in
          let k = ref !count in
          while !k > 0 && key distinct.(!k - 1) > key r do
            decr k
          done;
          if !k = 0 || distinct.(!k - 1) <> r then begin
            Array.blit distinct !k distinct (!k + 1) (!count - !k);
            distinct.(!k) <- r;
            incr count
          end
        done;
        paths.(path_start.(ti) + q) <-
          {
            task = ti;
            index_in_task = q;
            subtask_indices;
            critical_time = t.Task.critical_time;
            path_resources = Array.sub distinct 0 !count;
          }
      done)
    task_arr;
  (* Each path enters itself in its members' lists, so every list comes
     out in ascending path order. *)
  let own_paths =
    invert n_sub (fun add ->
        Array.iteri (fun p (q : path) -> Array.iter (add p) q.subtask_indices) paths)
  in
  (* [Array.init] runs in index order, so [ti] advances to the task of
     subtask i as i grows. *)
  let ti = ref 0 in
  let subtasks =
    Array.init n_sub (fun i ->
        while sub_start.(!ti + 1) <= i do
          incr ti
        done;
        let s = records.(i) and t = task_arr.(!ti) in
        let r = resources.(resource.(i)) in
        let share = Subtask.share_function s ~lag:r.Resource.lag in
        (* Inlined Workload.latency_bounds / min_share: those helpers
           re-locate the subtask and its owner by list scan, which is
           fine for ad-hoc queries but quadratic inside compile. The
           arithmetic is identical — the owning task is already [t]. *)
        let floor_share = Task.arrival_rate t *. s.Subtask.exec_time in
        let stability =
          if floor_share > 0. then share.Lla_model.Share.inverse floor_share else infinity
        in
        let lat_lo = share.Lla_model.Share.lat_min in
        let lat_hi_raw = Float.min stability t.Task.critical_time in
        let lat_hi = Float.max lat_lo lat_hi_raw in
        {
          sid = s.id;
          name = s.name;
          task = !ti;
          resource = resource.(i);
          exec = s.exec_time;
          weight = Task.weight t s.id;
          share;
          lat_lo;
          lat_hi;
          stability;
          paths = own_paths.(i);
        })
  in
  let tasks =
    Array.mapi
      (fun ti (t : Task.t) ->
        {
          tid = t.id;
          task_name = t.Task.name;
          utility = t.Task.utility;
          linear_slope = detect_linear_slope t.Task.utility ~critical_time:t.Task.critical_time;
          critical_time = t.Task.critical_time;
          subtask_indices =
            Array.init (sub_start.(ti + 1) - sub_start.(ti)) (fun j -> sub_start.(ti) + j);
          path_indices = Array.init (Task.n_paths t) (fun k -> path_start.(ti) + k);
        })
      task_arr
  in
  (* Iterating [i] in ascending order preserves the ascending
     subtask-index order the solver's share sums rely on. *)
  let by_resource = invert n_res (fun add -> Array.iteri add resource) in
  {
    workload;
    subtasks;
    tasks;
    paths;
    capacities = Array.map (fun (r : Resource.t) -> r.availability) resources;
    resource_ids;
    by_resource;
    subtask_of;
    resource_of;
    task_of;
  }

let n_subtasks t = Array.length t.subtasks

let n_resources t = Array.length t.capacities

let n_paths t = Array.length t.paths

let n_tasks t = Array.length t.tasks

let subtask_index t id = Ids.Subtask_id.Tbl.find t.subtask_of id

let resource_index t id = Ids.Resource_id.Tbl.find t.resource_of id

let task_index t id = Ids.Task_id.Tbl.find t.task_of id

let aggregate_latency t i ~lat =
  let info = t.tasks.(i) in
  Array.fold_left
    (fun acc si -> acc +. (t.subtasks.(si).weight *. lat.(si)))
    0. info.subtask_indices

let task_utility t i ~lat = t.tasks.(i).utility.Lla_model.Utility.f (aggregate_latency t i ~lat)

let total_utility t ~lat =
  let acc = ref 0. in
  Array.iteri (fun i _ -> acc := !acc +. task_utility t i ~lat) t.tasks;
  !acc

(* The error-correction offset shifts the model's latency prediction:
   corrected_latency(share) = model_latency(share) + offset, hence
   share(lat) = model_share(lat - offset). Keep the argument at or above
   the share function's own minimum so a large offset cannot drive the
   model into nonsense (negative or superunity shares). *)
let effective_share t i ~lat ~offset =
  let s = t.subtasks.(i) in
  let arg = Float.max s.share.Lla_model.Share.lat_min (lat -. offset) in
  s.share.Lla_model.Share.eval arg

let share_sum t r ~lat ~offsets =
  Array.fold_left
    (fun acc i -> acc +. effective_share t i ~lat:lat.(i) ~offset:offsets.(i))
    0. t.by_resource.(r)

let path_latency t p ~lat =
  Array.fold_left (fun acc i -> acc +. lat.(i)) 0. t.paths.(p).subtask_indices
