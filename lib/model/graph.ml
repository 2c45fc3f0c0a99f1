open Ids

(* Node i is the i-th smallest id, so an id resolves to its number by
   binary search over [keys]; every algorithm below runs over those
   numbers. Orders that callers see (successors, paths, the topological
   order) follow the edge declaration order, never the numbering. *)
type t = {
  node_list : Subtask_id.t list;
  edge_list : (Subtask_id.t * Subtask_id.t) list;
  ids : Subtask_id.t array;
  keys : int array;  (* [ids] as ints *)
  succ : int array array;  (* successor numbers, in edge declaration order *)
  succ_ids : Subtask_id.t list array;  (* [succ] as ids, cached for [successors] *)
  pred_ids : Subtask_id.t list array;
  graph_root : int;
  topo : int array;
}

(* The number of node [s], or -1. *)
let number keys s = Sorted.find keys (Subtask_id.to_int s)

let index t s = number t.keys s

let nodes t = t.node_list

let edges t = t.edge_list

let node_count t = Array.length t.ids

let root t = t.ids.(t.graph_root)

let mem t s = index t s >= 0

let successors t s =
  let i = index t s in
  if i < 0 then invalid_arg "Graph.successors: unknown subtask";
  t.succ_ids.(i)

let predecessors t s =
  let i = index t s in
  if i < 0 then invalid_arg "Graph.predecessors: unknown subtask";
  t.pred_ids.(i)

let in_degree t s = List.length (predecessors t s)

let leaves t = List.filter (fun s -> successors t s = []) t.node_list

exception Invalid of string

let fail msg = raise_notrace (Invalid msg)

(* The checks run in a fixed order and the first failure wins, so every
   malformed input has exactly one message. *)
let validate node_list edge_list =
  if node_list = [] then fail "graph has no nodes";
  let keys = Sorted.of_list Subtask_id.to_int node_list in
  if Sorted.has_duplicate keys then fail "duplicate nodes in graph";
  let ids = Array.map Subtask_id.make keys in
  let n = Array.length ids in
  let m = List.length edge_list in
  let src = Array.make m 0 and dst = Array.make m 0 in
  List.iteri
    (fun k (a, b) ->
      let i = number keys a and j = number keys b in
      if i < 0 || j < 0 then
        fail
          (Printf.sprintf "edge (%s, %s) references an undeclared node" (Subtask_id.to_string a)
             (Subtask_id.to_string b));
      src.(k) <- i;
      dst.(k) <- j)
    edge_list;
  for k = 0 to m - 1 do
    if src.(k) = dst.(k) then fail "self edge in graph"
  done;
  let pairs = Array.init m (fun k -> (src.(k) * n) + dst.(k)) in
  Sorted.sort pairs;
  if Sorted.has_duplicate pairs then fail "duplicate edge in graph";
  (* Adjacency by count and fill, in declaration order; the id lists are
     consed from the last edge back. *)
  let in_deg = Array.make n 0 and fill = Array.make n 0 in
  Array.iter (fun i -> fill.(i) <- fill.(i) + 1) src;
  let succ = Array.map (fun d -> Array.make d 0) fill in
  Array.fill fill 0 n 0;
  let succ_ids = Array.make n [] and pred_ids = Array.make n [] in
  for k = m - 1 downto 0 do
    let i = src.(k) and j = dst.(k) in
    succ_ids.(i) <- ids.(j) :: succ_ids.(i);
    pred_ids.(j) <- ids.(i) :: pred_ids.(j);
    in_deg.(j) <- in_deg.(j) + 1
  done;
  for k = 0 to m - 1 do
    let i = src.(k) in
    succ.(i).(fill.(i)) <- dst.(k);
    fill.(i) <- fill.(i) + 1
  done;
  (* Kahn's algorithm: produces a topological order iff acyclic. The
     queue is the order itself, each node entering once; it starts with
     the roots. *)
  let topo = Array.make n 0 and tail = ref 0 in
  for i = 0 to n - 1 do
    if in_deg.(i) = 0 then begin
      topo.(!tail) <- i;
      incr tail
    end
  done;
  if !tail = 0 then fail "graph has no root (cycle through every node)";
  if !tail > 1 then
    fail
      (Printf.sprintf "graph has %d roots; the paper's task model requires a unique start subtask"
         !tail);
  let head = ref 0 in
  while !head < !tail do
    Array.iter
      (fun j ->
        in_deg.(j) <- in_deg.(j) - 1;
        if in_deg.(j) = 0 then begin
          topo.(!tail) <- j;
          incr tail
        end)
      succ.(topo.(!head));
    incr head
  done;
  if !tail <> n then fail "graph contains a cycle";
  (* Reachability from the root. *)
  let visited = Array.make n false and count = ref 0 in
  let rec visit i =
    if not visited.(i) then begin
      visited.(i) <- true;
      incr count;
      Array.iter visit succ.(i)
    end
  in
  visit topo.(0);
  if !count <> n then fail "some subtasks are unreachable from the root";
  { node_list; edge_list; ids; keys; succ; succ_ids; pred_ids; graph_root = topo.(0); topo }

let make ~nodes ~edges = try Ok (validate nodes edges) with Invalid msg -> Error msg

let make_exn ~nodes ~edges =
  match make ~nodes ~edges with Ok t -> t | Error msg -> invalid_arg ("Graph.make: " ^ msg)

let chain ids =
  if ids = [] then invalid_arg "Graph.chain: empty";
  let rec pair = function a :: (b :: _ as rest) -> (a, b) :: pair rest | [ _ ] | [] -> [] in
  make_exn ~nodes:ids ~edges:(pair ids)

let fan_out ~root ~hub ~leaves =
  if leaves = [] then invalid_arg "Graph.fan_out: no leaves";
  make_exn
    ~nodes:(root :: hub :: leaves)
    ~edges:((root, hub) :: List.map (fun leaf -> (hub, leaf)) leaves)

(* Depth-first, successors in declaration order. *)
let paths t =
  let acc = ref [] in
  let rec walk prefix i =
    let prefix = t.ids.(i) :: prefix in
    if Array.length t.succ.(i) = 0 then acc := List.rev prefix :: !acc
    else Array.iter (walk prefix) t.succ.(i)
  in
  walk [] t.graph_root;
  List.rev !acc

(* Paths through s = (paths from root to s) * (paths from s to any leaf),
   both by DP over the topological order. *)
let counts_from_root t =
  let counts = Array.make (Array.length t.ids) 0 in
  counts.(t.graph_root) <- 1;
  Array.iter
    (fun i -> Array.iter (fun j -> counts.(j) <- counts.(j) + counts.(i)) t.succ.(i))
    t.topo;
  counts

let counts_to_leaves t =
  let counts = Array.make (Array.length t.ids) 0 in
  for k = Array.length t.topo - 1 downto 0 do
    let i = t.topo.(k) in
    counts.(i) <-
      (if Array.length t.succ.(i) = 0 then 1
       else Array.fold_left (fun acc j -> acc + counts.(j)) 0 t.succ.(i))
  done;
  counts

let weights t ~variant =
  let weight =
    match (variant : Utility.variant) with
    | Utility.Sum -> fun _ -> 1.
    | Utility.Path_weighted ->
      let from_root = counts_from_root t and to_leaves = counts_to_leaves t in
      let total = float_of_int to_leaves.(t.graph_root) in
      fun i -> float_of_int (from_root.(i) * to_leaves.(i)) /. total
  in
  let m = ref Subtask_id.Map.empty in
  Array.iteri (fun i s -> m := Subtask_id.Map.add s (weight i) !m) t.ids;
  !m

let path_latency path ~latency = List.fold_left (fun acc s -> acc +. latency s) 0. path

(* cost.(i) is the largest latency from node i to a leaf, reached through
   successor next.(i) (-1 at a leaf); ties keep the first successor. *)
let critical_path t ~latency =
  let n = Array.length t.ids in
  let cost = Array.make n 0. and next = Array.make n (-1) in
  for k = n - 1 downto 0 do
    let i = t.topo.(k) in
    let own = latency t.ids.(i) in
    let best = ref (-1) in
    Array.iter (fun j -> if !best < 0 || not (cost.(!best) >= cost.(j)) then best := j) t.succ.(i);
    if !best < 0 then cost.(i) <- own
    else begin
      cost.(i) <- own +. cost.(!best);
      next.(i) <- !best
    end
  done;
  let rec follow i = if i < 0 then [] else t.ids.(i) :: follow next.(i) in
  (follow t.graph_root, cost.(t.graph_root))
