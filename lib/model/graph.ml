open Ids

(* Node i is the i-th smallest id, so an id resolves to its number by
   binary search over [keys]; every algorithm below runs over those
   numbers. Orders that callers see (successors, paths, the topological
   order) follow the edge declaration order, never the numbering. The
   adjacency is one flat row per node: node i's successors are
   [succ.(succ_off.(i)) .. succ.(succ_off.(i + 1) - 1)]. The node and
   edge lists given to [make] are not kept; [nodes] and [edges] rebuild
   them from [order] and [edge_src]. *)
type t = {
  keys : int array;
  order : int array;  (* node numbers in the order supplied to [make] *)
  edge_src : int array;
      (* source of each edge in declaration order; its target is the next
         unread entry of the source's row *)
  succ_off : int array;
  succ : int array;  (* successor numbers, in edge declaration order *)
  succ_ids : Subtask_id.t list array;  (* [succ] as ids, so [successors] allocates nothing *)
  in_deg : int array;
  graph_root : int;
  topo : int array;
}

(* The number of node [s], or -1. *)
let number keys s = Sorted.find keys (Subtask_id.to_int s)

let index t s = number t.keys s

let node t i = Subtask_id.make t.keys.(i)

let nodes t = List.init (Array.length t.order) (fun k -> node t t.order.(k))

let edges t =
  let next = Array.sub t.succ_off 0 (Array.length t.keys) in
  List.init (Array.length t.edge_src) (fun k ->
      let i = t.edge_src.(k) in
      next.(i) <- next.(i) + 1;
      (node t i, node t t.succ.(next.(i) - 1)))

let node_count t = Array.length t.keys

let root t = node t t.graph_root

let mem t s = index t s >= 0

let successors t s =
  let i = index t s in
  if i < 0 then invalid_arg "Graph.successors: unknown subtask";
  t.succ_ids.(i)

let predecessors t s =
  if index t s < 0 then invalid_arg "Graph.predecessors: unknown subtask";
  List.filter_map (fun (a, b) -> if Subtask_id.equal b s then Some a else None) (edges t)

let in_degree t s =
  let i = index t s in
  if i < 0 then invalid_arg "Graph.in_degree: unknown subtask";
  t.in_deg.(i)

let is_leaf t i = t.succ_off.(i) = t.succ_off.(i + 1)

let leaves t =
  List.filter_map (fun i -> if is_leaf t i then Some (node t i) else None) (Array.to_list t.order)

exception Invalid of string

let fail msg = raise_notrace (Invalid msg)

(* The checks run in a fixed order and the first failure wins, so every
   malformed input has exactly one message. *)
let validate node_list edge_list =
  if node_list = [] then fail "graph has no nodes";
  let keys = Sorted.of_list Subtask_id.to_int node_list in
  if Sorted.has_duplicate keys then fail "duplicate nodes in graph";
  let n = Array.length keys in
  let order = Array.make n 0 in
  List.iteri (fun k s -> order.(k) <- number keys s) node_list;
  (* Resolve every endpoint and count the degrees; the out-degree of
     node i goes to succ_off.(i + 1) until the prefix sum. *)
  let succ_off = Array.make (n + 1) 0 and in_deg = Array.make n 0 in
  let edge_src = Array.make (List.length edge_list) 0 and self = ref false in
  List.iteri
    (fun k (a, b) ->
      let i = number keys a and j = number keys b in
      if i < 0 || j < 0 then
        fail
          (Printf.sprintf "edge (%s, %s) references an undeclared node" (Subtask_id.to_string a)
             (Subtask_id.to_string b));
      if i = j then self := true;
      edge_src.(k) <- i;
      succ_off.(i + 1) <- succ_off.(i + 1) + 1;
      in_deg.(j) <- in_deg.(j) + 1)
    edge_list;
  if !self then fail "self edge in graph";
  for i = 1 to n do
    succ_off.(i) <- succ_off.(i) + succ_off.(i - 1)
  done;
  (* Fill the rows in declaration order; [aux] serves as each row's
     cursor here, then below as the last row that reached each node, and
     then as Kahn's remaining in-degrees. *)
  let succ = Array.make succ_off.(n) 0 and aux = Array.sub succ_off 0 n in
  List.iteri
    (fun k (_, b) ->
      let i = edge_src.(k) in
      succ.(aux.(i)) <- number keys b;
      aux.(i) <- aux.(i) + 1)
    edge_list;
  Array.fill aux 0 n (-1);
  for i = 0 to n - 1 do
    for e = succ_off.(i) to succ_off.(i + 1) - 1 do
      let j = succ.(e) in
      if aux.(j) = i then fail "duplicate edge in graph";
      aux.(j) <- i
    done
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
  Array.blit in_deg 0 aux 0 n;
  let head = ref 0 in
  while !head < !tail do
    let i = topo.(!head) in
    for e = succ_off.(i) to succ_off.(i + 1) - 1 do
      let j = succ.(e) in
      aux.(j) <- aux.(j) - 1;
      if aux.(j) = 0 then begin
        topo.(!tail) <- j;
        incr tail
      end
    done;
    incr head
  done;
  if !tail <> n then fail "graph contains a cycle";
  (* No reachability check is needed: in a DAG whose only node of
     in-degree 0 is the root, walking predecessors back from any node
     ends at the root. *)
  let succ_ids = Array.make n [] in
  for i = 0 to n - 1 do
    for e = succ_off.(i + 1) - 1 downto succ_off.(i) do
      succ_ids.(i) <- Subtask_id.make keys.(succ.(e)) :: succ_ids.(i)
    done
  done;
  { keys; order; edge_src; succ_off; succ; succ_ids; in_deg; graph_root = topo.(0); topo }

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

(* Paths through node i = (paths from the root to i) * (paths from i to
   any leaf), both by DP over the topological order. *)
let counts_from_root t =
  let counts = Array.make (node_count t) 0 in
  counts.(t.graph_root) <- 1;
  Array.iter
    (fun i ->
      for e = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
        let j = t.succ.(e) in
        counts.(j) <- counts.(j) + counts.(i)
      done)
    t.topo;
  counts

let counts_to_leaves t =
  let counts = Array.make (node_count t) 0 in
  for k = Array.length t.topo - 1 downto 0 do
    let i = t.topo.(k) in
    if is_leaf t i then counts.(i) <- 1
    else
      for e = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
        counts.(i) <- counts.(i) + counts.(t.succ.(e))
      done
  done;
  counts

(* Depth-first, successors in declaration order; stack.(d) is the node
   at depth d of the walk. The counts size both results up front. *)
let paths t =
  let from_root = counts_from_root t and to_leaves = counts_to_leaves t in
  let n = node_count t in
  let size = ref 0 in
  for i = 0 to n - 1 do
    size := !size + (from_root.(i) * to_leaves.(i))
  done;
  let off = Array.make (to_leaves.(t.graph_root) + 1) 0 and members = Array.make !size 0 in
  let stack = Array.make n 0 and q = ref 0 in
  let rec walk d i =
    stack.(d) <- i;
    if is_leaf t i then begin
      Array.blit stack 0 members off.(!q) (d + 1);
      incr q;
      off.(!q) <- off.(!q - 1) + d + 1
    end
    else
      for e = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
        walk (d + 1) t.succ.(e)
      done
  in
  walk 0 t.graph_root;
  (off, members)

let weights t ~variant =
  match (variant : Utility.variant) with
  | Utility.Sum -> Array.make (node_count t) 1.
  | Utility.Path_weighted ->
    let from_root = counts_from_root t and to_leaves = counts_to_leaves t in
    let total = float_of_int to_leaves.(t.graph_root) in
    let w = Array.make (node_count t) 0. in
    for i = 0 to node_count t - 1 do
      w.(i) <- float_of_int (from_root.(i) * to_leaves.(i)) /. total
    done;
    w

let path_latency path ~latency = List.fold_left (fun acc s -> acc +. latency s) 0. path

(* cost.(i) is the largest latency from node i to a leaf, reached through
   successor next.(i) (-1 at a leaf); ties keep the first successor. *)
let critical_path t ~latency =
  let n = node_count t in
  let cost = Array.make n 0. and next = Array.make n (-1) in
  for k = n - 1 downto 0 do
    let i = t.topo.(k) in
    let own = latency (node t i) in
    let best = ref (-1) in
    for e = t.succ_off.(i) to t.succ_off.(i + 1) - 1 do
      let j = t.succ.(e) in
      if !best < 0 || not (cost.(!best) >= cost.(j)) then best := j
    done;
    if !best < 0 then cost.(i) <- own
    else begin
      cost.(i) <- own +. cost.(!best);
      next.(i) <- !best
    end
  done;
  let rec follow i = if i < 0 then [] else node t i :: follow next.(i) in
  (follow t.graph_root, cost.(t.graph_root))
