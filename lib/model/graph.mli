(** Subtask graphs (§2): directed acyclic precedence graphs with a unique
    root (the start subtask); leaves are end subtasks. Paths — root-to-leaf
    subtask sequences — carry the critical-time constraints (Eq. 4). *)

open Ids

type t

val make :
  nodes:Subtask_id.t list -> edges:(Subtask_id.t * Subtask_id.t) list -> (t, string) result
(** Validates: at least one node, no duplicate nodes, edge endpoints
    declared, no self-edges or duplicate edges, acyclic, a unique root,
    every node reachable from the root. *)

val make_exn : nodes:Subtask_id.t list -> edges:(Subtask_id.t * Subtask_id.t) list -> t
(** @raise Invalid_argument with the validation message. *)

val chain : Subtask_id.t list -> t
(** Linear pipeline [s1 -> s2 -> ...]. @raise Invalid_argument on an empty
    or duplicate-containing list. *)

val fan_out : root:Subtask_id.t -> hub:Subtask_id.t -> leaves:Subtask_id.t list -> t
(** Push/multicast shape: [root -> hub -> each leaf]. *)

val nodes : t -> Subtask_id.t list
(** In the order supplied to {!make} (a fresh list). *)

val index : t -> Subtask_id.t -> int
(** The subtask's node number: its rank among the graph's ids in
    ascending order ([0 .. node_count - 1]), or -1 when it is not a
    node. {!paths} and {!weights} are indexed by these numbers. *)

val node : t -> int -> Subtask_id.t
(** The subtask with the given node number. *)

val edges : t -> (Subtask_id.t * Subtask_id.t) list
(** In the order supplied to {!make} (a fresh list). *)

val node_count : t -> int

val root : t -> Subtask_id.t

val leaves : t -> Subtask_id.t list

val successors : t -> Subtask_id.t -> Subtask_id.t list

val predecessors : t -> Subtask_id.t -> Subtask_id.t list
(** In edge declaration order. Scans every edge: the graph keeps no
    predecessor lists. *)

val in_degree : t -> Subtask_id.t -> int

val mem : t -> Subtask_id.t -> bool

val paths : t -> int array * int array
(** All root-to-leaf paths, in a deterministic order (depth-first,
    successors in declaration order), as [(off, members)]: path [q]
    visits the node numbers [members.(off.(q)) .. members.(off.(q + 1) - 1)],
    root first, and [off] has one entry more than there are paths.
    Exponential in pathological DAGs; real task graphs are small. *)

val weights : t -> variant:Utility.variant -> float array
(** Aggregation weights by node number: 1 for [Sum]; for [Path_weighted]
    the number of root-to-leaf paths through the node over the number
    of paths (so the weighted sum of latencies equals the mean path
    latency). *)

val critical_path : t -> latency:(Subtask_id.t -> float) -> Subtask_id.t list * float
(** The root-to-leaf path maximizing total latency, with its latency
    (dynamic programming over the topological order). *)

val path_latency : Subtask_id.t list -> latency:(Subtask_id.t -> float) -> float
