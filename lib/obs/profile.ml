(* Nodes are interned per (parent, name): the hot path after the first
   call to a phase is one list scan over the parent's (few) children and
   two clock reads. Children are kept in first-seen order so the report
   is stable across runs.

   [total] is a [float ref] rather than a mutable field: in a mixed
   record a float field is boxed, so [node.total <- v] would allocate a
   fresh box on every phase exit — a per-tick allocation in the solver
   kernel's hot loop. A [float ref] is a flat one-float record mutated
   in place. *)
type node = {
  name : string;
  total : float ref;  (* seconds, inclusive of children *)
  mutable calls : int;
  mutable children : node list;  (* reverse first-seen order *)
}

type t = {
  clock : unit -> float;
  root : node;
  mutable current : node;
  mutable enabled : bool;
}

let make_node name = { name; total = ref 0.; calls = 0; children = [] }

let make ~clock ~enabled =
  let root = make_node "total" in
  { clock; root; current = root; enabled }

let create ?(clock = Unix.gettimeofday) () = make ~clock ~enabled:true

let disabled () = make ~clock:Unix.gettimeofday ~enabled:false

let enabled t = t.enabled

let set_enabled t on = t.enabled <- on

(* Top-level so the scan allocates nothing: a [List.find_opt] with an
   inline predicate would build a closure over [name] on every call, and
   [Some n] would box the hit. Raising the preallocated [Not_found] keeps
   the interned-node fast path allocation-free. *)
let rec find_child name = function
  | [] -> raise Not_found
  | n :: rest -> if String.equal n.name name then n else find_child name rest

let child_of parent name =
  match find_child name parent.children with
  | n -> n
  | exception Not_found ->
    let n = make_node name in
    parent.children <- n :: parent.children;
    n

let time t name f =
  if not t.enabled then f ()
  else begin
    let node = child_of t.current name in
    let saved = t.current in
    t.current <- node;
    let t0 = t.clock () in
    (* Hand-rolled instead of [Fun.protect]: this runs on every control
       round, and skipping the closure allocation keeps the enabled
       path to two clock reads plus field writes. *)
    let close () =
      node.total := !(node.total) +. (t.clock () -. t0);
      node.calls <- node.calls + 1;
      t.current <- saved
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

let reset t =
  t.root.total := 0.;
  t.root.calls <- 0;
  t.root.children <- [];
  t.current <- t.root

(* --- report ----------------------------------------------------------- *)

let sum_children node = List.fold_left (fun acc c -> acc +. !(c.total)) 0. node.children

let report t =
  let buf = Buffer.create 1024 in
  let grand_total =
    (* The root never runs inside [time]; its total is its children's. *)
    let s = sum_children t.root in
    if s > 0. then s else 1e-12
  in
  Buffer.add_string buf
    (Printf.sprintf "%-40s %10s %9s %10s %7s\n" "phase" "total ms" "calls" "ms/call" "%");
  let rec walk depth node =
    let children = List.rev node.children in
    let sorted = List.sort (fun a b -> Float.compare !(b.total) !(a.total)) children in
    List.iter
      (fun c ->
        let indent = String.make (2 * depth) ' ' in
        Buffer.add_string buf
          (Printf.sprintf "%-40s %10.2f %9d %10.4f %6.1f%%\n"
             (indent ^ c.name) (!(c.total) *. 1e3) c.calls
             (if c.calls > 0 then !(c.total) *. 1e3 /. float_of_int c.calls else 0.)
             (!(c.total) /. grand_total *. 100.));
        (* Time inside this phase not attributed to any sub-phase. *)
        let self = !(c.total) -. sum_children c in
        if c.children <> [] && self > 1e-9 then
          Buffer.add_string buf
            (Printf.sprintf "%-40s %10.2f %9s %10s %6.1f%%\n"
               (String.make (2 * (depth + 1)) ' ' ^ "(self)")
               (self *. 1e3) "" "" (self /. grand_total *. 100.));
        walk (depth + 1) c)
      sorted
  in
  walk 0 t.root;
  Buffer.add_string buf
    (Printf.sprintf "%-40s %10.2f\n" "total" (grand_total *. 1e3));
  Buffer.contents buf

type stat = { path : string list; seconds : float; count : int }

let stats t =
  let acc = ref [] in
  let rec walk path node =
    List.iter
      (fun c ->
        let path = path @ [ c.name ] in
        acc := { path; seconds = !(c.total); count = c.calls } :: !acc;
        walk path c)
      (List.rev node.children)
  in
  walk [] t.root;
  List.rev !acc
