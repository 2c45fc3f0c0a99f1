(* Tests for the lla_model programming model. *)

open Lla_model

let sid = Ids.Subtask_id.make

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

(* ------------------------------------------------------------------ *)
(* Ids                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ids_roundtrip () =
  let id = Ids.Task_id.make 17 in
  Alcotest.(check int) "to_int" 17 (Ids.Task_id.to_int id);
  Alcotest.(check string) "to_string" "T17" (Ids.Task_id.to_string id);
  Alcotest.(check bool) "equal" true (Ids.Task_id.equal id (Ids.Task_id.make 17));
  Alcotest.(check bool) "ordering" true (Ids.Task_id.compare id (Ids.Task_id.make 18) < 0)

let test_ids_negative () =
  Alcotest.check_raises "negative id" (Invalid_argument "T id: negative") (fun () ->
      ignore (Ids.Task_id.make (-1)))

let test_ids_collections () =
  let set = Ids.Subtask_id.Set.of_list [ sid 1; sid 2; sid 1 ] in
  Alcotest.(check int) "set dedupes" 2 (Ids.Subtask_id.Set.cardinal set);
  let map = Ids.Subtask_id.Map.(add (sid 3) "x" empty) in
  Alcotest.(check (option string)) "map lookup" (Some "x") (Ids.Subtask_id.Map.find_opt (sid 3) map)

(* ------------------------------------------------------------------ *)
(* Resource                                                            *)
(* ------------------------------------------------------------------ *)

let test_resource_defaults () =
  let r = Resource.make 4 in
  Alcotest.(check string) "name" "r4" r.Resource.name;
  check_close "availability" 1.0 r.Resource.availability;
  check_close "lag" 0.0 r.Resource.lag

let test_resource_validation () =
  Alcotest.check_raises "availability > 1"
    (Invalid_argument "Resource.make: availability outside [0, 1]") (fun () ->
      ignore (Resource.make ~availability:1.2 0));
  Alcotest.check_raises "negative lag" (Invalid_argument "Resource.make: negative lag") (fun () ->
      ignore (Resource.make ~lag:(-1.) 0))

(* ------------------------------------------------------------------ *)
(* Share                                                               *)
(* ------------------------------------------------------------------ *)

let test_share_reciprocal () =
  let s = Share.instantiate Share.Reciprocal ~exec:5. ~lag:5. in
  check_close "eq 10: share = (c + l) / lat" 0.2 (s.Share.eval 50.);
  check_close "inverse" 50. (s.Share.inverse 0.2);
  check_close "lat_min makes share 1" 1.0 (s.Share.eval s.Share.lat_min);
  check_close ~eps:1e-6 "derivative" (-10. /. (50. *. 50.)) (s.Share.deval 50.)

let test_share_power_reduces_to_reciprocal () =
  let p = Share.instantiate (Share.Power { exponent = 1. }) ~exec:3. ~lag:2. in
  let r = Share.instantiate Share.Reciprocal ~exec:3. ~lag:2. in
  check_close "same eval" (r.Share.eval 12.) (p.Share.eval 12.);
  check_close "same inverse" (r.Share.inverse 0.3) (p.Share.inverse 0.3)

let test_share_validation () =
  Alcotest.check_raises "exec <= 0" (Invalid_argument "Share.instantiate: exec <= 0") (fun () ->
      ignore (Share.instantiate Share.Reciprocal ~exec:0. ~lag:1.));
  Alcotest.check_raises "power < 1" (Invalid_argument "Share.instantiate: power exponent < 1")
    (fun () -> ignore (Share.instantiate (Share.Power { exponent = 0.5 }) ~exec:1. ~lag:0.))

let prop_share_inverse_roundtrip =
  QCheck.Test.make ~name:"share: inverse(eval(lat)) = lat for both models"
    QCheck.(triple (float_range 0.5 20.) (float_range 0. 10.) (float_range 1. 3.))
    (fun (exec, lag, exponent) ->
      let check spec =
        let s = Share.instantiate spec ~exec ~lag in
        let lat = s.Share.lat_min *. 3. in
        Float.abs (s.Share.inverse (s.Share.eval lat) -. lat) < 1e-6
      in
      check Share.Reciprocal && check (Share.Power { exponent }))

let prop_share_decreasing_convex =
  QCheck.Test.make ~name:"share: eval is decreasing and strictly convex"
    QCheck.(pair (float_range 1. 10.) (float_range 1. 3.))
    (fun (exec, exponent) ->
      let s = Share.instantiate (Share.Power { exponent }) ~exec ~lag:1. in
      let base = s.Share.lat_min in
      let l1 = base *. 2. and l2 = base *. 3. and l3 = base *. 4. in
      s.Share.eval l1 > s.Share.eval l2
      && s.Share.eval l2 > s.Share.eval l3
      && s.Share.eval l2 < (s.Share.eval l1 +. s.Share.eval l3) /. 2.)

(* ------------------------------------------------------------------ *)
(* Utility                                                             *)
(* ------------------------------------------------------------------ *)

let test_utility_linear () =
  let u = Utility.linear ~k:2. ~critical_time:45. in
  check_close "f(44.9) = 90 - 44.9" 45.1 (u.Utility.f 44.9);
  check_close "slope" (-1.) (u.Utility.df 10.)

let test_utility_negative_latency () =
  let u = Utility.negative_latency () in
  check_close "f(x) = -x" (-42.) (u.Utility.f 42.)

let test_utility_constant () =
  let u = Utility.constant ~value:7. in
  check_close "flat" 7. (u.Utility.f 123.);
  check_close "zero slope" 0. (u.Utility.df 123.)

let test_utility_shapes_are_concave_decreasing () =
  let cases =
    [
      Utility.linear ~k:2. ~critical_time:50.;
      Utility.negative_latency ();
      Utility.logarithmic ~k:2. ~critical_time:50. ();
      Utility.soft_deadline ~sharpness:5. ~critical_time:50. ();
      Utility.quadratic ();
      Utility.constant ~value:1.;
    ]
  in
  List.iter
    (fun u ->
      match Utility.check_concave_decreasing u ~lo:0.1 ~hi:49. ~samples:100 with
      | Ok () -> ()
      | Error msg -> Alcotest.fail msg)
    cases

let test_utility_validation () =
  Alcotest.check_raises "linear k < 1" (Invalid_argument "Utility.linear: k < 1") (fun () ->
      ignore (Utility.linear ~k:0.5 ~critical_time:10.));
  Alcotest.check_raises "log k <= 1" (Invalid_argument "Utility.logarithmic: k <= 1") (fun () ->
      ignore (Utility.logarithmic ~k:1. ~critical_time:10. ()))

let test_utility_check_rejects_convex () =
  let bogus = Utility.custom ~name:"convex" ~f:(fun x -> x *. x) ~df:(fun x -> 2. *. x) in
  match Utility.check_concave_decreasing bogus ~lo:0.1 ~hi:10. ~samples:50 with
  | Ok () -> Alcotest.fail "convex increasing function must be rejected"
  | Error _ -> ()

let test_utility_check_rejects_wrong_derivative () =
  let bogus = Utility.custom ~name:"bad-df" ~f:(fun x -> -.x) ~df:(fun _ -> -2.) in
  match Utility.check_concave_decreasing bogus ~lo:0.1 ~hi:10. ~samples:50 with
  | Ok () -> Alcotest.fail "mismatched derivative must be rejected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Trigger                                                             *)
(* ------------------------------------------------------------------ *)

let test_trigger_periodic () =
  let t = Trigger.periodic ~period:100. () in
  let rng = Lla_stdx.Rng.create ~seed:1 in
  check_close "rate" 0.01 (Trigger.mean_rate t);
  check_close "first" 100. (Trigger.next_arrival t rng ~after:0.);
  check_close "aligned" 200. (Trigger.next_arrival t rng ~after:100.);
  check_close "mid-period" 300. (Trigger.next_arrival t rng ~after:250.)

let test_trigger_periodic_phase () =
  let t = Trigger.periodic ~phase:30. ~period:100. () in
  let rng = Lla_stdx.Rng.create ~seed:1 in
  check_close "before phase" 30. (Trigger.next_arrival t rng ~after:0.);
  check_close "after phase" 130. (Trigger.next_arrival t rng ~after:30.)

let test_trigger_poisson_mean () =
  let t = Trigger.poisson ~rate_per_second:40. in
  check_close "rate in per-ms" 0.04 (Trigger.mean_rate t);
  let rng = Lla_stdx.Rng.create ~seed:5 in
  let stats = Lla_stdx.Stats.create () in
  let now = ref 0. in
  for _ = 1 to 20_000 do
    let next = Trigger.next_arrival t rng ~after:!now in
    Lla_stdx.Stats.add stats (next -. !now);
    now := next
  done;
  Alcotest.(check bool) "mean interarrival ~25ms" true
    (Float.abs (Lla_stdx.Stats.mean stats -. 25.) < 1.)

let test_trigger_bursty () =
  let t = Trigger.bursty ~on_duration:30. ~off_duration:70. ~period_in_burst:10. in
  let rng = Lla_stdx.Rng.create ~seed:1 in
  (* Arrivals at 0 (cycle start handled by first call after:-?) — from 0 the
     next in-burst slots are 10, 20, 30, then silence until 100. *)
  check_close "second slot" 10. (Trigger.next_arrival t rng ~after:0.);
  check_close "third slot" 20. (Trigger.next_arrival t rng ~after:10.);
  check_close "last slot of burst" 30. (Trigger.next_arrival t rng ~after:20.);
  check_close "off phase jumps to next cycle" 100. (Trigger.next_arrival t rng ~after:30.);
  check_close "deep in off phase" 100. (Trigger.next_arrival t rng ~after:60.);
  (* 4 arrivals (0, 10, 20, 30) per 100 ms cycle. *)
  check_close "mean rate" 0.04 (Trigger.mean_rate t)

let prop_trigger_arrivals_advance =
  QCheck.Test.make ~name:"trigger: next_arrival is strictly after 'after'"
    QCheck.(pair (int_range 0 2) (float_range 0. 500.))
    (fun (kind, after) ->
      let t =
        match kind with
        | 0 -> Trigger.periodic ~period:37. ()
        | 1 -> Trigger.poisson ~rate_per_second:100.
        | _ -> Trigger.bursty ~on_duration:20. ~off_duration:30. ~period_in_burst:7.
      in
      let rng = Lla_stdx.Rng.create ~seed:(int_of_float after) in
      Trigger.next_arrival t rng ~after > after)


let test_trigger_phased () =
  let t =
    Trigger.phased
      ~before:(Trigger.periodic ~period:100. ())
      ~switch_at:250.
      ~after:(Trigger.periodic ~period:50. ())
  in
  let rng = Lla_stdx.Rng.create ~seed:1 in
  check_close "before regime" 100. (Trigger.next_arrival t rng ~after:0.);
  check_close "last before switch" 200. (Trigger.next_arrival t rng ~after:100.);
  (* The next pre-switch arrival would be 300 >= switch_at, so the new
     regime takes over starting from the switch time. *)
  check_close "first after switch" 300. (Trigger.next_arrival t rng ~after:200.);
  check_close "new period" 350. (Trigger.next_arrival t rng ~after:300.);
  check_close "mean rate = long run" 0.02 (Trigger.mean_rate t)

let test_trigger_phased_validation () =
  let p = Trigger.periodic ~period:10. () in
  Alcotest.(check bool) "nesting rejected" true
    (try
       ignore (Trigger.phased ~before:(Trigger.phased ~before:p ~switch_at:1. ~after:p)
                 ~switch_at:2. ~after:p);
       false
     with Invalid_argument _ -> true)

let test_trigger_float_progress () =
  (* Regression: periodic arrivals at a non-representable period (1000/60)
     must make strict progress even when k * period rounds to the current
     time. *)
  let t = Trigger.periodic ~period:(1000. /. 60.) () in
  let rng = Lla_stdx.Rng.create ~seed:1 in
  let now = ref 0. in
  for _ = 1 to 5000 do
    let next = Trigger.next_arrival t rng ~after:!now in
    if next <= !now then Alcotest.fail (Printf.sprintf "stuck at %.9f" !now);
    now := next
  done

(* ------------------------------------------------------------------ *)
(* Graph                                                               *)
(* ------------------------------------------------------------------ *)

(* [Graph.paths] as id lists. *)
let path_lists g =
  let off, members = Graph.paths g in
  List.init
    (Array.length off - 1)
    (fun q -> List.init (off.(q + 1) - off.(q)) (fun e -> Graph.node g members.(off.(q) + e)))

let diamond () =
  (* 1 -> {2, 3} -> 4 *)
  Graph.make_exn
    ~nodes:[ sid 1; sid 2; sid 3; sid 4 ]
    ~edges:[ (sid 1, sid 2); (sid 1, sid 3); (sid 2, sid 4); (sid 3, sid 4) ]

let test_graph_chain () =
  let g = Graph.chain [ sid 1; sid 2; sid 3 ] in
  Alcotest.(check int) "one path" 1 (List.length (path_lists g));
  Alcotest.(check bool) "root" true (Ids.Subtask_id.equal (Graph.root g) (sid 1));
  Alcotest.(check int) "leaves" 1 (List.length (Graph.leaves g))

let test_graph_diamond_paths () =
  let g = diamond () in
  let paths = path_lists g in
  Alcotest.(check int) "two paths" 2 (List.length paths);
  List.iter
    (fun p ->
      Alcotest.(check int) "path length" 3 (List.length p);
      Alcotest.(check bool) "starts at root" true (Ids.Subtask_id.equal (List.hd p) (sid 1)))
    paths

let test_graph_fan_out () =
  let g = Graph.fan_out ~root:(sid 1) ~hub:(sid 2) ~leaves:[ sid 3; sid 4; sid 5 ] in
  Alcotest.(check int) "3 paths" 3 (List.length (path_lists g))

let test_graph_weights () =
  let g = diamond () in
  let w = Graph.weights g ~variant:Utility.Path_weighted in
  check_close "root weight 1" 1. w.(Graph.index g (sid 1));
  check_close "branch weight 1/2" 0.5 w.(Graph.index g (sid 2));
  check_close "join weight 1" 1. w.(Graph.index g (sid 4));
  let w_sum = Graph.weights g ~variant:Utility.Sum in
  Alcotest.(check int) "a weight per node" 4 (Array.length w_sum);
  Array.iter (fun v -> check_close "sum weights are 1" 1. v) w_sum

let test_graph_weighted_sum_is_mean_path_latency () =
  let g = diamond () in
  let lat id = float_of_int (Ids.Subtask_id.to_int id) in
  let w = Graph.weights g ~variant:Utility.Path_weighted in
  let weighted = ref 0. in
  Array.iteri (fun i weight -> weighted := !weighted +. (weight *. lat (Graph.node g i))) w;
  let weighted = !weighted in
  let mean_path =
    let paths = path_lists g in
    List.fold_left (fun acc p -> acc +. Graph.path_latency p ~latency:lat) 0. paths
    /. float_of_int (List.length paths)
  in
  check_close "weighted sum = mean path latency" mean_path weighted

let test_graph_critical_path () =
  let g = diamond () in
  let lat id = match Ids.Subtask_id.to_int id with 2 -> 10. | 3 -> 5. | _ -> 1. in
  let path, cost = Graph.critical_path g ~latency:lat in
  check_close "cost" 12. cost;
  Alcotest.(check (list int)) "path goes through the slow branch" [ 1; 2; 4 ]
    (List.map Ids.Subtask_id.to_int path)

let expect_error ~substring result =
  match result with
  | Ok _ -> Alcotest.fail (Printf.sprintf "expected error mentioning %S" substring)
  | Error msg ->
    let contains =
      let nl = String.length substring and hl = String.length msg in
      let rec scan i = i + nl <= hl && (String.sub msg i nl = substring || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) (Printf.sprintf "error %S mentions %S" msg substring) true contains

let test_graph_validation () =
  expect_error ~substring:"no nodes" (Graph.make ~nodes:[] ~edges:[]);
  expect_error ~substring:"duplicate nodes" (Graph.make ~nodes:[ sid 1; sid 1 ] ~edges:[]);
  expect_error ~substring:"undeclared"
    (Graph.make ~nodes:[ sid 1 ] ~edges:[ (sid 1, sid 9) ]);
  expect_error ~substring:"self edge" (Graph.make ~nodes:[ sid 1 ] ~edges:[ (sid 1, sid 1) ]);
  expect_error ~substring:"duplicate edge"
    (Graph.make ~nodes:[ sid 1; sid 2 ] ~edges:[ (sid 1, sid 2); (sid 1, sid 2) ]);
  expect_error ~substring:"cycle"
    (Graph.make
       ~nodes:[ sid 1; sid 2; sid 3 ]
       ~edges:[ (sid 1, sid 2); (sid 2, sid 3); (sid 3, sid 2) ]);
  expect_error ~substring:"roots"
    (Graph.make ~nodes:[ sid 1; sid 2; sid 3 ] ~edges:[ (sid 1, sid 3); (sid 2, sid 3) ]);
  (* A disconnected cluster necessarily either adds a second root or
     contains a cycle, so those checks subsume reachability; the cycle
     message fires here. *)
  expect_error ~substring:"cycle"
    (Graph.make
       ~nodes:[ sid 1; sid 2; sid 3; sid 4 ]
       ~edges:[ (sid 1, sid 2); (sid 3, sid 4); (sid 4, sid 3) ])

let random_dag_gen =
  (* Random layered DAG: nodes in layers, edges only forward, single root. *)
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "(n=%d, seed=%d)" n seed)
    QCheck.Gen.(pair (2 -- 12) (0 -- 1000))

let build_random_dag (n, seed) =
  let rng = Lla_stdx.Rng.create ~seed in
  let nodes = List.init n sid in
  (* Every node i >= 1 gets an edge from some node j < i: connected, acyclic,
     single root. *)
  let edges =
    List.concat
      (List.init (n - 1) (fun i ->
           let target = i + 1 in
           let parent = Lla_stdx.Rng.int rng ~bound:(i + 1) in
           let extra =
             if i > 0 && Lla_stdx.Rng.bool rng then
               let p2 = Lla_stdx.Rng.int rng ~bound:(i + 1) in
               if p2 <> parent then [ (sid p2, sid target) ] else []
             else []
           in
           (sid parent, sid target) :: extra))
  in
  Graph.make_exn ~nodes ~edges

let prop_graph_weights_sum =
  QCheck.Test.make ~name:"graph: path-weighted weights of each path's nodes average correctly"
    random_dag_gen (fun input ->
      let g = build_random_dag input in
      (* The weighted sum with unit latencies equals the mean path length. *)
      let w = Graph.weights g ~variant:Utility.Path_weighted in
      let weighted = Array.fold_left ( +. ) 0. w in
      let mean_len =
        let paths = path_lists g in
        float_of_int (List.fold_left (fun acc p -> acc + List.length p) 0 paths)
        /. float_of_int (List.length paths)
      in
      Float.abs (weighted -. mean_len) < 1e-9)

let prop_graph_critical_path_is_max =
  QCheck.Test.make ~name:"graph: critical path is the maximum over enumerated paths"
    random_dag_gen (fun input ->
      let g = build_random_dag input in
      let lat id = float_of_int (1 + (Ids.Subtask_id.to_int id * 7 mod 13)) in
      let _, dp = Graph.critical_path g ~latency:lat in
      let best =
        List.fold_left
          (fun acc p -> Float.max acc (Graph.path_latency p ~latency:lat))
          neg_infinity (path_lists g)
      in
      Float.abs (dp -. best) < 1e-9)

(* The Map/Set graph that the array-backed one replaced, kept as the
   reference it must agree with: every check, message and result. *)
module Ref_graph = struct
  open Ids

  type t = {
    node_list : Subtask_id.t list;
    succ : Subtask_id.t list Subtask_id.Map.t;
    pred : Subtask_id.t list Subtask_id.Map.t;
    graph_root : Subtask_id.t;
    topo : Subtask_id.t list;
  }

  let ( let* ) = Result.bind

  let build_adjacency nodes edges =
    let empty = List.fold_left (fun m s -> Subtask_id.Map.add s [] m) Subtask_id.Map.empty nodes in
    let add m (a, b) =
      Subtask_id.Map.update a (function Some l -> Some (b :: l) | None -> None) m
    in
    Subtask_id.Map.map List.rev (List.fold_left add empty edges)

  let make ~nodes:node_list ~edges:edge_list =
    let* () = if node_list = [] then Error "graph has no nodes" else Ok () in
    let node_set = Subtask_id.Set.of_list node_list in
    let* () =
      if Subtask_id.Set.cardinal node_set <> List.length node_list then
        Error "duplicate nodes in graph"
      else Ok ()
    in
    let* () =
      match
        List.find_opt
          (fun (a, b) ->
            (not (Subtask_id.Set.mem a node_set)) || not (Subtask_id.Set.mem b node_set))
          edge_list
      with
      | Some (a, b) ->
        Error
          (Printf.sprintf "edge (%s, %s) references an undeclared node" (Subtask_id.to_string a)
             (Subtask_id.to_string b))
      | None -> Ok ()
    in
    let* () =
      if List.exists (fun (a, b) -> Subtask_id.equal a b) edge_list then
        Error "self edge in graph"
      else Ok ()
    in
    let* () =
      let rec has_dup = function
        | a :: (b :: _ as rest) -> a = b || has_dup rest
        | [ _ ] | [] -> false
      in
      if has_dup (List.sort compare edge_list) then Error "duplicate edge in graph" else Ok ()
    in
    let succ = build_adjacency node_list edge_list in
    let pred = build_adjacency node_list (List.map (fun (a, b) -> (b, a)) edge_list) in
    let* graph_root =
      match List.filter (fun s -> Subtask_id.Map.find s pred = []) node_list with
      | [ r ] -> Ok r
      | [] -> Error "graph has no root (cycle through every node)"
      | roots ->
        Error
          (Printf.sprintf
             "graph has %d roots; the paper's task model requires a unique start subtask"
             (List.length roots))
    in
    let in_deg = Subtask_id.Tbl.create 16 in
    List.iter
      (fun s -> Subtask_id.Tbl.replace in_deg s (List.length (Subtask_id.Map.find s pred)))
      node_list;
    let queue = Queue.create () in
    List.iter (fun s -> if Subtask_id.Tbl.find in_deg s = 0 then Queue.add s queue) node_list;
    let topo = ref [] in
    while not (Queue.is_empty queue) do
      let s = Queue.pop queue in
      topo := s :: !topo;
      List.iter
        (fun next ->
          let d = Subtask_id.Tbl.find in_deg next - 1 in
          Subtask_id.Tbl.replace in_deg next d;
          if d = 0 then Queue.add next queue)
        (Subtask_id.Map.find s succ)
    done;
    let topo = List.rev !topo in
    let* () =
      if List.length topo <> List.length node_list then Error "graph contains a cycle" else Ok ()
    in
    let* () =
      let visited = Subtask_id.Tbl.create 16 in
      let rec visit s =
        if not (Subtask_id.Tbl.mem visited s) then begin
          Subtask_id.Tbl.replace visited s ();
          List.iter visit (Subtask_id.Map.find s succ)
        end
      in
      visit graph_root;
      if Subtask_id.Tbl.length visited <> List.length node_list then
        Error "some subtasks are unreachable from the root"
      else Ok ()
    in
    Ok { node_list; succ; pred; graph_root; topo }

  let successors t s = Subtask_id.Map.find s t.succ

  let predecessors t s = Subtask_id.Map.find s t.pred

  let leaves t = List.filter (fun s -> successors t s = []) t.node_list

  let paths t =
    let rec extend s =
      match Subtask_id.Map.find s t.succ with
      | [] -> [ [ s ] ]
      | succs -> List.concat_map (fun next -> List.map (fun p -> s :: p) (extend next)) succs
    in
    extend t.graph_root

  let counts ~order ~adjacent =
    let counts = Subtask_id.Tbl.create 16 in
    List.iter
      (fun s ->
        let c =
          match adjacent s with
          | [] -> 1
          | l -> List.fold_left (fun acc p -> acc + Subtask_id.Tbl.find counts p) 0 l
        in
        Subtask_id.Tbl.replace counts s c)
      order;
    counts

  let counts_from_root t = counts ~order:t.topo ~adjacent:(predecessors t)

  let counts_to_leaves t = counts ~order:(List.rev t.topo) ~adjacent:(successors t)

  let weights t ~variant =
    match (variant : Utility.variant) with
    | Utility.Sum ->
      List.fold_left (fun m s -> Subtask_id.Map.add s 1. m) Subtask_id.Map.empty t.node_list
    | Utility.Path_weighted ->
      let from_root = counts_from_root t and to_leaves = counts_to_leaves t in
      let total = float_of_int (Subtask_id.Tbl.find to_leaves t.graph_root) in
      List.fold_left
        (fun m s ->
          let through =
            float_of_int (Subtask_id.Tbl.find from_root s * Subtask_id.Tbl.find to_leaves s)
          in
          Subtask_id.Map.add s (through /. total) m)
        Subtask_id.Map.empty t.node_list

  let critical_path t ~latency =
    let best = Subtask_id.Tbl.create 16 in
    List.iter
      (fun s ->
        let own = latency s in
        let tail =
          List.fold_left
            (fun acc n ->
              let cost, suffix = Subtask_id.Tbl.find best n in
              match acc with
              | Some (best_cost, _) when best_cost >= cost -> acc
              | _ -> Some (cost, suffix))
            None (successors t s)
        in
        match tail with
        | None -> Subtask_id.Tbl.replace best s (own, [ s ])
        | Some (cost, suffix) -> Subtask_id.Tbl.replace best s (own +. cost, s :: suffix))
      (List.rev t.topo);
    let cost, path = Subtask_id.Tbl.find best t.graph_root in
    (path, cost)
end

(* Node and edge lists, half of them a random DAG (shuffled ids, edge
   order and node order), half arbitrary small lists that break some
   rule: duplicates, undeclared endpoints, self edges, cycles, several
   roots. *)
let graph_input_gen =
  let open QCheck.Gen in
  let dag =
    pair (1 -- 12) int >|= fun (n, seed) ->
    let rng = Lla_stdx.Rng.create ~seed in
    let ids = Array.init n (fun i -> (3 * i) + Lla_stdx.Rng.int rng ~bound:3) in
    Lla_stdx.Rng.shuffle rng ids;
    let edges =
      List.concat
        (List.init (n - 1) (fun i ->
             let parent = Lla_stdx.Rng.int rng ~bound:(i + 1) in
             let extra = Lla_stdx.Rng.int rng ~bound:(i + 1) in
             (ids.(parent), ids.(i + 1))
             :: (if extra <> parent then [ (ids.(extra), ids.(i + 1)) ] else [])))
      |> Array.of_list
    in
    Lla_stdx.Rng.shuffle rng edges;
    let nodes = Array.copy ids in
    Lla_stdx.Rng.shuffle rng nodes;
    (Array.to_list nodes, Array.to_list edges, seed)
  in
  let arbitrary =
    int >|= fun seed ->
    let rng = Lla_stdx.Rng.create ~seed in
    let pool = Array.init 10 Fun.id in
    Lla_stdx.Rng.shuffle rng pool;
    let k = Lla_stdx.Rng.int rng ~bound:7 in
    let pick () = pool.(Lla_stdx.Rng.int rng ~bound:k) in
    let nodes =
      Array.to_list (Array.sub pool 0 k)
      @ if k > 0 && Lla_stdx.Rng.int rng ~bound:6 = 0 then [ pick () ] else []
    in
    (* mostly declared endpoints, so cycles, self and duplicate edges and
       extra roots come up as often as undeclared ones *)
    let endpoint () =
      if k = 0 || Lla_stdx.Rng.int rng ~bound:10 = 0 then Lla_stdx.Rng.int rng ~bound:12
      else pick ()
    in
    let edges =
      List.init (Lla_stdx.Rng.int rng ~bound:9) (fun _ ->
          let a = endpoint () in
          (a, endpoint ()))
    in
    (nodes, edges, seed)
  in
  frequency [ (1, dag); (1, arbitrary) ]

let print_graph_input (nodes, edges, seed) =
  Printf.sprintf "nodes [%s] edges [%s] seed %d"
    (String.concat "; " (List.map string_of_int nodes))
    (String.concat "; " (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) edges))
    seed

let prop_graph_matches_reference =
  QCheck.Test.make ~name:"graph: array-backed graph agrees with the Map/Set reference" ~count:500
    (QCheck.make ~print:print_graph_input graph_input_gen)
    (fun (nodes, edges, seed) ->
      let nodes = List.map sid nodes and edges = List.map (fun (a, b) -> (sid a, sid b)) edges in
      match (Graph.make ~nodes ~edges, Ref_graph.make ~nodes ~edges) with
      | Error a, Error b when String.equal a b -> true
      | Error a, Error b -> QCheck.Test.fail_reportf "messages differ: %S vs reference %S" a b
      | Ok _, Error b -> QCheck.Test.fail_reportf "accepted; the reference says %S" b
      | Error a, Ok _ -> QCheck.Test.fail_reportf "rejected with %S; the reference accepts" a
      | Ok g, Ok r ->
        let ids l = List.map Ids.Subtask_id.to_int l in
        let same what a b =
          if a <> b then QCheck.Test.fail_reportf "%s differs from the reference" what
        in
        let bits m =
          List.map
            (fun (s, w) -> (Ids.Subtask_id.to_int s, Int64.bits_of_float w))
            (Ids.Subtask_id.Map.bindings m)
        in
        (* by node number, which is ascending id order like the bindings *)
        let node_bits w =
          List.init (Array.length w) (fun i ->
              (Ids.Subtask_id.to_int (Graph.node g i), Int64.bits_of_float w.(i)))
        in
        List.iter
          (fun s ->
            same "successors" (ids (Graph.successors g s)) (ids (Ref_graph.successors r s));
            same "predecessors" (ids (Graph.predecessors g s)) (ids (Ref_graph.predecessors r s)))
          nodes;
        same "leaves" (ids (Graph.leaves g)) (ids (Ref_graph.leaves r));
        same "paths" (List.map ids (path_lists g)) (List.map ids (Ref_graph.paths r));
        List.iter
          (fun variant ->
            same "weights" (node_bits (Graph.weights g ~variant)) (bits (Ref_graph.weights r ~variant)))
          [ Utility.Sum; Utility.Path_weighted ];
        (* few distinct latencies, so equal-cost branches exercise the tie-break *)
        let latency s =
          [| 1.; 2.5; 2.5; 0.1 |].(abs ((Ids.Subtask_id.to_int s * 7) + seed) mod 4)
        in
        let path, cost = Graph.critical_path g ~latency
        and ref_path, ref_cost = Ref_graph.critical_path r ~latency in
        same "critical path" (ids path) (ids ref_path);
        same "critical path cost" (Int64.bits_of_float cost) (Int64.bits_of_float ref_cost);
        true)

(* ------------------------------------------------------------------ *)
(* Task and Workload                                                   *)
(* ------------------------------------------------------------------ *)

let make_simple_task ?(id = 1) ?(critical_time = 50.) () =
  let tid = Ids.Task_id.make id in
  let a =
    Subtask.make ~id:(100 * id) ~task:tid ~resource:0 ~exec_time:2. ()
  in
  let b =
    Subtask.make ~id:((100 * id) + 1) ~task:tid ~resource:1 ~exec_time:3. ()
  in
  Task.make_exn ~id ~subtasks:[ a; b ]
    ~graph:(Graph.chain [ a.Subtask.id; b.Subtask.id ])
    ~critical_time
    ~utility:(Utility.linear ~k:2. ~critical_time)
    ~trigger:(Trigger.periodic ~period:100. ())
    ()

let test_task_validation () =
  let tid = Ids.Task_id.make 1 in
  let a = Subtask.make ~id:1 ~task:tid ~resource:0 ~exec_time:1. () in
  let wrong_owner = Subtask.make ~id:2 ~task:(Ids.Task_id.make 9) ~resource:0 ~exec_time:1. () in
  (match
     Task.make ~id:1 ~subtasks:[ a; wrong_owner ]
       ~graph:(Graph.chain [ a.Subtask.id; wrong_owner.Subtask.id ])
       ~critical_time:10.
       ~utility:(Utility.negative_latency ())
       ~trigger:(Trigger.periodic ~period:10. ())
       ()
   with
  | Ok _ -> Alcotest.fail "owner mismatch must be rejected"
  | Error _ -> ());
  match
    Task.make ~id:1 ~subtasks:[ a ]
      ~graph:(Graph.chain [ a.Subtask.id; Ids.Subtask_id.make 99 ])
      ~critical_time:10.
      ~utility:(Utility.negative_latency ())
      ~trigger:(Trigger.periodic ~period:10. ())
      ()
  with
  | Ok _ -> Alcotest.fail "graph/subtask mismatch must be rejected"
  | Error _ -> ()

(* Each case breaks two rules; the message names the one checked first. *)
let test_task_error_precedence () =
  let sub ?(owner = 1) id =
    Subtask.make ~id ~task:(Ids.Task_id.make owner) ~resource:0 ~exec_time:1. ()
  in
  let expect msg subtasks graph =
    match
      Task.make ~id:1 ~subtasks ~graph ~critical_time:10.
        ~utility:(Utility.negative_latency ())
        ~trigger:(Trigger.periodic ~period:10. ())
        ()
    with
    | Ok _ -> Alcotest.failf "expected %S" msg
    | Error got -> Alcotest.(check string) "message" msg got
  in
  let chain l = Graph.chain (List.map sid l) in
  expect "T1: duplicate subtask ids" [ sub 1; sub ~owner:9 1 ] (chain [ 1; 2 ]);
  expect "T1: subtask s2 declares another owner task"
    [ sub 1; sub ~owner:9 2; sub ~owner:8 3 ]
    (chain [ 1; 99 ]);
  expect "T1: graph nodes differ from the task's subtask ids" [ sub 1; sub 2 ] (chain [ 1; 3 ]);
  expect "T1: graph nodes differ from the task's subtask ids" [ sub 1; sub 2 ] (chain [ 1 ]);
  expect "T1: graph nodes differ from the task's subtask ids" [ sub 2 ] (chain [ 1; 2 ])

let test_workload_error_precedence () =
  let task id subtasks =
    let tid = Ids.Task_id.make id in
    let subtasks =
      List.map (fun (s, r) -> Subtask.make ~id:s ~task:tid ~resource:r ~exec_time:1. ()) subtasks
    in
    Task.make_exn ~id ~subtasks
      ~graph:(Graph.chain (List.map (fun (s : Subtask.t) -> s.Subtask.id) subtasks))
      ~critical_time:50.
      ~utility:(Utility.negative_latency ())
      ~trigger:(Trigger.periodic ~period:100. ())
      ()
  in
  let expect msg tasks resources =
    match Workload.make ~tasks ~resources:(List.map (fun r -> Resource.make r) resources) with
    | Ok _ -> Alcotest.failf "expected %S" msg
    | Error got -> Alcotest.(check string) "message" msg got
  in
  expect "workload: duplicate task ids" [ task 1 [ (1, 0) ]; task 1 [ (2, 0) ] ] [ 0; 0 ];
  expect "workload: duplicate resource ids" [ task 1 [ (1, 0) ]; task 2 [ (1, 0) ] ] [ 0; 1; 1 ];
  expect "workload: subtask ids are not globally unique"
    [ task 1 [ (1, 0); (2, 5) ]; task 2 [ (2, 0) ] ]
    [ 0 ];
  (* the first offender in task, then subtask, order *)
  expect "workload: subtask s2 uses undeclared resource r5"
    [ task 1 [ (1, 0); (2, 5) ]; task 2 [ (3, 6) ] ]
    [ 0 ]

let test_task_aggregate_and_utility () =
  let task = make_simple_task () in
  let latency _ = 10. in
  check_close "utility = 2C - agg" 80. (Task.utility_value task ~latency);
  check_close "arrival rate" 0.01 (Task.arrival_rate task)

let test_task_weights_accessor () =
  let task = make_simple_task () in
  List.iter (fun s -> check_close "chain weights 1" 1. (Task.weight task s))
    (Task.subtask_ids task)

(* The derived task data against plain definitions: [Task.path] in order
   is a depth-first walk over [Graph.successors] (successors in edge
   declaration order), and a path-weighted subtask weighs exactly the
   number of paths through it over the number of paths (1 under [Sum]). *)
let task_paths (t : Task.t) = List.init (Task.n_paths t) (Task.path t)

let reference_paths g =
  let rec walk prefix s =
    let prefix = s :: prefix in
    match Graph.successors g s with
    | [] -> [ List.rev prefix ]
    | next -> List.concat_map (walk prefix) next
  in
  walk [] (Graph.root g)

let prop_task_derived_data =
  QCheck.Test.make ~name:"task: paths and weights match a reference walk" ~count:60
    QCheck.(pair bool (int_range 1 1_000_000))
    (fun (generated, seed) ->
      let w =
        if generated then
          Lla_scale.Generator.generate
            ~params:
              (Lla_scale.Generator.sized ~resources:(12 + (seed mod 9)) ~subtasks:(40 + (seed mod 37))
                 ())
            ~seed ()
        else Lla_workloads.Random_gen.generate ~seed ()
      in
      let ids l = List.map Ids.Subtask_id.to_int l in
      List.iter
        (fun (t : Task.t) ->
          let paths = task_paths t in
          if List.map ids paths <> List.map ids (reference_paths t.graph) then
            QCheck.Test.fail_reportf "task %s: paths differ from the reference walk" t.name;
          let n = float_of_int (List.length paths) in
          List.iter
            (fun s ->
              let through = List.length (List.filter (List.exists (Ids.Subtask_id.equal s)) paths) in
              let expected =
                match t.variant with
                | Utility.Path_weighted -> float_of_int through /. n
                | Utility.Sum -> 1.
              in
              if not (Task.weight t s = expected) then
                QCheck.Test.fail_reportf "task %s: weight of %s is %h, expected %h" t.name
                  (Ids.Subtask_id.to_string s) (Task.weight t s) expected)
            (Task.subtask_ids t))
        w.Workload.tasks;
      true)

let make_workload () =
  let t1 = make_simple_task ~id:1 () in
  let t2 = make_simple_task ~id:2 ~critical_time:80. () in
  Workload.make_exn ~tasks:[ t1; t2 ]
    ~resources:[ Resource.make ~availability:0.8 0; Resource.make ~availability:0.9 ~lag:1. 1 ]

let test_workload_lookups () =
  let w = make_workload () in
  Alcotest.(check int) "subtasks" 4 (List.length (Workload.subtasks w));
  Alcotest.(check int) "on resource 0" 2 (List.length (Workload.subtasks_on w (Ids.Resource_id.make 0)));
  let owner = Workload.owner w (Ids.Subtask_id.make 201) in
  Alcotest.(check int) "owner" 2 (Ids.Task_id.to_int owner.Task.id)

let test_workload_validation () =
  let t1 = make_simple_task ~id:1 () in
  (match Workload.make ~tasks:[ t1; t1 ] ~resources:[ Resource.make 0; Resource.make 1 ] with
  | Ok _ -> Alcotest.fail "duplicate tasks must be rejected"
  | Error _ -> ());
  match Workload.make ~tasks:[ t1 ] ~resources:[ Resource.make 0 ] with
  | Ok _ -> Alcotest.fail "missing resource must be rejected"
  | Error _ -> ()

let test_workload_utilization () =
  let w = make_workload () in
  (* Resource 0: two subtasks, 2ms every 100ms each. *)
  check_close "utilization r0" 0.04 (Workload.utilization w (Ids.Resource_id.make 0));
  check_close "utilization r1" 0.06 (Workload.utilization w (Ids.Resource_id.make 1))

let test_workload_min_share_and_bounds () =
  let w = make_workload () in
  let s = Ids.Subtask_id.make 100 in
  check_close "min share = rate * wcet" 0.02 (Workload.min_share w s)

let test_workload_share_sum_and_violations () =
  let w = make_workload () in
  let latency _ = 4. in
  (* each subtask on r0 has c=2, lag 0 -> share 0.5 each, sum 1.0 > 0.8 *)
  check_close "share sum" 1.0 (Workload.share_sum w (Ids.Resource_id.make 0) ~latency);
  let violations = Workload.constraint_violations w ~latency ~tolerance:0.001 in
  Alcotest.(check bool) "resource violation detected" true
    (List.exists (fun v -> String.length v > 0) violations);
  let relaxed _ = 30. in
  (* shares small; path = 60 > 50 violates task 1's critical time *)
  let violations = Workload.constraint_violations w ~latency:relaxed ~tolerance:0.001 in
  Alcotest.(check int) "exactly the path violation" 1 (List.length violations)

let test_workload_total_utility () =
  let w = make_workload () in
  let latency _ = 10. in
  (* task1: 2*50 - 20 = 80; task2: 2*80 - 20 = 140 *)
  check_close "total" 220. (Workload.total_utility w ~latency)


(* ------------------------------------------------------------------ *)
(* Percentile_map                                                      *)
(* ------------------------------------------------------------------ *)

(* The sampling percentile [for_task] gives each subtask of an
   [n]-subtask chain whose task targets its [p]-th end-to-end
   percentile. *)
let chain_percentile ~p ~n =
  let tid = Ids.Task_id.make 1 in
  let subtasks =
    List.init n (fun i -> Subtask.make ~id:(100 + i) ~task:tid ~resource:0 ~exec_time:1. ())
  in
  let task =
    Task.make_exn ~latency_percentile:p ~id:1 ~subtasks
      ~graph:(Graph.chain (List.map (fun (s : Subtask.t) -> s.Subtask.id) subtasks))
      ~critical_time:50.
      ~utility:(Utility.linear ~k:2. ~critical_time:50.)
      ~trigger:(Trigger.periodic ~period:100. ())
      ()
  in
  let per_subtask = Ids.Subtask_id.Map.bindings (Percentile_map.for_task task) in
  Alcotest.(check int) "one percentile per subtask" n (List.length per_subtask);
  let first = snd (List.hd per_subtask) in
  List.iter (fun (_, q) -> check_close "one percentile along a chain" first q) per_subtask;
  first

let test_percentile_map_identity () =
  check_close "n=1 keeps the percentile" 90. (chain_percentile ~p:90. ~n:1);
  check_close "worst case composes trivially" 100. (chain_percentile ~p:100. ~n:5)

let test_percentile_map_known_value () =
  (* The paper's example: two subtasks at percentile p compose to p^2/100,
     so for a p=81 end-to-end target each subtask needs 90. *)
  check_close ~eps:1e-9 "sqrt composition" 90. (chain_percentile ~p:81. ~n:2)

let test_percentile_map_compose_roundtrip () =
  List.iter
    (fun (p, n) ->
      let sub = chain_percentile ~p ~n in
      (* n subtasks each meeting their bound at [sub] meet the path's sum
         with probability (sub/100)^n *)
      check_close ~eps:1e-6
        (Printf.sprintf "compose inverse (p=%g, n=%d)" p n)
        p
        (100. *. ((sub /. 100.) ** float_of_int n)))
    [ (50., 2); (90., 3); (99., 6); (75., 4) ]

let test_percentile_map_for_task () =
  let task = make_simple_task () in
  (* Default percentile 100 -> every subtask at 100. *)
  Ids.Subtask_id.Map.iter (fun _ p -> check_close "worst case" 100. p)
    (Percentile_map.for_task task)

let prop_percentile_map_monotone =
  QCheck.Test.make ~name:"percentile_map: per-subtask percentile grows with path length"
    QCheck.(pair (float_range 10. 99.) (int_range 1 9))
    (fun (p, n) ->
      let a = chain_percentile ~p ~n in
      let b = chain_percentile ~p ~n:(n + 1) in
      b > a -. 1e-12 && a >= p -. 1e-9 && b <= 100. +. 1e-9)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests


let () =
  Alcotest.run "lla_model"
    [
      ( "ids",
        [
          Alcotest.test_case "roundtrip" `Quick test_ids_roundtrip;
          Alcotest.test_case "negative rejected" `Quick test_ids_negative;
          Alcotest.test_case "collections" `Quick test_ids_collections;
        ] );
      ( "resource",
        [
          Alcotest.test_case "defaults" `Quick test_resource_defaults;
          Alcotest.test_case "validation" `Quick test_resource_validation;
        ] );
      ( "share",
        [
          Alcotest.test_case "reciprocal (Eq. 10)" `Quick test_share_reciprocal;
          Alcotest.test_case "power(1) = reciprocal" `Quick test_share_power_reduces_to_reciprocal;
          Alcotest.test_case "validation" `Quick test_share_validation;
        ]
        @ qcheck [ prop_share_inverse_roundtrip; prop_share_decreasing_convex ] );
      ( "utility",
        [
          Alcotest.test_case "linear" `Quick test_utility_linear;
          Alcotest.test_case "negative latency" `Quick test_utility_negative_latency;
          Alcotest.test_case "constant" `Quick test_utility_constant;
          Alcotest.test_case "all shapes concave and decreasing" `Quick
            test_utility_shapes_are_concave_decreasing;
          Alcotest.test_case "constructor validation" `Quick test_utility_validation;
          Alcotest.test_case "checker rejects convex" `Quick test_utility_check_rejects_convex;
          Alcotest.test_case "checker rejects wrong derivative" `Quick
            test_utility_check_rejects_wrong_derivative;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "periodic" `Quick test_trigger_periodic;
          Alcotest.test_case "periodic with phase" `Quick test_trigger_periodic_phase;
          Alcotest.test_case "poisson mean" `Slow test_trigger_poisson_mean;
          Alcotest.test_case "bursty pattern" `Quick test_trigger_bursty;
          Alcotest.test_case "phased regimes" `Quick test_trigger_phased;
          Alcotest.test_case "phased validation" `Quick test_trigger_phased_validation;
          Alcotest.test_case "float progress regression" `Quick test_trigger_float_progress;
        ]
        @ qcheck [ prop_trigger_arrivals_advance ] );
      ( "graph",
        [
          Alcotest.test_case "chain" `Quick test_graph_chain;
          Alcotest.test_case "diamond paths" `Quick test_graph_diamond_paths;
          Alcotest.test_case "fan-out" `Quick test_graph_fan_out;
          Alcotest.test_case "weights" `Quick test_graph_weights;
          Alcotest.test_case "weighted sum = mean path latency" `Quick
            test_graph_weighted_sum_is_mean_path_latency;
          Alcotest.test_case "critical path" `Quick test_graph_critical_path;
          Alcotest.test_case "validation" `Quick test_graph_validation;
        ]
        @ qcheck
            [
              prop_graph_weights_sum;
              prop_graph_critical_path_is_max;
              prop_graph_matches_reference;
            ] );
      ( "percentile-map",
        [
          Alcotest.test_case "identity cases" `Quick test_percentile_map_identity;
          Alcotest.test_case "known composition" `Quick test_percentile_map_known_value;
          Alcotest.test_case "compose roundtrip" `Quick test_percentile_map_compose_roundtrip;
          Alcotest.test_case "per-task map" `Quick test_percentile_map_for_task;
        ]
        @ qcheck [ prop_percentile_map_monotone ] );
      ( "task",
        [
          Alcotest.test_case "validation" `Quick test_task_validation;
          Alcotest.test_case "error precedence" `Quick test_task_error_precedence;
          Alcotest.test_case "aggregate and utility" `Quick test_task_aggregate_and_utility;
          Alcotest.test_case "weights accessor" `Quick test_task_weights_accessor;
        ]
        @ qcheck [ prop_task_derived_data ] );
      ( "workload",
        [
          Alcotest.test_case "lookups" `Quick test_workload_lookups;
          Alcotest.test_case "validation" `Quick test_workload_validation;
          Alcotest.test_case "error precedence" `Quick test_workload_error_precedence;
          Alcotest.test_case "utilization" `Quick test_workload_utilization;
          Alcotest.test_case "min share and latency bounds" `Quick
            test_workload_min_share_and_bounds;
          Alcotest.test_case "share sums and violations" `Quick
            test_workload_share_sum_and_violations;
          Alcotest.test_case "total utility" `Quick test_workload_total_utility;
        ] );
    ]
