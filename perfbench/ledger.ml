(* The per-layer time ledger of a traced pass.

   Every benchmark span is also a profiler phase, so the profiler's tree
   holds the library's own phases (kernel.step > allocate, price_update,
   allocation > solve, checkpoint, ...) nested under the benchmark's
   calls. Each node's self time is its total minus its children's; a
   layer's time is the sum of the self times of the phases it owns.
   Phases no layer owns — the root, the per-workload grouping spans and
   the bodies of calls that have no inner hook, like [Distributed.run]'s
   engine, transport, delivery, trace and health work — make up
   [unattributed_s]. Self times telescope, so the layers plus
   [unattributed_s] equal the root's total by construction; [closure]
   checks that against the root span's own clock reads. *)

module Profile = Lla_obs.Profile

let owner = function
  | "generator.generate" -> Some "generator.generate"
  | "problem.compile" -> Some "problem.compile"
  | "kernel.compact" -> Some "kernel.compact"
  | "distributed.create" -> Some "distributed.create"
  | "allocate" -> Some "kernel.allocate"
  | "resource_prices" -> Some "kernel.resource_prices"
  | "path_prices" -> Some "kernel.path_prices"
  | "kernel.step" -> Some "kernel.step_self"
  | "kernel.solve" | "kernel.run" -> Some "kernel.loop"
  | "kernel.restore" -> Some "kernel.restore"
  | "soak.run" -> Some "soak.harness"
  | "price_update" -> Some "distributed.price_update"
  | "allocation" -> Some "distributed.allocation"
  | "solve" -> Some "allocation.solve"
  | "checkpoint" | "checkpoint.encode" -> Some "checkpoint.save"
  | "monitor.sink" -> Some "monitor.sink"
  | "bench.harness" -> Some "bench.harness"
  | _ -> None

let layers =
  [
    "generator.generate";
    "problem.compile";
    "kernel.compact";
    "distributed.create";
    "kernel.allocate";
    "kernel.resource_prices";
    "kernel.path_prices";
    "kernel.step_self";
    "kernel.loop";
    "kernel.restore";
    "soak.harness";
    "distributed.price_update";
    "distributed.allocation";
    "allocation.solve";
    "checkpoint.save";
    "monitor.sink";
    "bench.harness";
  ]

type t = {
  layers : (string * float) list;  (** self seconds of every entry of [layers], 0 when unused *)
  unattributed : float;
  root_total : float;  (** the profiler's total for the root phase *)
  step_total : float;  (** [kernel.step] including its sub-phases *)
}

let of_profile profile =
  let stats = Profile.stats profile in
  let self = Hashtbl.create 64 in
  List.iter (fun (s : Profile.stat) -> Hashtbl.replace self s.path s.seconds) stats;
  List.iter
    (fun (s : Profile.stat) ->
      match List.rev s.path with
      | _ :: (_ :: _ as rev_parent) ->
          let parent = List.rev rev_parent in
          let v = Hashtbl.find self parent in
          Hashtbl.replace self parent (v -. s.seconds)
      | _ -> ())
    stats;
  let by_layer = Hashtbl.create 16 in
  let unattributed = ref 0. and root_total = ref 0. and step_total = ref 0. in
  List.iter
    (fun (s : Profile.stat) ->
      let name = List.nth s.path (List.length s.path - 1) in
      if List.length s.path = 1 then root_total := !root_total +. s.seconds;
      if name = "kernel.step" then step_total := !step_total +. s.seconds;
      let v = Hashtbl.find self s.path in
      match owner name with
      | Some m ->
          Hashtbl.replace by_layer m (v +. Option.value (Hashtbl.find_opt by_layer m) ~default:0.)
      | None -> unattributed := !unattributed +. v)
    stats;
  {
    layers = List.map (fun m -> (m, Option.value (Hashtbl.find_opt by_layer m) ~default:0.)) layers;
    unattributed = !unattributed;
    root_total = !root_total;
    step_total = !step_total;
  }

(* The layers plus [unattributed] against the wall the root span measured
   itself: the two clocks reads bracketing a phase differ by a few
   hundred nanoseconds, nothing more. *)
let closure t ~wall =
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0. t.layers in
  let sum = attributed +. t.unattributed in
  (sum, Float.abs (sum -. wall) <= 1e-3 *. wall)
