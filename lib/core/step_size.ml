type policy =
  | Fixed of float
  | Adaptive of { initial : float; cap : float }
  | Split of { resource : policy; path : policy }

let fixed gamma =
  if gamma <= 0. then invalid_arg "Step_size.fixed: gamma <= 0";
  Fixed gamma

let adaptive ?cap ~initial () =
  if initial <= 0. then invalid_arg "Step_size.adaptive: initial <= 0";
  let cap = match cap with Some c -> c | None -> 4. *. initial in
  if cap < initial then invalid_arg "Step_size.adaptive: cap below initial";
  Adaptive { initial; cap }

let split ~resource ~path =
  (match (resource, path) with
  | Split _, _ | _, Split _ -> invalid_arg "Step_size.split: nested Split"
  | _ -> ());
  Split { resource; path }

(* The per-family components of a policy ([p, p] unless [Split]). *)
let components = function
  | Split { resource; path } -> (resource, path)
  | (Fixed _ | Adaptive _) as p -> (p, p)

let initial = function
  | Fixed g -> g
  | Adaptive { initial; _ } -> initial
  | Split _ -> invalid_arg "Step_size.initial: Split has one step per family"

let adapt policy gamma ~congested =
  match policy with
  | Fixed g -> g
  | Adaptive { initial; cap } -> if congested then Float.min cap (gamma *. 2.) else initial
  | Split _ -> invalid_arg "Step_size.adapt: Split has one step per family"

type t = {
  policy : policy;
  problem : Problem.t;
  gamma_r : float array;
  gamma_p : float array;
}

let create problem policy =
  let resource, path = components policy in
  {
    policy;
    problem;
    gamma_r = Array.make (Problem.n_resources problem) (initial resource);
    gamma_p = Array.make (Problem.n_paths problem) (initial path);
  }

let resource_gamma t r = t.gamma_r.(r)

let path_gamma t p = t.gamma_p.(p)

let observe t ~congested_resources =
  let resource, path = components t.policy in
  Array.iteri
    (fun r congested -> t.gamma_r.(r) <- adapt resource t.gamma_r.(r) ~congested)
    congested_resources;
  (* A path is sped up while any resource it traverses is congested, and
     reverts once all of them are uncongested ("as soon as r becomes
     uncongested, revert"). *)
  Array.iteri
    (fun p (info : Problem.path) ->
      let congested = Array.exists (fun r -> congested_resources.(r)) info.path_resources in
      t.gamma_p.(p) <- adapt path t.gamma_p.(p) ~congested)
    t.problem.paths

