module Jsonl = Lla_obs.Jsonl

type agent_state = {
  price : float;
  gamma : float;
  lat_view : float array;
}

type controller_state = {
  mu_view : float array;
  congested_view : bool array;
  lambda : float array;
  gamma_p : float array;
}

type 'a slot = { state : 'a; at : float }

type t = {
  obs : Lla_obs.t option;
  journal : Lla_durable.Journal.t option;
  agents : agent_state slot option array;
  controllers : controller_state slot option array;
  mutable saves : int;
  mutable restores : int;
  mutable rejected_saves : int;
  mutable replaying : bool;
}

let create ?obs ?journal ~n_agents ~n_controllers () =
  if n_agents < 0 || n_controllers < 0 then invalid_arg "Checkpoint.create: negative size";
  {
    obs;
    journal;
    agents = Array.make n_agents None;
    controllers = Array.make n_controllers None;
    saves = 0;
    restores = 0;
    rejected_saves = 0;
    replaying = false;
  }

let all_finite a = Array.for_all Float.is_finite a

let copy_agent (s : agent_state) = { s with lat_view = Array.copy s.lat_view }

let copy_controller (s : controller_state) =
  {
    mu_view = Array.copy s.mu_view;
    congested_view = Array.copy s.congested_view;
    lambda = Array.copy s.lambda;
    gamma_p = Array.copy s.gamma_p;
  }

let agent_finite (s : agent_state) =
  Float.is_finite s.price && Float.is_finite s.gamma && all_finite s.lat_view

let controller_finite (s : controller_state) =
  all_finite s.mu_view && all_finite s.lambda && all_finite s.gamma_p

let actor_name prefix i = Printf.sprintf "%s:%d" prefix i

(* The journal record: one JSON object per accepted save, read back by
   [load_line] through the same save path. *)

let bools a = Jsonl.Arr (List.map (fun b -> Jsonl.Bool b) (Array.to_list a))

let agent_line i { state; at } =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("kind", Jsonl.Str "agent");
         ("index", Jsonl.Num (float_of_int i));
         ("at", Jsonl.Num at);
         ("price", Jsonl.Num state.price);
         ("gamma", Jsonl.Num state.gamma);
         ("lat_view", Jsonl.floats state.lat_view);
       ])

let controller_line i { state; at } =
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("kind", Jsonl.Str "controller");
         ("index", Jsonl.Num (float_of_int i));
         ("at", Jsonl.Num at);
         ("mu_view", Jsonl.floats state.mu_view);
         ("congested_view", bools state.congested_view);
         ("lambda", Jsonl.floats state.lambda);
         ("gamma_p", Jsonl.floats state.gamma_p);
       ])

(* A non-finite save time would stall the save cadence and keep the
   snapshot fresh forever, so it is refused like non-finite state. *)
let save slots copy finite line prefix t i ~now state =
  if Float.is_finite now && finite state then begin
    let slot = { state = copy state; at = now } in
    slots.(i) <- Some slot;
    t.saves <- t.saves + 1;
    (* write-ahead: an accepted save reaches the journal before the
       caller learns it was accepted; replays re-enter through this
       same path with appends suppressed *)
    (match t.journal with
    | Some j when not t.replaying -> Lla_durable.Journal.append j (line i slot)
    | _ -> ());
    (* replayed saves carry their original (past) timestamps; re-emitting
       them would break trace time-monotonicity, and recovery reports its
       own Note events instead *)
    if not t.replaying then
      Lla_obs.emit_opt t.obs ~at:now
        (Lla_obs.Trace.Checkpoint_saved { actor = actor_name prefix i });
    true
  end
  else begin
    t.rejected_saves <- t.rejected_saves + 1;
    if not t.replaying then
      Lla_obs.emit_opt t.obs ~at:now
        (Lla_obs.Trace.Checkpoint_rejected { actor = actor_name prefix i });
    false
  end

let save_agent t i ~now state =
  save t.agents copy_agent agent_finite agent_line "agent" t i ~now state

let save_controller t i ~now state =
  save t.controllers copy_controller controller_finite controller_line "controller" t i ~now state

let restore slots copy t i =
  match slots.(i) with
  | None -> None
  | Some { state; _ } ->
    t.restores <- t.restores + 1;
    Some (copy state)

let restore_agent t i = restore t.agents copy_agent t i

let restore_controller t i = restore t.controllers copy_controller t i

let last_save slots i = Option.map (fun { at; _ } -> at) slots.(i)

let last_agent_save t i = last_save t.agents i

let last_controller_save t i = last_save t.controllers i

let saves t = t.saves

let restores t = t.restores

let rejected_saves t = t.rejected_saves

(* --- journal records ----------------------------------------------- *)

let ( let* ) = Option.bind

let num_field name json = Option.bind (Jsonl.member name json) Jsonl.num

(* [int_of_float] maps nan, the infinities and out-of-range values to 0,
   so an index counts only when it converts back to itself. *)
let index_field json =
  let* v = num_field "index" json in
  let i = int_of_float v in
  if float_of_int i = v then Some i else None

(* A journal line back through the save path: [Some accepted], or [None]
   for a malformed line (bad JSON, unknown kind, out-of-range index,
   wrong field type). *)
let load_line t line =
  let* json = Result.to_option (Jsonl.parse line) in
  let* i = index_field json in
  let* at = num_field "at" json in
  match Option.bind (Jsonl.member "kind" json) Jsonl.str with
  | Some "agent" when i >= 0 && i < Array.length t.agents ->
    let* price = num_field "price" json in
    let* gamma = num_field "gamma" json in
    let* lat_view = Jsonl.array_field Jsonl.num "lat_view" json in
    Some (save_agent t i ~now:at { price; gamma; lat_view })
  | Some "controller" when i >= 0 && i < Array.length t.controllers ->
    let* mu_view = Jsonl.array_field Jsonl.num "mu_view" json in
    let* congested_view = Jsonl.array_field Jsonl.bool "congested_view" json in
    let* lambda = Jsonl.array_field Jsonl.num "lambda" json in
    let* gamma_p = Jsonl.array_field Jsonl.num "gamma_p" json in
    Some (save_controller t i ~now:at { mu_view; congested_view; lambda; gamma_p })
  | _ -> None

(* --- Durability ------------------------------------------------------- *)

let clear t =
  Array.fill t.agents 0 (Array.length t.agents) None;
  Array.fill t.controllers 0 (Array.length t.controllers) None

let recover t ~now =
  match t.journal with
  | None -> None
  | Some j ->
    t.replaying <- true;
    (* a malformed journal line is refused, never raised on — crash
       recovery must be total in the stored bytes *)
    let apply line = Option.value (load_line t line) ~default:false in
    let report =
      Fun.protect
        ~finally:(fun () -> t.replaying <- false)
        (fun () -> Lla_durable.Recovery.replay ?obs:t.obs ~at:now j ~apply)
    in
    Some report
