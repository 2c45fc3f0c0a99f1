open Ids

let ( let* ) = Result.bind

let errorf line fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "line %d: %s" line msg)) fmt

(* ------------------------------------------------------------------ *)
(* Serialization                                                       *)
(* ------------------------------------------------------------------ *)

let float_str x =
  (* Prefer a short decimal when it round-trips exactly; fall back to the
     17-digit form that always does. *)
  let short = Printf.sprintf "%.12g" x in
  if float_of_string short = x then short else Printf.sprintf "%.17g" x

let utility_spec (task : Task.t) =
  match task.Task.utility.Utility.spec with
  | None -> invalid_arg "Workload_codec: custom utilities are not serializable"
  | Some (Utility.Linear_spec { k }) -> Printf.sprintf "linear:%s" (float_str k)
  | Some Utility.Negative_spec -> "negative"
  | Some (Utility.Logarithmic_spec { k; weight }) ->
    Printf.sprintf "log:%s:%s" (float_str k) (float_str weight)
  | Some (Utility.Soft_deadline_spec { sharpness; scale }) ->
    Printf.sprintf "softdl:%s:%s" (float_str sharpness) (float_str scale)
  | Some (Utility.Quadratic_spec { weight }) -> Printf.sprintf "quadratic:%s" (float_str weight)
  | Some (Utility.Constant_spec { value }) -> Printf.sprintf "constant:%s" (float_str value)

let rec trigger_spec = function
  | Trigger.Periodic { period; phase } ->
    if phase = 0. then Printf.sprintf "periodic:%s" (float_str period)
    else Printf.sprintf "periodic:%s:%s" (float_str period) (float_str phase)
  | Trigger.Poisson { rate } -> Printf.sprintf "poisson:%s" (float_str (rate *. 1000.))
  | Trigger.Bursty { on_duration; off_duration; period_in_burst } ->
    Printf.sprintf "bursty:%s:%s:%s" (float_str on_duration) (float_str off_duration)
      (float_str period_in_burst)
  | Trigger.Phased { before; switch_at; after } ->
    Printf.sprintf "phased:%s;%s;%s" (float_str switch_at) (trigger_spec before)
      (trigger_spec after)

let share_spec_of (s : Subtask.t) =
  match s.Subtask.share_spec with
  | Share.Reciprocal -> "reciprocal"
  | Share.Power { exponent } -> Printf.sprintf "power:%s" (float_str exponent)

let quote_name name =
  (* names with spaces are not representable; reject early *)
  if String.exists (fun c -> c = ' ' || c = '\t' || c = '=') name then
    invalid_arg (Printf.sprintf "Workload_codec: name %S contains whitespace or '='" name)
  else name

let to_string (workload : Workload.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# lla workload\n";
  List.iter
    (fun (r : Resource.t) ->
      Buffer.add_string buf
        (Printf.sprintf "resource %d name=%s kind=%s availability=%s lag=%s\n"
           (Resource_id.to_int r.id) (quote_name r.name) (Resource.kind_to_string r.kind)
           (float_str r.availability) (float_str r.lag)))
    workload.Workload.resources;
  List.iter
    (fun (task : Task.t) ->
      Buffer.add_char buf '\n';
      Buffer.add_string buf
        (Printf.sprintf "task %d name=%s critical_time=%s utility=%s trigger=%s variant=%s percentile=%s\n"
           (Task_id.to_int task.Task.id) (quote_name task.Task.name)
           (float_str task.Task.critical_time) (utility_spec task)
           (trigger_spec task.Task.trigger)
           (Utility.variant_to_string task.Task.variant)
           (float_str task.Task.latency_percentile));
      List.iter
        (fun (s : Subtask.t) ->
          Buffer.add_string buf
            (Printf.sprintf "subtask %d task=%d name=%s resource=%d exec=%s share=%s\n"
               (Subtask_id.to_int s.id) (Task_id.to_int task.Task.id) (quote_name s.name)
               (Resource_id.to_int s.resource) (float_str s.exec_time) (share_spec_of s)))
        task.Task.subtasks;
      List.iter
        (fun (a, b) ->
          Buffer.add_string buf
            (Printf.sprintf "edge %d %d\n" (Subtask_id.to_int a) (Subtask_id.to_int b)))
        (Graph.edges task.Task.graph))
    workload.Workload.tasks;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let parse_float line name s =
  match float_of_string_opt s with
  | Some f -> Ok f
  | None -> errorf line "%s: not a number: %S" name s

let parse_int line name s =
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> errorf line "%s: not an integer: %S" name s

let parse_attrs line tokens =
  let rec loop acc = function
    | [] -> Ok acc
    | token :: rest -> (
      match String.index_opt token '=' with
      | None -> errorf line "expected key=value, got %S" token
      | Some i ->
        let key = String.sub token 0 i in
        let value = String.sub token (i + 1) (String.length token - i - 1) in
        loop ((key, value) :: acc) rest)
  in
  loop [] tokens

let attr attrs key = List.assoc_opt key attrs

let require line attrs key =
  match attr attrs key with
  | Some v -> Ok v
  | None -> errorf line "missing required attribute %S" key

let parse_simple_trigger line spec =
  match String.split_on_char ':' spec with
  | [ "periodic"; period ] ->
    let* period = parse_float line "period" period in
    Ok (Trigger.periodic ~period ())
  | [ "periodic"; period; phase ] ->
    let* period = parse_float line "period" period in
    let* phase = parse_float line "phase" phase in
    Ok (Trigger.periodic ~phase ~period ())
  | [ "poisson"; rate ] ->
    let* rate_per_second = parse_float line "rate" rate in
    Ok (Trigger.poisson ~rate_per_second)
  | [ "bursty"; on; off; in_burst ] ->
    let* on_duration = parse_float line "on" on in
    let* off_duration = parse_float line "off" off in
    let* period_in_burst = parse_float line "in-burst" in_burst in
    Ok (Trigger.bursty ~on_duration ~off_duration ~period_in_burst)
  | _ -> errorf line "unknown trigger spec %S" spec

let parse_trigger line spec =
  match String.split_on_char ';' spec with
  | [ simple ] -> parse_simple_trigger line simple
  | [ head; before; after ] -> (
    match String.split_on_char ':' head with
    | [ "phased"; switch ] ->
      let* switch_at = parse_float line "switch_at" switch in
      let* before = parse_simple_trigger line before in
      let* after = parse_simple_trigger line after in
      Ok (Trigger.phased ~before ~switch_at ~after)
    | _ -> errorf line "unknown phased trigger spec %S" spec)
  | _ -> errorf line "unknown trigger spec %S" spec

let parse_utility line spec ~critical_time =
  match String.split_on_char ':' spec with
  | [ "linear"; k ] ->
    let* k = parse_float line "k" k in
    Ok (Utility.linear ~k ~critical_time)
  | [ "negative" ] -> Ok (Utility.negative_latency ())
  | [ "log"; k ] ->
    let* k = parse_float line "k" k in
    Ok (Utility.logarithmic ~k ~critical_time ())
  | [ "log"; k; weight ] ->
    let* k = parse_float line "k" k in
    let* weight = parse_float line "weight" weight in
    Ok (Utility.logarithmic ~weight ~k ~critical_time ())
  | [ "softdl"; sharpness ] ->
    let* sharpness = parse_float line "sharpness" sharpness in
    Ok (Utility.soft_deadline ~sharpness ~critical_time ())
  | [ "softdl"; sharpness; scale ] ->
    let* sharpness = parse_float line "sharpness" sharpness in
    let* scale = parse_float line "scale" scale in
    Ok (Utility.soft_deadline ~scale ~sharpness ~critical_time ())
  | [ "quadratic" ] -> Ok (Utility.quadratic ())
  | [ "quadratic"; weight ] ->
    let* weight = parse_float line "weight" weight in
    Ok (Utility.quadratic ~weight ())
  | [ "constant"; value ] ->
    let* value = parse_float line "value" value in
    Ok (Utility.constant ~value)
  | _ -> errorf line "unknown utility spec %S" spec

let parse_share line spec =
  match String.split_on_char ':' spec with
  | [ "reciprocal" ] -> Ok Share.Reciprocal
  | [ "power"; exponent ] ->
    let* exponent = parse_float line "exponent" exponent in
    Ok (Share.Power { exponent })
  | _ -> errorf line "unknown share spec %S" spec

let parse_variant line = function
  | "sum" -> Ok Utility.Sum
  | "path-weighted" -> Ok Utility.Path_weighted
  | other -> errorf line "unknown variant %S" other

(* Intermediate declarations, resolved into tasks at the end. *)
type task_decl = {
  t_line : int;
  t_id : int;
  t_name : string option;
  t_critical_time : float;
  t_utility_spec : string;
  t_trigger : Trigger.t;
  t_variant : Utility.variant;
  t_percentile : float;
}

type subtask_decl = {
  s_line : int;
  s_id : int;
  s_task : int;
  s_name : string option;
  s_resource : int;
  s_exec : float;
  s_share : Share.spec;
}

let parse text =
  let lines = String.split_on_char '\n' text in
  let resources = ref [] and tasks = ref [] and subtasks = ref [] and edges = ref [] in
  let parse_line line_no raw =
    (* '#' starts a comment only at line start or after whitespace, so
       names like "T11#1" survive. *)
    let comment_start =
      let n = String.length raw in
      let rec scan i =
        if i >= n then None
        else if raw.[i] = '#' && (i = 0 || raw.[i - 1] = ' ' || raw.[i - 1] = '\t') then Some i
        else scan (i + 1)
      in
      scan 0
    in
    let raw = match comment_start with Some i -> String.sub raw 0 i | None -> raw in
    let tokens =
      String.split_on_char ' ' (String.trim raw)
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun t -> t <> "")
    in
    match tokens with
    | [] -> Ok ()
    | "resource" :: id :: attrs ->
      let* id = parse_int line_no "resource id" id in
      let* attrs = parse_attrs line_no attrs in
      let* availability =
        match attr attrs "availability" with
        | Some v -> parse_float line_no "availability" v
        | None -> Ok 1.0
      in
      let* lag =
        match attr attrs "lag" with Some v -> parse_float line_no "lag" v | None -> Ok 0.0
      in
      let* kind =
        match attr attrs "kind" with
        | Some "cpu" | None -> Ok Resource.Cpu
        | Some "link" -> Ok Resource.Link
        | Some other -> errorf line_no "unknown resource kind %S" other
      in
      let resource = Resource.make ?name:(attr attrs "name") ~kind ~availability ~lag id in
      resources := resource :: !resources;
      Ok ()
    | "task" :: id :: attrs ->
      let* t_id = parse_int line_no "task id" id in
      let* attrs = parse_attrs line_no attrs in
      let* ct = require line_no attrs "critical_time" in
      let* t_critical_time = parse_float line_no "critical_time" ct in
      let* t_utility_spec = require line_no attrs "utility" in
      let* trigger = require line_no attrs "trigger" in
      let* t_trigger = parse_trigger line_no trigger in
      let* t_variant =
        match attr attrs "variant" with
        | Some v -> parse_variant line_no v
        | None -> Ok Utility.Path_weighted
      in
      let* t_percentile =
        match attr attrs "percentile" with
        | Some v -> parse_float line_no "percentile" v
        | None -> Ok 100.
      in
      tasks :=
        {
          t_line = line_no;
          t_id;
          t_name = attr attrs "name";
          t_critical_time;
          t_utility_spec;
          t_trigger;
          t_variant;
          t_percentile;
        }
        :: !tasks;
      Ok ()
    | "subtask" :: id :: attrs ->
      let* s_id = parse_int line_no "subtask id" id in
      let* attrs = parse_attrs line_no attrs in
      let* task = require line_no attrs "task" in
      let* s_task = parse_int line_no "task" task in
      let* resource = require line_no attrs "resource" in
      let* s_resource = parse_int line_no "resource" resource in
      let* exec = require line_no attrs "exec" in
      let* s_exec = parse_float line_no "exec" exec in
      let* s_share =
        match attr attrs "share" with
        | Some v -> parse_share line_no v
        | None -> Ok Share.Reciprocal
      in
      subtasks :=
        { s_line = line_no; s_id; s_task; s_name = attr attrs "name"; s_resource; s_exec; s_share }
        :: !subtasks;
      Ok ()
    | [ "edge"; a; b ] ->
      let* a = parse_int line_no "edge source" a in
      let* b = parse_int line_no "edge target" b in
      edges := (line_no, a, b) :: !edges;
      Ok ()
    | keyword :: _ -> errorf line_no "unknown directive %S" keyword
  in
  let* () =
    List.fold_left
      (fun acc (line_no, raw) -> match acc with Error _ -> acc | Ok () -> parse_line line_no raw)
      (Ok ())
      (List.mapi (fun i raw -> (i + 1, raw)) lines)
  in
  let resources = List.rev !resources in
  let task_decls = List.rev !tasks in
  let* () = if task_decls = [] then Error "no tasks declared" else Ok () in
  (* Group the declarations once, each group in file order: subtasks by
     the task they name, edges by their source subtask. A task then sees
     the edges leaving any id it declares, so an id two tasks declare
     brings its edges to both. *)
  let group key decls =
    let table = Hashtbl.create 64 in
    (* [decls] is in reverse file order, so consing restores it *)
    List.iter
      (fun d ->
        let k = key d in
        Hashtbl.replace table k (d :: Option.value (Hashtbl.find_opt table k) ~default:[]))
      decls;
    fun k -> Option.value (Hashtbl.find_opt table k) ~default:[]
  in
  let subtasks_of = group (fun s -> s.s_task) !subtasks in
  let edges_from = group (fun (_, a, _) -> a) !edges in
  (* Materialize each task from its subtasks and edges. *)
  let build_task decl =
    let own = subtasks_of decl.t_id in
    let* () =
      if own = [] then errorf decl.t_line "task %d has no subtasks" decl.t_id else Ok ()
    in
    let tid = Task_id.make decl.t_id in
    let model_subtasks =
      List.map
        (fun s ->
          Subtask.make ?name:s.s_name ~share_spec:s.s_share ~id:s.s_id ~task:tid
            ~resource:s.s_resource ~exec_time:s.s_exec ())
        own
    in
    let own_ids =
      List.sort_uniq Int.compare
        (List.map (fun (s : Subtask.t) -> Subtask_id.to_int s.id) model_subtasks)
    in
    let own_set = Array.of_list own_ids in
    let own_edges =
      List.sort (fun (l, _, _) (l', _, _) -> Int.compare l l') (List.concat_map edges_from own_ids)
    in
    let* graph_edges =
      List.fold_left
        (fun acc (line_no, a, b) ->
          let* acc = acc in
          if Sorted.mem own_set b then Ok ((Subtask_id.make a, Subtask_id.make b) :: acc)
          else errorf line_no "edge %d -> %d crosses tasks" a b)
        (Ok []) own_edges
    in
    let* graph =
      Graph.make ~nodes:(List.map Subtask_id.make own_ids) ~edges:(List.rev graph_edges)
    in
    let* utility =
      parse_utility decl.t_line decl.t_utility_spec ~critical_time:decl.t_critical_time
    in
    Task.make ?name:decl.t_name ~variant:decl.t_variant ~latency_percentile:decl.t_percentile
      ~id:decl.t_id ~subtasks:model_subtasks ~graph ~critical_time:decl.t_critical_time ~utility
      ~trigger:decl.t_trigger ()
  in
  let* tasks =
    List.fold_left
      (fun acc decl ->
        let* acc = acc in
        let* task = build_task decl in
        Ok (task :: acc))
      (Ok []) task_decls
  in
  let subtask_decls = List.rev !subtasks in
  (* Orphan subtasks (task id never declared) are an error. *)
  let* () =
    let declared = Sorted.of_list (fun d -> d.t_id) task_decls in
    match List.find_opt (fun s -> not (Sorted.mem declared s.s_task)) subtask_decls with
    | Some s -> errorf s.s_line "subtask %d references undeclared task %d" s.s_id s.s_task
    | None -> Ok ()
  in
  (* So are dangling edges, whose source no task declares: no task would
     pick them up. *)
  let* () =
    let declared = Sorted.of_list (fun s -> s.s_id) subtask_decls in
    match List.find_opt (fun (_, a, _) -> not (Sorted.mem declared a)) (List.rev !edges) with
    | Some (line_no, a, b) -> errorf line_no "edge %d -> %d leaves undeclared subtask %d" a b a
    | None -> Ok ()
  in
  Workload.make ~tasks:(List.rev tasks) ~resources

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg

let save ~path workload =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (to_string workload))
