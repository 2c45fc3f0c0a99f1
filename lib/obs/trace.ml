type event =
  | Iteration of { iteration : int; utility : float; movement : float; guards : int }
  | Allocation_solved of { task : int; utility : float }
  | Price_updated of {
      resource : int;
      mu : float;
      step : float;
      share_sum : float;
      capacity : float;
      congested : bool;
    }
  | Path_price_updated of {
      path : int;
      lambda : float;
      step : float;
      latency : float;
      critical_time : float;
    }
  | Guard_fired of { site : string }
  | Correction_applied of { subtask : string; offset : float }
  | Watchdog_trip of { reason : string }
  | Safe_mode_entered of { reason : string; fallback : string }
  | Safe_mode_exited
  | Checkpoint_saved of { actor : string }
  | Checkpoint_rejected of { actor : string }
  | Checkpoint_restored of { actor : string; warm : bool }
  | Transport_send of { src : string; dst : string }
  | Transport_dropped of { src : string; dst : string; reason : string }
  | Transport_delivered of { src : string; dst : string; delay : float }
  | Health_transition of { endpoint : string; alive : bool }
  | Span of { span : int; parent : int; trace : int; kind : string; actor : string }
  | Note of { name : string; value : float }
  | Alert_raised of { alert : string; severity : string; value : float }
  | Alert_cleared of { alert : string; value : float }

type record = { seq : int; at : float; event : event }

(* The ring stores events column-wise — a tag array plus unboxed
   float/int columns and string columns for each operand — rather than
   as [event] values. A retained ring of heap-allocated payloads
   (variant blocks with boxed floats) keeps a window of young blocks
   permanently live, so every overwrite cycle promotes them to the
   major heap; at realistic emission rates that promotion dominated the
   entire observability budget. Flattened, an emit is a handful of
   scalar array stores and allocates nothing; [event] values (and
   {!record}s) are synthesized lazily on read and for sinks. *)
type t = {
  capacity : int;
  tags : int array;  (* constructor index, declaration order *)
  ats : float array;
  fa : float array;  (* float operands, per-constructor layout below *)
  fb : float array;
  fc : float array;
  fd : float array;
  ia : int array;  (* int/bool operands *)
  ib : int array;
  ic : int array;
  sa : string array;  (* string operands; shared, never copied *)
  sb : string array;
  sc : string array;
  mutable pos : int;  (* next write slot *)
  mutable len : int;  (* valid entries *)
  mutable emitted : int;
  mutable sinks : (record -> unit) list;  (* attach order *)
}

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: non-positive capacity";
  {
    capacity;
    tags = Array.make capacity 0;
    ats = Array.make capacity 0.;
    fa = Array.make capacity 0.;
    fb = Array.make capacity 0.;
    fc = Array.make capacity 0.;
    fd = Array.make capacity 0.;
    ia = Array.make capacity 0;
    ib = Array.make capacity 0;
    ic = Array.make capacity 0;
    sa = Array.make capacity "";
    sb = Array.make capacity "";
    sc = Array.make capacity "";
    pos = 0;
    len = 0;
    emitted = 0;
    sinks = [];
  }

(* Column layout: only the slots a constructor uses are written on emit
   and read back on decode; the rest keep stale values. *)
let store t i = function
  | Iteration { iteration; utility; movement; guards } ->
    t.tags.(i) <- 0;
    t.ia.(i) <- iteration;
    t.ib.(i) <- guards;
    t.fa.(i) <- utility;
    t.fb.(i) <- movement
  | Allocation_solved { task; utility } ->
    t.tags.(i) <- 1;
    t.ia.(i) <- task;
    t.fa.(i) <- utility
  | Price_updated { resource; mu; step; share_sum; capacity; congested } ->
    t.tags.(i) <- 2;
    t.ia.(i) <- resource;
    t.ib.(i) <- Bool.to_int congested;
    t.fa.(i) <- mu;
    t.fb.(i) <- step;
    t.fc.(i) <- share_sum;
    t.fd.(i) <- capacity
  | Path_price_updated { path; lambda; step; latency; critical_time } ->
    t.tags.(i) <- 3;
    t.ia.(i) <- path;
    t.fa.(i) <- lambda;
    t.fb.(i) <- step;
    t.fc.(i) <- latency;
    t.fd.(i) <- critical_time
  | Guard_fired { site } ->
    t.tags.(i) <- 4;
    t.sa.(i) <- site
  | Correction_applied { subtask; offset } ->
    t.tags.(i) <- 5;
    t.sa.(i) <- subtask;
    t.fa.(i) <- offset
  | Watchdog_trip { reason } ->
    t.tags.(i) <- 6;
    t.sa.(i) <- reason
  | Safe_mode_entered { reason; fallback } ->
    t.tags.(i) <- 7;
    t.sa.(i) <- reason;
    t.sb.(i) <- fallback
  | Safe_mode_exited -> t.tags.(i) <- 8
  | Checkpoint_saved { actor } ->
    t.tags.(i) <- 9;
    t.sa.(i) <- actor
  | Checkpoint_rejected { actor } ->
    t.tags.(i) <- 10;
    t.sa.(i) <- actor
  | Checkpoint_restored { actor; warm } ->
    t.tags.(i) <- 11;
    t.sa.(i) <- actor;
    t.ia.(i) <- Bool.to_int warm
  | Transport_send { src; dst } ->
    t.tags.(i) <- 12;
    t.sa.(i) <- src;
    t.sb.(i) <- dst
  | Transport_dropped { src; dst; reason } ->
    t.tags.(i) <- 13;
    t.sa.(i) <- src;
    t.sb.(i) <- dst;
    t.sc.(i) <- reason
  | Transport_delivered { src; dst; delay } ->
    t.tags.(i) <- 14;
    t.sa.(i) <- src;
    t.sb.(i) <- dst;
    t.fa.(i) <- delay
  | Health_transition { endpoint; alive } ->
    t.tags.(i) <- 15;
    t.sa.(i) <- endpoint;
    t.ia.(i) <- Bool.to_int alive
  | Span { span; parent; trace; kind; actor } ->
    t.tags.(i) <- 16;
    t.ia.(i) <- span;
    t.ib.(i) <- parent;
    t.ic.(i) <- trace;
    t.sa.(i) <- kind;
    t.sb.(i) <- actor
  | Note { name; value } ->
    t.tags.(i) <- 17;
    t.sa.(i) <- name;
    t.fa.(i) <- value
  | Alert_raised { alert; severity; value } ->
    t.tags.(i) <- 18;
    t.sa.(i) <- alert;
    t.sb.(i) <- severity;
    t.fa.(i) <- value
  | Alert_cleared { alert; value } ->
    t.tags.(i) <- 19;
    t.sa.(i) <- alert;
    t.fa.(i) <- value

let load t i =
  match t.tags.(i) with
  | 0 ->
    Iteration
      { iteration = t.ia.(i); utility = t.fa.(i); movement = t.fb.(i); guards = t.ib.(i) }
  | 1 -> Allocation_solved { task = t.ia.(i); utility = t.fa.(i) }
  | 2 ->
    Price_updated
      {
        resource = t.ia.(i);
        mu = t.fa.(i);
        step = t.fb.(i);
        share_sum = t.fc.(i);
        capacity = t.fd.(i);
        congested = t.ib.(i) <> 0;
      }
  | 3 ->
    Path_price_updated
      {
        path = t.ia.(i);
        lambda = t.fa.(i);
        step = t.fb.(i);
        latency = t.fc.(i);
        critical_time = t.fd.(i);
      }
  | 4 -> Guard_fired { site = t.sa.(i) }
  | 5 -> Correction_applied { subtask = t.sa.(i); offset = t.fa.(i) }
  | 6 -> Watchdog_trip { reason = t.sa.(i) }
  | 7 -> Safe_mode_entered { reason = t.sa.(i); fallback = t.sb.(i) }
  | 8 -> Safe_mode_exited
  | 9 -> Checkpoint_saved { actor = t.sa.(i) }
  | 10 -> Checkpoint_rejected { actor = t.sa.(i) }
  | 11 -> Checkpoint_restored { actor = t.sa.(i); warm = t.ia.(i) <> 0 }
  | 12 -> Transport_send { src = t.sa.(i); dst = t.sb.(i) }
  | 13 -> Transport_dropped { src = t.sa.(i); dst = t.sb.(i); reason = t.sc.(i) }
  | 14 -> Transport_delivered { src = t.sa.(i); dst = t.sb.(i); delay = t.fa.(i) }
  | 15 -> Health_transition { endpoint = t.sa.(i); alive = t.ia.(i) <> 0 }
  | 16 ->
    Span
      { span = t.ia.(i); parent = t.ib.(i); trace = t.ic.(i); kind = t.sa.(i); actor = t.sb.(i) }
  | 17 -> Note { name = t.sa.(i); value = t.fa.(i) }
  | 18 -> Alert_raised { alert = t.sa.(i); severity = t.sb.(i); value = t.fa.(i) }
  | _ -> Alert_cleared { alert = t.sa.(i); value = t.fa.(i) }

(* Store before fanning out: a sink may re-enter [emit] (the Monitor
   alert bus stamps transitions into the stream it observes), and this
   order gives the nested record the next slot and sequence number
   instead of colliding with its trigger's. *)
let emit t ~at event =
  let seq = t.emitted in
  t.ats.(t.pos) <- at;
  store t t.pos event;
  t.pos <- (t.pos + 1) mod t.capacity;
  if t.len < t.capacity then t.len <- t.len + 1;
  t.emitted <- seq + 1;
  match t.sinks with
  | [] -> ()
  | sinks ->
    let r = { seq; at; event } in
    List.iter (fun sink -> sink r) sinks

(* Appending keeps the list in attach order so the hot path never
   reverses; attaching is rare. *)
let attach t sink = t.sinks <- t.sinks @ [ sink ]

let records t =
  let start = (t.pos - t.len + t.capacity) mod t.capacity in
  let first_seq = t.emitted - t.len in
  let acc = ref [] in
  for k = t.len - 1 downto 0 do
    let i = (start + k) mod t.capacity in
    acc := { seq = first_seq + k; at = t.ats.(i); event = load t i } :: !acc
  done;
  !acc

let event_name = function
  | Iteration _ -> "iteration"
  | Allocation_solved _ -> "allocation_solved"
  | Price_updated _ -> "price_updated"
  | Path_price_updated _ -> "path_price_updated"
  | Guard_fired _ -> "guard_fired"
  | Correction_applied _ -> "correction_applied"
  | Watchdog_trip _ -> "watchdog_trip"
  | Safe_mode_entered _ -> "safe_mode_entered"
  | Safe_mode_exited -> "safe_mode_exited"
  | Checkpoint_saved _ -> "checkpoint_saved"
  | Checkpoint_rejected _ -> "checkpoint_rejected"
  | Checkpoint_restored _ -> "checkpoint_restored"
  | Transport_send _ -> "transport_send"
  | Transport_dropped _ -> "transport_dropped"
  | Transport_delivered _ -> "transport_delivered"
  | Health_transition _ -> "health_transition"
  | Span _ -> "span"
  | Note _ -> "note"
  | Alert_raised _ -> "alert_raised"
  | Alert_cleared _ -> "alert_cleared"

let event_fields = function
  | Iteration { iteration; utility; movement; guards } ->
    [
      ("iteration", Jsonl.Num (float_of_int iteration));
      ("utility", Jsonl.Num utility);
      ("movement", Jsonl.Num movement);
      ("guards", Jsonl.Num (float_of_int guards));
    ]
  | Allocation_solved { task; utility } ->
    [ ("task", Jsonl.Num (float_of_int task)); ("utility", Jsonl.Num utility) ]
  | Price_updated { resource; mu; step; share_sum; capacity; congested } ->
    [
      ("resource", Jsonl.Num (float_of_int resource));
      ("mu", Jsonl.Num mu);
      ("step", Jsonl.Num step);
      ("share_sum", Jsonl.Num share_sum);
      ("capacity", Jsonl.Num capacity);
      ("congested", Jsonl.Bool congested);
    ]
  | Path_price_updated { path; lambda; step; latency; critical_time } ->
    [
      ("path", Jsonl.Num (float_of_int path));
      ("lambda", Jsonl.Num lambda);
      ("step", Jsonl.Num step);
      ("latency", Jsonl.Num latency);
      ("critical_time", Jsonl.Num critical_time);
    ]
  | Guard_fired { site } -> [ ("site", Jsonl.Str site) ]
  | Correction_applied { subtask; offset } ->
    [ ("subtask", Jsonl.Str subtask); ("offset", Jsonl.Num offset) ]
  | Watchdog_trip { reason } -> [ ("reason", Jsonl.Str reason) ]
  | Safe_mode_entered { reason; fallback } ->
    [ ("reason", Jsonl.Str reason); ("fallback", Jsonl.Str fallback) ]
  | Safe_mode_exited -> []
  | Checkpoint_saved { actor } -> [ ("actor", Jsonl.Str actor) ]
  | Checkpoint_rejected { actor } -> [ ("actor", Jsonl.Str actor) ]
  | Checkpoint_restored { actor; warm } ->
    [ ("actor", Jsonl.Str actor); ("warm", Jsonl.Bool warm) ]
  | Transport_send { src; dst } -> [ ("src", Jsonl.Str src); ("dst", Jsonl.Str dst) ]
  | Transport_dropped { src; dst; reason } ->
    [ ("src", Jsonl.Str src); ("dst", Jsonl.Str dst); ("reason", Jsonl.Str reason) ]
  | Transport_delivered { src; dst; delay } ->
    [ ("src", Jsonl.Str src); ("dst", Jsonl.Str dst); ("delay", Jsonl.Num delay) ]
  | Health_transition { endpoint; alive } ->
    [ ("endpoint", Jsonl.Str endpoint); ("alive", Jsonl.Bool alive) ]
  | Span { span; parent; trace; kind; actor } ->
    [
      ("span", Jsonl.Num (float_of_int span));
      ("parent", Jsonl.Num (float_of_int parent));
      ("trace", Jsonl.Num (float_of_int trace));
      ("kind", Jsonl.Str kind);
      ("actor", Jsonl.Str actor);
    ]
  | Note { name; value } -> [ ("name", Jsonl.Str name); ("value", Jsonl.Num value) ]
  | Alert_raised { alert; severity; value } ->
    [ ("alert", Jsonl.Str alert); ("severity", Jsonl.Str severity); ("value", Jsonl.Num value) ]
  | Alert_cleared { alert; value } ->
    [ ("alert", Jsonl.Str alert); ("value", Jsonl.Num value) ]

let record_to_json r =
  Jsonl.Obj
    (("seq", Jsonl.Num (float_of_int r.seq))
    :: ("at", Jsonl.Num r.at)
    :: ("type", Jsonl.Str (event_name r.event))
    :: event_fields r.event)

let record_to_string r = Jsonl.to_string (record_to_json r)

let write_jsonl t oc =
  List.iter
    (fun r ->
      output_string oc (record_to_string r);
      output_char oc '\n')
    (records t)

let memory_sink () =
  let acc = ref [] in
  ((fun r -> acc := r :: !acc), fun () -> List.rev !acc)

let merge streams =
  (* (at, stream index, seq): the same total order the deterministic-merge
     engine imposes on cross-shard deliveries. List.stable_sort on the
     tagged concatenation keeps equal keys (impossible by construction:
     (stream, seq) is unique) in input order anyway. A lone stream that
     is already in (at, seq) order, as a single-engine run's is, is its
     own merge and skips the sort's copies. *)
  let rec ordered = function
    | (a : record) :: (b :: _ as rest) ->
      (match Float.compare a.at b.at with 0 -> a.seq < b.seq | c -> c < 0) && ordered rest
    | _ -> true
  in
  match streams with
  | [ rs ] when ordered rs -> rs
  | _ ->
    let tagged =
      List.concat (List.mapi (fun shard rs -> List.map (fun r -> (shard, r)) rs) streams)
    in
    let cmp (sa, (ra : record)) (sb, (rb : record)) =
      match Float.compare ra.at rb.at with
      | 0 -> ( match Int.compare sa sb with 0 -> Int.compare ra.seq rb.seq | c -> c)
      | c -> c
    in
    List.map snd (List.stable_sort cmp tagged)

(* --- decoding (inverse of record_to_json) ----------------------------- *)

exception Decode of string

let decode_event ty json =
  let get kind conv k =
    match Option.bind (Jsonl.member k json) conv with
    | Some v -> v
    | None -> raise (Decode (Printf.sprintf "%s: missing or non-%s field %S" ty kind k))
  in
  let num = get "number" Jsonl.num in
  let str = get "string" Jsonl.str in
  let flag = get "boolean" Jsonl.bool in
  let int k = int_of_float (num k) in
  match ty with
  | "iteration" ->
    Iteration
      {
        iteration = int "iteration";
        utility = num "utility";
        movement = num "movement";
        guards = int "guards";
      }
  | "allocation_solved" -> Allocation_solved { task = int "task"; utility = num "utility" }
  | "price_updated" ->
    Price_updated
      {
        resource = int "resource";
        mu = num "mu";
        step = num "step";
        share_sum = num "share_sum";
        capacity = num "capacity";
        congested = flag "congested";
      }
  | "path_price_updated" ->
    Path_price_updated
      {
        path = int "path";
        lambda = num "lambda";
        step = num "step";
        latency = num "latency";
        critical_time = num "critical_time";
      }
  | "guard_fired" -> Guard_fired { site = str "site" }
  | "correction_applied" -> Correction_applied { subtask = str "subtask"; offset = num "offset" }
  | "watchdog_trip" -> Watchdog_trip { reason = str "reason" }
  | "safe_mode_entered" -> Safe_mode_entered { reason = str "reason"; fallback = str "fallback" }
  | "safe_mode_exited" -> Safe_mode_exited
  | "checkpoint_saved" -> Checkpoint_saved { actor = str "actor" }
  | "checkpoint_rejected" -> Checkpoint_rejected { actor = str "actor" }
  | "checkpoint_restored" -> Checkpoint_restored { actor = str "actor"; warm = flag "warm" }
  | "transport_send" -> Transport_send { src = str "src"; dst = str "dst" }
  | "transport_dropped" ->
    Transport_dropped { src = str "src"; dst = str "dst"; reason = str "reason" }
  | "transport_delivered" ->
    Transport_delivered { src = str "src"; dst = str "dst"; delay = num "delay" }
  | "health_transition" -> Health_transition { endpoint = str "endpoint"; alive = flag "alive" }
  | "span" ->
    Span
      {
        span = int "span";
        parent = int "parent";
        trace = int "trace";
        kind = str "kind";
        actor = str "actor";
      }
  | "note" -> Note { name = str "name"; value = num "value" }
  | "alert_raised" ->
    Alert_raised { alert = str "alert"; severity = str "severity"; value = num "value" }
  | "alert_cleared" -> Alert_cleared { alert = str "alert"; value = num "value" }
  | other -> raise (Decode (Printf.sprintf "unknown event type %S" other))

(* Inverse of [record_to_json]: [Error] names the missing or ill-typed
   field; every constructor round-trips, bare [nan]/[inf] included. *)
let record_of_json json =
  match
    let get kind conv k =
      match Option.bind (Jsonl.member k json) conv with
      | Some v -> v
      | None -> raise (Decode (Printf.sprintf "missing or non-%s field %S" kind k))
    in
    let ty = get "string" Jsonl.str "type" in
    {
      seq = int_of_float (get "number" Jsonl.num "seq");
      at = get "number" Jsonl.num "at";
      event = decode_event ty json;
    }
  with
  | r -> Ok r
  | exception Decode msg -> Error msg

let record_of_string line =
  match Jsonl.parse line with
  | Error e -> Error e
  | Ok json -> record_of_json json
