type kind =
  | Fluid of { work_conserving : bool }
  | Sfq of { quantum : float }
  | Sfs of { quantum : float }

let kind_name = function
  | Fluid { work_conserving = true } -> "fluid-gps"
  | Fluid { work_conserving = false } -> "fluid-capped"
  | Sfq _ -> "sfq"
  | Sfs _ -> "sfs"

type job = {
  mutable remaining : float;
  on_complete : float -> unit;
}

type cls = {
  id : int;
  mutable cls_share : float;
  queue : job Queue.t;
  mutable cls_served : float;
  mutable finish_tag : float;  (* SFQ *)
}

type t = {
  kind : kind;
  engine : Lla_sim.Engine.t;
  capacity : float;
  classes : (int, cls) Hashtbl.t;
  mutable busy : float;
  (* Fluid state. *)
  mutable last_update : float;
  mutable wakeup : Lla_sim.Engine.event_id option;
  (* Quantum state. *)
  mutable serving : bool;
  mutable virtual_time : float;  (* SFQ *)
}

let epsilon = 1e-9

let create kind engine ~capacity =
  if capacity <= 0. || capacity > 1. then
    invalid_arg "Scheduler.create: capacity outside (0, 1]";
  (match kind with
  | Sfq { quantum } | Sfs { quantum } ->
    if quantum <= 0. then invalid_arg "Scheduler.create: non-positive quantum"
  | Fluid _ -> ());
  {
    kind;
    engine;
    capacity;
    classes = Hashtbl.create 16;
    busy = 0.;
    last_update = Lla_sim.Engine.now engine;
    wakeup = None;
    serving = false;
    virtual_time = 0.;
  }

let get_class t class_id =
  match Hashtbl.find_opt t.classes class_id with
  | Some c -> c
  | None ->
    let c =
      { id = class_id; cls_share = 0.; queue = Queue.create (); cls_served = 0.; finish_tag = 0. }
    in
    Hashtbl.replace t.classes class_id c;
    c

let share t ~class_id =
  match Hashtbl.find_opt t.classes class_id with Some c -> c.cls_share | None -> 0.

let backlog t ~class_id =
  match Hashtbl.find_opt t.classes class_id with Some c -> Queue.length c.queue | None -> 0

let total_backlog t = Hashtbl.fold (fun _ c acc -> acc + Queue.length c.queue) t.classes 0

let served t ~class_id =
  match Hashtbl.find_opt t.classes class_id with Some c -> c.cls_served | None -> 0.

let busy_time t = t.busy

let backlogged t =
  Hashtbl.fold (fun _ c acc -> if Queue.is_empty c.queue then acc else c :: acc) t.classes []

(* ------------------------------------------------------------------ *)
(* Fluid GPS                                                           *)
(* ------------------------------------------------------------------ *)

(* Instantaneous rate of each backlogged class. Work-conserving GPS
   divides the full capacity in proportion to shares; the capped variant
   grants exactly the share, scaled down only if the total would exceed
   capacity (an oversubscribed allocation cannot conjure cycles). *)
let fluid_rates t ~work_conserving classes =
  let total = List.fold_left (fun acc c -> acc +. c.cls_share) 0. classes in
  if total <= 0. then List.map (fun c -> (c, 0.)) classes
  else if work_conserving then List.map (fun c -> (c, t.capacity *. c.cls_share /. total)) classes
  else begin
    let scale = Float.min 1. (t.capacity /. total) in
    List.map (fun c -> (c, c.cls_share *. scale)) classes
  end

let rec fluid_advance t ~work_conserving =
  let now = Lla_sim.Engine.now t.engine in
  let dt = now -. t.last_update in
  let classes = backlogged t in
  let rates = fluid_rates t ~work_conserving classes in
  if dt > 0. then begin
    let aggregate = List.fold_left (fun acc (_, r) -> acc +. r) 0. rates in
    t.busy <- t.busy +. (aggregate /. t.capacity *. dt);
    List.iter
      (fun (c, rate) ->
        if rate > 0. then begin
          let amount = rate *. dt in
          c.cls_served <- c.cls_served +. amount;
          (Queue.peek c.queue).remaining <- (Queue.peek c.queue).remaining -. amount
        end)
      rates;
    t.last_update <- now
  end
  else t.last_update <- now;
  (* Fire completions, then recompute rates for the survivors. *)
  let completed =
    List.filter (fun (c, _) -> (Queue.peek c.queue).remaining <= epsilon) rates
  in
  if completed <> [] then begin
    (* Pop every completed head before running callbacks: a callback may
       reenter the scheduler (submit a successor job) and must observe
       consistent queues. *)
    let jobs = List.map (fun (c, _) -> Queue.pop c.queue) completed in
    List.iter (fun job -> job.on_complete now) jobs;
    fluid_advance t ~work_conserving
  end
  else fluid_reschedule t ~work_conserving

and fluid_reschedule t ~work_conserving =
  (match t.wakeup with
  | Some ev ->
    Lla_sim.Engine.cancel t.engine ev;
    t.wakeup <- None
  | None -> ());
  let rates = fluid_rates t ~work_conserving (backlogged t) in
  let next =
    List.fold_left
      (fun acc (c, rate) ->
        if rate > 0. then Float.min acc ((Queue.peek c.queue).remaining /. rate) else acc)
      infinity rates
  in
  if next < infinity then begin
    let delay = Float.max 0. next in
    t.wakeup <-
      Some
        (Lla_sim.Engine.schedule_after t.engine ~delay (fun _ ->
             t.wakeup <- None;
             fluid_advance t ~work_conserving))
  end

(* ------------------------------------------------------------------ *)
(* Quantum-based disciplines (SFQ / SFS)                               *)
(* ------------------------------------------------------------------ *)

let pick_sfq t classes =
  (* Min start tag S = max(virtual time, class finish tag). *)
  let eligible = List.filter (fun c -> c.cls_share > 0.) classes in
  match eligible with
  | [] -> None
  | _ :: _ ->
    let tagged = List.map (fun c -> (Float.max t.virtual_time c.finish_tag, c)) eligible in
    let best =
      List.fold_left
        (fun (bs, bc) (s, c) -> if s < bs || (s = bs && c.id < bc.id) then (s, c) else (bs, bc))
        (List.hd tagged) (List.tl tagged)
    in
    Some best

let pick_sfs classes =
  (* Surplus = service received minus entitlement at the backlogged set's
     common virtual time v = min s_j / phi_j, with phi the normalized
     shares. The least-surplus class is the most under-served. *)
  let eligible = List.filter (fun c -> c.cls_share > 0.) classes in
  match eligible with
  | [] -> None
  | _ :: _ ->
    let total = List.fold_left (fun acc c -> acc +. c.cls_share) 0. eligible in
    let phi c = c.cls_share /. total in
    let v =
      List.fold_left (fun acc c -> Float.min acc (c.cls_served /. phi c)) infinity eligible
    in
    let surplus c = c.cls_served -. (v *. phi c) in
    let best =
      List.fold_left
        (fun bc c ->
          let s = surplus c and bs = surplus bc in
          if s < bs || (s = bs && c.id < bc.id) then c else bc)
        (List.hd eligible) (List.tl eligible)
    in
    Some best

let rec quantum_dispatch t ~quantum ~discipline =
  if not t.serving then begin
    let classes = backlogged t in
    let choice =
      match discipline with
      | `Sfq -> (match pick_sfq t classes with Some (tag, c) -> Some (Some tag, c) | None -> None)
      | `Sfs -> ( match pick_sfs classes with Some c -> Some (None, c) | None -> None)
    in
    match choice with
    | None -> ()
    | Some (start_tag, c) ->
      t.serving <- true;
      let job = Queue.peek c.queue in
      let amount = Float.min quantum job.remaining in
      let duration = amount /. t.capacity in
      (match start_tag with
      | Some s ->
        t.virtual_time <- s;
        c.finish_tag <- s +. (amount /. c.cls_share)
      | None -> ());
      ignore
        (Lla_sim.Engine.schedule_after t.engine ~delay:duration (fun _ ->
             t.serving <- false;
             t.busy <- t.busy +. duration;
             c.cls_served <- c.cls_served +. amount;
             job.remaining <- job.remaining -. amount;
             if job.remaining <= epsilon then begin
               let job = Queue.pop c.queue in
               job.on_complete (Lla_sim.Engine.now t.engine)
             end;
             quantum_dispatch t ~quantum ~discipline))
  end

(* ------------------------------------------------------------------ *)

let poke t =
  match t.kind with
  | Fluid { work_conserving } -> fluid_advance t ~work_conserving
  | Sfq { quantum } -> quantum_dispatch t ~quantum ~discipline:`Sfq
  | Sfs { quantum } -> quantum_dispatch t ~quantum ~discipline:`Sfs

let set_share t ~class_id ~share =
  if share < 0. then invalid_arg "Scheduler.set_share: negative share";
  (* Settle service under the old share before switching (fluid). *)
  (match t.kind with Fluid { work_conserving } -> fluid_advance t ~work_conserving | _ -> ());
  (get_class t class_id).cls_share <- share;
  poke t

let submit t ~class_id ~work ~on_complete =
  if work <= 0. then invalid_arg "Scheduler.submit: non-positive work";
  (match t.kind with Fluid { work_conserving } -> fluid_advance t ~work_conserving | _ -> ());
  let c = get_class t class_id in
  Queue.push { remaining = work; on_complete } c.queue;
  poke t
