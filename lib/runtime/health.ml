module Transport = Lla_transport.Transport
module Engine = Lla_sim.Engine

(* ms between heartbeats per watched endpoint, of silence before an
   endpoint is suspected, and between detector sweeps *)
let heartbeat_period = 50.

let timeout = 250.

let check_period = 25.

type status = Alive | Suspect

type watch = {
  endpoint : Transport.endpoint;
  mutable last_seen : float;
  mutable status : status;
  mutable hb_tick : Engine.event_id option;
}

type t = {
  obs : Lla_obs.t option;
  transport : Transport.t;
  engine : Engine.t;
  detector : Transport.endpoint;
  mutable watches : watch list;  (* reverse watch order *)
  mutable callbacks : (Transport.endpoint -> status -> now:float -> unit) list;  (* reverse order *)
  mutable sweep_tick : Engine.event_id option;
  mutable started : bool;
  mutable stopped : bool;
  mutable heartbeats : int;
  mutable suspicions : int;
  mutable recoveries : int;
}

let create ?obs transport =
  {
    obs;
    transport;
    engine = Transport.engine transport;
    detector = Transport.endpoint transport ~name:"health";
    watches = [];
    callbacks = [];
    sweep_tick = None;
    started = false;
    stopped = false;
    heartbeats = 0;
    suspicions = 0;
    recoveries = 0;
  }

let notify t w ~now =
  Lla_obs.emit_opt t.obs ~at:now
    (Lla_obs.Trace.Health_transition
       { endpoint = Transport.endpoint_name w.endpoint; alive = w.status = Alive });
  List.iter (fun f -> f w.endpoint w.status ~now) (List.rev t.callbacks)

let on_transition t f = t.callbacks <- f :: t.callbacks

(* Heartbeat arrival: refresh the deadline; a beat from a suspect proves it
   is back (either restarted or the partition healed). *)
let beat t w =
  let now = Engine.now t.engine in
  t.heartbeats <- t.heartbeats + 1;
  w.last_seen <- now;
  if w.status = Suspect then begin
    w.status <- Alive;
    t.recoveries <- t.recoveries + 1;
    notify t w ~now
  end

(* The heartbeat loop never stops while the detector runs: a down endpoint's
   sends are simply lost by the transport, and the loop resumes delivering
   the moment the endpoint restarts — no restart hook needed. Heartbeats are
   keyed so a reordered stale beat cannot mask a newer one's absence. *)
let rec heartbeat_loop t w =
  w.hb_tick <-
    Some
      (Engine.schedule_after t.engine ~delay:heartbeat_period (fun _ ->
           if not t.stopped then begin
             Transport.send ~key:0 t.transport ~src:w.endpoint ~dst:t.detector (fun () ->
                 beat t w);
             heartbeat_loop t w
           end))

let watch t endpoint =
  if not (List.exists (fun w -> w.endpoint == endpoint) t.watches) then begin
    let w =
      { endpoint; last_seen = Engine.now t.engine; status = Alive; hb_tick = None }
    in
    t.watches <- w :: t.watches;
    if t.started && not t.stopped then heartbeat_loop t w
  end

let sweep t =
  let now = Engine.now t.engine in
  List.iter
    (fun w ->
      if w.status = Alive && now -. w.last_seen > timeout then begin
        w.status <- Suspect;
        t.suspicions <- t.suspicions + 1;
        notify t w ~now
      end)
    t.watches

let rec sweep_loop t =
  t.sweep_tick <-
    Some
      (Engine.schedule_after t.engine ~delay:check_period (fun _ ->
           if not t.stopped then begin
             sweep t;
             sweep_loop t
           end))

let start t =
  if t.started then invalid_arg "Health.start: already started";
  t.started <- true;
  let now = Engine.now t.engine in
  List.iter
    (fun w ->
      w.last_seen <- now;
      heartbeat_loop t w)
    t.watches;
  sweep_loop t

let stop t =
  if t.started && not t.stopped then begin
    t.stopped <- true;
    List.iter
      (fun w ->
        Option.iter (Engine.cancel t.engine) w.hb_tick;
        w.hb_tick <- None)
      t.watches;
    Option.iter (Engine.cancel t.engine) t.sweep_tick;
    t.sweep_tick <- None
  end

let suspects t =
  List.rev t.watches
  |> List.filter_map (fun w -> if w.status = Suspect then Some w.endpoint else None)

let heartbeats_received t = t.heartbeats

let suspicions t = t.suspicions

let recoveries t = t.recoveries
