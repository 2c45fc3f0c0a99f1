module Engine = Lla_sim.Engine
module Rng = Lla_stdx.Rng
module Window = Lla_stdx.Percentile.Window
module Metrics = Lla_obs.Metrics
module Int_tbl = Lla_stdx.Int_tbl

type faults = {
  drop : float;
  duplicate : float;
  reorder : float;
  reorder_spread : float;
}

let no_faults = { drop = 0.; duplicate = 0.; reorder = 0.; reorder_spread = 0. }

type retry = { timeout : float; backoff : float; max_attempts : int; jitter : float }

type policy = {
  retry : retry option;
  last_write_wins : bool;
}

let fire_and_forget = { retry = None; last_write_wins = true }

type config = {
  delay : Delay_model.t;
  faults : faults;
  policy : policy;
  seed : int;
  delay_window : int;
  channel_metrics : bool;
}

let default_config =
  {
    delay = Delay_model.Constant 1.0;
    faults = no_faults;
    policy = fire_and_forget;
    seed = 0;
    delay_window = 1024;
    channel_metrics = true;
  }

type endpoint = {
  eid : int;
  name : string;
  mutable up : bool;
  mutable crashes : int;
  mutable restart_hooks : (unit -> unit) list;  (* reversed registration order *)
}

type counters = {
  sent : int;
  delivered : int;
  dropped : int;
  cut : int;
  lost_down : int;
  duplicated : int;
  retried : int;
  stale : int;
}

let zero_counters =
  { sent = 0; delivered = 0; dropped = 0; cut = 0; lost_down = 0; duplicated = 0; retried = 0; stale = 0 }

(* Per-channel counter block + delay window. With [config.channel_metrics]
   (the default) every channel gets its own, labelled [src]/[dst] (the
   [_id] labels keep channels distinct even when endpoint names collide);
   with it off, all channels of the transport share one aggregate block —
   a memory valve for 10^5-channel scale scenarios, where per-channel
   registry records would dominate the heap. *)
type chan_metrics = {
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_dropped : Metrics.counter;
  c_cut : Metrics.counter;
  c_lost_down : Metrics.counter;
  c_duplicated : Metrics.counter;
  c_retried : Metrics.counter;
  c_stale : Metrics.counter;
  window : Window.t;
}

(* A directed (src, dst) link, created lazily on first send. Counters live
   in the metrics registry (shared with [obs] when supplied). *)
type channel = {
  src : endpoint;
  dst : endpoint;
  mutable link_delay : Delay_model.t option;  (* overrides the transport default *)
  mutable next_seq : int;
  applied : int Int_tbl.t;  (* message key -> newest applied seq *)
  cm : chan_metrics;
}

type partition_spec = {
  p_start : float;
  p_heal : float;
  side_a : int list;  (* endpoint ids *)
  side_b : int list;
}

type t = {
  engine : Engine.t;
  config : config;
  rng : Rng.t;
  obs : Lla_obs.t option;
  obs_io : Lla_obs.t option;  (* = obs when it opts into happy-path message records *)
  registry : Metrics.t;
  delay_h : Metrics.histogram;
  mutable n_endpoints : int;
  mutable endpoint_list : endpoint list;  (* reversed registration order *)
  channels : channel Int_tbl.t;  (* by [channel_key] *)
  mutable partitions : partition_spec list;
  all_window : Window.t;
  (* Live fault state, initialized from [config] and mutable so chaos
     schedules can open and close fault windows mid-run. The zero values
     draw nothing from the RNG, preserving the bit-for-bit zero-fault
     guarantee for transports that never touch them. *)
  mutable faults : faults;
  mutable extra_jitter : float;
  mutable shared_cm : chan_metrics option;  (* lazy, only when channel_metrics = false *)
}

(* One message, built once per [send]. Its retransmissions, copies and
   deliveries are engine events over this record; each event carries
   only the attempt number (and a copy its delay). *)
type message = {
  tr : t;
  ch : channel;
  key : int option;
  seq : int;  (* per-channel send order, for last-write-wins *)
  span : Lla_obs.Span.t option;
  payload : Lla_obs.Span.t option -> unit;
}

let create ?obs ?(config = default_config) engine =
  (match config.policy.retry with
  | Some r when not (Float.is_finite r.jitter && r.jitter >= 0. && r.jitter < 1.) ->
    invalid_arg "Transport.create: retry jitter outside [0, 1)"
  | _ -> ());
  let registry =
    match obs with Some o -> o.Lla_obs.metrics | None -> Metrics.create ()
  in
  {
    engine;
    config;
    rng = Rng.create ~seed:config.seed;
    obs;
    obs_io = (match obs with Some o when o.Lla_obs.trace_io -> obs | _ -> None);
    registry;
    delay_h =
      Metrics.histogram registry "lla_transport_delay_ms"
        ~help:"End-to-end delay of delivered messages (all channels).";
    n_endpoints = 0;
    endpoint_list = [];
    channels = Int_tbl.create 64;
    partitions = [];
    all_window = Window.create ~capacity:config.delay_window;
    faults = config.faults;
    extra_jitter = 0.;
    shared_cm = None;
  }

let config t = t.config

let engine t = t.engine

let metrics t = t.registry

let set_faults t faults = t.faults <- faults

let active_faults t = t.faults

let set_extra_jitter t spread =
  if spread < 0. then invalid_arg "Transport.set_extra_jitter: negative spread";
  t.extra_jitter <- spread

let extra_jitter t = t.extra_jitter

(* Trace emission is a single match on the cold [None] path, before the
   record is built; it never schedules events or draws randomness.
   Losses are always traced; the per-message happy path only under
   [Lla_obs.create ~trace_io:true]. *)
let trace_drop t ch reason =
  match t.obs with
  | None -> ()
  | Some o ->
    Lla_obs.emit o ~at:(Engine.now t.engine)
      (Lla_obs.Trace.Transport_dropped { src = ch.src.name; dst = ch.dst.name; reason })

let trace_send t ch =
  match t.obs_io with
  | None -> ()
  | Some o ->
    Lla_obs.emit o ~at:(Engine.now t.engine)
      (Lla_obs.Trace.Transport_send { src = ch.src.name; dst = ch.dst.name })

let trace_delivered t ch delay =
  match t.obs_io with
  | None -> ()
  | Some o ->
    Lla_obs.emit o ~at:(Engine.now t.engine)
      (Lla_obs.Trace.Transport_delivered { src = ch.src.name; dst = ch.dst.name; delay })

let endpoint t ~name =
  let e = { eid = t.n_endpoints; name; up = true; crashes = 0; restart_hooks = [] } in
  t.n_endpoints <- t.n_endpoints + 1;
  t.endpoint_list <- e :: t.endpoint_list;
  e

let endpoint_name e = e.name

let endpoints t = List.rev t.endpoint_list

let make_cm t ~labels =
  let c name help = Metrics.counter t.registry name ~help ~labels in
  {
    c_sent = c "lla_transport_sent_total" "send calls on this channel.";
    c_delivered = c "lla_transport_delivered_total" "Payloads applied at the destination.";
    c_dropped = c "lla_transport_dropped_total" "Attempts lost to the drop probability.";
    c_cut = c "lla_transport_cut_total" "Attempts lost to a partition.";
    c_lost_down = c "lla_transport_lost_down_total" "Attempts lost to a down endpoint.";
    c_duplicated = c "lla_transport_duplicated_total" "Extra copies injected.";
    c_retried = c "lla_transport_retried_total" "Retransmission attempts scheduled.";
    c_stale = c "lla_transport_stale_total" "Deliveries discarded by last-write-wins.";
    window = Window.create ~capacity:t.config.delay_window;
  }

let channel_cm t src dst =
  if t.config.channel_metrics then
    make_cm t
      ~labels:
        [
          ("src", src.name);
          ("src_id", string_of_int src.eid);
          ("dst", dst.name);
          ("dst_id", string_of_int dst.eid);
        ]
  else
    match t.shared_cm with
    | Some cm -> cm
    | None ->
      let cm = make_cm t ~labels:[ ("src", "*"); ("dst", "*") ] in
      t.shared_cm <- Some cm;
      cm

(* Endpoint ids count up from 0 and stay far below 2^31, so the pair
   packs into one int. *)
let channel_key src dst = (src.eid lsl 31) lor dst.eid

let channel t src dst =
  let key = channel_key src dst in
  match Int_tbl.find t.channels key with
  | ch -> ch
  | exception Not_found ->
    let ch =
      {
        src;
        dst;
        link_delay = None;
        next_seq = 0;
        applied = Int_tbl.create 8;
        cm = channel_cm t src dst;
      }
    in
    Int_tbl.add t.channels key ch;
    ch

let set_link_delay t ~src ~dst model = (channel t src dst).link_delay <- Some model

(* --- lifecycle ------------------------------------------------------- *)

let is_up _t e = e.up

let crash _t e =
  if e.up then begin
    e.up <- false;
    e.crashes <- e.crashes + 1
  end

let restart _t e =
  if not e.up then begin
    e.up <- true;
    List.iter (fun hook -> hook ()) (List.rev e.restart_hooks)
  end

let on_restart _t e hook = e.restart_hooks <- hook :: e.restart_hooks

let schedule_outage t e ~at ~duration =
  if duration < 0. then invalid_arg "Transport.schedule_outage: negative duration";
  ignore (Engine.schedule t.engine ~at (fun _ -> crash t e));
  ignore (Engine.schedule t.engine ~at:(at +. duration) (fun _ -> restart t e))

let outages _t e = e.crashes

(* --- partitions ------------------------------------------------------ *)

let partition t ~at ~duration ~group_a ~group_b =
  if duration < 0. then invalid_arg "Transport.partition: negative duration";
  let spec =
    {
      p_start = at;
      p_heal = at +. duration;
      side_a = List.map (fun e -> e.eid) group_a;
      side_b = List.map (fun e -> e.eid) group_b;
    }
  in
  t.partitions <- spec :: t.partitions

let partitioned t ~src ~dst =
  let now = Engine.now t.engine in
  List.exists
    (fun p ->
      now >= p.p_start && now < p.p_heal
      && ((List.mem src.eid p.side_a && List.mem dst.eid p.side_b)
         || (List.mem src.eid p.side_b && List.mem dst.eid p.side_a)))
    t.partitions

(* --- sending --------------------------------------------------------- *)

(* Draw a Bernoulli trial only when the probability can succeed, so the
   zero-fault configuration consumes no randomness. *)
let hit t p = p > 0. && (p >= 1. || Rng.float t.rng < p)

(* On an applied delivery carrying a span context, record one "msg" span
   under the sender's span and hand the payload a forwarded context
   (fresh id, origin preserved) so the receiver can parent its own work
   span on the delivery. Allocation and emission happen only when the
   handle traces spans, from the deterministic per-handle counter — no
   randomness, no scheduling. *)
let delivery_span t ch span =
  match (span, t.obs) with
  | Some ctx, Some o when o.Lla_obs.spans ->
    let id = Lla_obs.alloc_span o in
    Lla_obs.emit o ~at:(Engine.now t.engine)
      (Lla_obs.Trace.Span
         {
           span = id;
           parent = ctx.Lla_obs.Span.span_id;
           trace = ctx.Lla_obs.Span.trace_id;
           kind = "msg";
           actor = ch.dst.name;
         });
    Some (Lla_obs.Span.forward ctx ~id)
  | _ -> None

(* Attempt [n] (from 0) of [m] was lost: count and trace it, and
   schedule attempt [n + 1] when the retry policy allows and the sender
   is up. *)
let rec lost m ~n reason =
  let t = m.tr and ch = m.ch in
  (match reason with
  | `Drop ->
    Metrics.incr ch.cm.c_dropped;
    trace_drop t ch "drop"
  | `Cut ->
    Metrics.incr ch.cm.c_cut;
    trace_drop t ch "cut"
  | `Down ->
    Metrics.incr ch.cm.c_lost_down;
    trace_drop t ch "down");
  match t.config.policy.retry with
  | Some r when n + 1 < r.max_attempts && ch.src.up ->
    Metrics.incr ch.cm.c_retried;
    let wait = r.timeout *. (r.backoff ** float_of_int n) in
    (* jitter de-phases synchronized retransmit bursts; at the default
       0 no randomness is drawn and retries stay bit-for-bit *)
    let wait =
      if r.jitter > 0. then wait *. (1. +. Rng.uniform t.rng ~lo:(-.r.jitter) ~hi:r.jitter)
      else wait
    in
    ignore (Engine.schedule_after t.engine ~delay:wait (fun _ -> attempt m ~n:(n + 1)))
  | _ -> ()

and deliver m ~n ~delay =
  let t = m.tr and ch = m.ch in
  if not ch.dst.up then lost m ~n `Down
  else begin
    let stale =
      match m.key with
      | Some k when t.config.policy.last_write_wins -> (
        match Int_tbl.find ch.applied k with
        | newest when newest >= m.seq -> true
        | _ | (exception Not_found) ->
          Int_tbl.replace ch.applied k m.seq;
          false)
      | _ -> false
    in
    if stale then begin
      Metrics.incr ch.cm.c_stale;
      trace_drop t ch "stale"
    end
    else begin
      Metrics.incr ch.cm.c_delivered;
      Window.add ch.cm.window delay;
      Window.add t.all_window delay;
      Metrics.observe t.delay_h delay;
      trace_delivered t ch delay;
      m.payload (delivery_span t ch m.span)
    end
  end

(* One copy of attempt [n]: the RNG draws go delay, then reorder
   hold-back, then extra jitter. *)
and copy m ~n model =
  let t = m.tr in
  let delay = Delay_model.sample model t.rng in
  let delay =
    if hit t t.faults.reorder && t.faults.reorder_spread > 0. then
      delay +. Rng.uniform t.rng ~lo:0. ~hi:t.faults.reorder_spread
    else delay
  in
  let delay =
    if t.extra_jitter > 0. then delay +. Rng.uniform t.rng ~lo:0. ~hi:t.extra_jitter else delay
  in
  ignore (Engine.schedule_after t.engine ~delay (fun _ -> deliver m ~n ~delay))

(* The drop draw comes first, then the first copy's draws, then the
   duplicate draw and, on a hit, the second copy's. *)
and attempt m ~n =
  let t = m.tr and ch = m.ch in
  if not ch.src.up then begin
    Metrics.incr ch.cm.c_lost_down;
    trace_drop t ch "down"
  end
  else if partitioned t ~src:ch.src ~dst:ch.dst then lost m ~n `Cut
  else if hit t t.faults.drop then lost m ~n `Drop
  else begin
    let model = match ch.link_delay with Some model -> model | None -> t.config.delay in
    copy m ~n model;
    if hit t t.faults.duplicate then begin
      Metrics.incr ch.cm.c_duplicated;
      copy m ~n model
    end
  end

let send_traced ?key ?span t ~src ~dst payload =
  let ch = channel t src dst in
  Metrics.incr ch.cm.c_sent;
  trace_send t ch;
  let seq = ch.next_seq in
  ch.next_seq <- seq + 1;
  attempt { tr = t; ch; key; seq; span; payload } ~n:0

let send ?key t ~src ~dst payload = send_traced ?key t ~src ~dst (fun _ -> payload ())

(* --- inspection ------------------------------------------------------ *)

let counters_of (cm : chan_metrics) =
  {
    sent = Metrics.value cm.c_sent;
    delivered = Metrics.value cm.c_delivered;
    dropped = Metrics.value cm.c_dropped;
    cut = Metrics.value cm.c_cut;
    lost_down = Metrics.value cm.c_lost_down;
    duplicated = Metrics.value cm.c_duplicated;
    retried = Metrics.value cm.c_retried;
    stale = Metrics.value cm.c_stale;
  }

let add_counters a b =
  {
    sent = a.sent + b.sent;
    delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped;
    cut = a.cut + b.cut;
    lost_down = a.lost_down + b.lost_down;
    duplicated = a.duplicated + b.duplicated;
    retried = a.retried + b.retried;
    stale = a.stale + b.stale;
  }

let totals t =
  if t.config.channel_metrics then
    Int_tbl.fold (fun _ ch acc -> add_counters acc (counters_of ch.cm)) t.channels zero_counters
  else
    (* All channels share one block; folding it per channel would
       multiply every count by the channel population. *)
    match t.shared_cm with Some cm -> counters_of cm | None -> zero_counters

let channel_counters t ~src ~dst =
  match Int_tbl.find_opt t.channels (channel_key src dst) with
  | Some ch -> counters_of ch.cm
  | None -> zero_counters

let channels t =
  Int_tbl.fold (fun _ ch acc -> (ch.src, ch.dst, counters_of ch.cm) :: acc) t.channels []
  |> List.sort (fun (a, b, _) (c, d, _) ->
         match Int.compare a.eid c.eid with 0 -> Int.compare b.eid d.eid | cmp -> cmp)

let delay_percentile t ~p = Window.percentile t.all_window ~p

let channel_delay_percentile t ~src ~dst ~p =
  match Int_tbl.find_opt t.channels (channel_key src dst) with
  | Some ch -> Window.percentile ch.cm.window ~p
  | None -> None

let pp_counters fmt c =
  Format.fprintf fmt
    "sent %d, delivered %d, dropped %d, cut %d, lost-down %d, duplicated %d, retried %d, stale %d"
    c.sent c.delivered c.dropped c.cut c.lost_down c.duplicated c.retried c.stale
