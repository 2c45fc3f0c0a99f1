module Engine = Lla_sim.Engine
module Rng = Lla_stdx.Rng
module Window = Lla_stdx.Percentile.Window
module Metrics = Lla_obs.Metrics

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

(* An endpoint's channels out, ascending by destination id: [out.(k)]
   leads to the endpoint whose id is [out_dst.(k)], for [k < n_out]. A
   send finds its channel by binary search over this row: it reads only
   ints, hashes nothing, and costs memory in proportion to the channels
   that exist, not to the number of endpoints. *)
type endpoint = {
  eid : int;
  name : string;
  mutable up : bool;
  mutable crashes : int;
  mutable restart_hooks : (unit -> unit) list;  (* reversed registration order *)
  mutable out_dst : int array;
  mutable out : channel array;
  mutable n_out : int;
}

(* Per-channel counter block. With [config.channel_metrics]
   (the default) every channel gets its own, labelled [src]/[dst] (the
   [_id] labels keep channels distinct even when endpoint names collide);
   with it off, all channels of the transport share one aggregate block —
   a memory valve for 10^5-channel scale scenarios, where per-channel
   registry records would dominate the heap. *)
and chan_metrics = {
  c_sent : Metrics.counter;
  c_delivered : Metrics.counter;
  c_dropped : Metrics.counter;
  c_cut : Metrics.counter;
  c_lost_down : Metrics.counter;
  c_duplicated : Metrics.counter;
  c_retried : Metrics.counter;
  c_stale : Metrics.counter;
}

(* A directed (src, dst) link, created lazily on first send. Counters live
   in the metrics registry (shared with [obs] when supplied). For
   last-write-wins, [lww.(k - lww_base)] is the newest applied seq of
   message key [k] (-1: none yet). The window grows on demand to cover
   each new key; a channel's keys cluster (the subtask indices of one
   task on one resource, or one resource index), so it stays small. *)
and channel = {
  src : endpoint;
  dst : endpoint;
  mutable next_seq : int;
  mutable lww_base : int;
  mutable lww : int array;
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
  mutable channel_list : channel list;  (* reversed creation order *)
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
    channel_list = [];
    partitions = [];
    all_window = Window.create ~capacity:config.delay_window;
    faults = config.faults;
    extra_jitter = 0.;
    shared_cm = None;
  }

let engine t = t.engine

let set_faults t faults = t.faults <- faults

let active_faults t = t.faults

let set_extra_jitter t spread =
  if spread < 0. then invalid_arg "Transport.set_extra_jitter: negative spread";
  t.extra_jitter <- spread

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
  let e =
    {
      eid = t.n_endpoints;
      name;
      up = true;
      crashes = 0;
      restart_hooks = [];
      out_dst = [||];
      out = [||];
      n_out = 0;
    }
  in
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

(* The position of [dst] in [src]'s row, or [-(k + 1)] when it has no
   channel there and [k] is where one would go. *)
let out_slot src dst =
  let lo = ref 0 and hi = ref (src.n_out - 1) and found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) lsr 1 in
    let d = src.out_dst.(mid) in
    if d = dst.eid then found := mid else if d < dst.eid then lo := mid + 1 else hi := mid - 1
  done;
  if !found >= 0 then !found else -(!lo + 1)

let find_channel src dst =
  let k = out_slot src dst in
  if k >= 0 then Some src.out.(k) else None

let channel t src dst =
  let k = out_slot src dst in
  if k >= 0 then src.out.(k)
  else begin
    let ch =
      {
        src;
        dst;
        next_seq = 0;
        lww_base = 0;
        lww = [||];
        cm = channel_cm t src dst;
      }
    in
    let k = -(k + 1) and n = src.n_out in
    if n = Array.length src.out then begin
      let cap = Int.max 4 (2 * n) in
      let out_dst = Array.make cap 0 and out = Array.make cap ch in
      Array.blit src.out_dst 0 out_dst 0 n;
      Array.blit src.out 0 out 0 n;
      src.out_dst <- out_dst;
      src.out <- out
    end;
    Array.blit src.out_dst k src.out_dst (k + 1) (n - k);
    Array.blit src.out k src.out (k + 1) (n - k);
    src.out_dst.(k) <- dst.eid;
    src.out.(k) <- ch;
    src.n_out <- n + 1;
    t.channel_list <- ch :: t.channel_list;
    ch
  end

(* --- lifecycle ------------------------------------------------------- *)

let is_up _t e = e.up

(* A down endpoint neither sends nor receives. [restart] brings it back
   and runs its restart hooks in registration order; the transport
   replays nothing, actors rebuild from the next received messages. Both
   are idempotent. *)
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

(* Widen [ch]'s last-write-wins window to cover [key]: at least double
   it, towards the side [key] lies on. *)
let cover ch key =
  let len = Array.length ch.lww in
  if len = 0 then begin
    ch.lww <- Array.make 8 (-1);
    ch.lww_base <- key
  end
  else begin
    let lo = Int.min key ch.lww_base and hi = Int.max key (ch.lww_base + len - 1) in
    let len' = Int.max (2 * len) (hi - lo + 1) in
    let base' = if key < ch.lww_base then ch.lww_base + len - len' else ch.lww_base in
    let lww = Array.make len' (-1) in
    Array.blit ch.lww 0 lww (ch.lww_base - base') len;
    ch.lww <- lww;
    ch.lww_base <- base'
  end

(* Last-write-wins: is [seq] no newer than the newest applied seq of
   [key] on [ch]? If it is newer, it becomes the newest. *)
let stale ch key seq =
  let i = key - ch.lww_base in
  if i >= 0 && i < Array.length ch.lww then
    if ch.lww.(i) >= seq then true
    else begin
      ch.lww.(i) <- seq;
      false
    end
  else begin
    cover ch key;
    ch.lww.(key - ch.lww_base) <- seq;
    false
  end

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
      | Some k when t.config.policy.last_write_wins -> stale ch k m.seq
      | _ -> false
    in
    if stale then begin
      Metrics.incr ch.cm.c_stale;
      trace_drop t ch "stale"
    end
    else begin
      Metrics.incr ch.cm.c_delivered;
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
    copy m ~n t.config.delay;
    if hit t t.faults.duplicate then begin
      Metrics.incr ch.cm.c_duplicated;
      copy m ~n t.config.delay
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
    List.fold_left (fun acc ch -> add_counters acc (counters_of ch.cm)) zero_counters t.channel_list
  else
    (* All channels share one block; folding it per channel would
       multiply every count by the channel population. *)
    match t.shared_cm with Some cm -> counters_of cm | None -> zero_counters

let channel_counters _t ~src ~dst =
  match find_channel src dst with Some ch -> counters_of ch.cm | None -> zero_counters

let channels t =
  List.map (fun ch -> (ch.src, ch.dst, counters_of ch.cm)) t.channel_list
  |> List.sort (fun (a, b, _) (c, d, _) ->
         match Int.compare a.eid c.eid with 0 -> Int.compare b.eid d.eid | cmp -> cmp)

let delay_percentile t ~p = Window.percentile t.all_window ~p
