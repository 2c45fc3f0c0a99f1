type event = {
  time : float;
  seq : int;
  action : t -> unit;
  mutable live : bool;
}

(* The queue is a binary min-heap on [(time, seq)] kept in two parallel
   arrays: [times] holds the keys unboxed, so a comparison reads no
   event record, and [events] the records themselves. Slots
   [0 .. size-1] are in use; the rest hold [vacant], so a fired event's
   closure is not kept alive by the array. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable live_count : int;
  mutable fired : int;
  mutable times : float array;
  mutable events : event array;
  mutable size : int;
}

type event_id = event

let vacant = { time = 0.; seq = -1; action = ignore; live = false }

let initial_capacity = 64

let create ?(start_time = 0.) () =
  {
    clock = start_time;
    next_seq = 0;
    live_count = 0;
    fired = 0;
    times = Array.make initial_capacity 0.;
    events = Array.make initial_capacity vacant;
    size = 0;
  }

let now t = t.clock

let grow t =
  let cap = 2 * Array.length t.times in
  let times = Array.make cap 0. and events = Array.make cap vacant in
  Array.blit t.times 0 times 0 t.size;
  Array.blit t.events 0 events 0 t.size;
  t.times <- times;
  t.events <- events

(* Sift a hole up from the end and drop the new event where it stops.
   Parents move down into the hole, so each level costs one write. *)
let push t (event : event) =
  if t.size = Array.length t.times then grow t;
  let times = t.times and events = t.events in
  let time = event.time and seq = event.seq in
  let i = ref t.size in
  let climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) / 2 in
    let pt = times.(p) in
    if time < pt || (time = pt && seq < events.(p).seq) then begin
      times.(!i) <- pt;
      events.(!i) <- events.(p);
      i := p
    end
    else climbing := false
  done;
  times.(!i) <- time;
  events.(!i) <- event;
  t.size <- t.size + 1

(* Remove the root: take the last slot out and sift the hole at the root
   down until the last event fits. *)
let remove_root t =
  let n = t.size - 1 in
  let times = t.times and events = t.events in
  let last = events.(n) in
  let time = times.(n) and seq = last.seq in
  events.(n) <- vacant;
  t.size <- n;
  if n > 0 then begin
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= n then sinking := false
      else begin
        let r = l + 1 in
        let c =
          if
            r < n
            && (times.(r) < times.(l) || (times.(r) = times.(l) && events.(r).seq < events.(l).seq))
          then r
          else l
        in
        let ct = times.(c) in
        if ct < time || (ct = time && events.(c).seq < seq) then begin
          times.(!i) <- ct;
          events.(!i) <- events.(c);
          i := c
        end
        else sinking := false
      end
    done;
    times.(!i) <- time;
    events.(!i) <- last
  end

(* Cancelled events stay queued until they reach the root; every reader
   of the root drops them first. *)
let rec drop_dead t =
  if t.size > 0 && not t.events.(0).live then begin
    remove_root t;
    drop_dead t
  end

let schedule t ~at action =
  if not (at >= t.clock) then
    invalid_arg (Printf.sprintf "Engine.schedule: time %g is not at or after now (%g)" at t.clock);
  let event = { time = at; seq = t.next_seq; action; live = true } in
  t.next_seq <- t.next_seq + 1;
  t.live_count <- t.live_count + 1;
  push t event;
  event

let schedule_after t ~delay action =
  if delay < 0. then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.clock +. delay) action

let cancel t event =
  if event.live then begin
    event.live <- false;
    t.live_count <- t.live_count - 1
  end

let cancelled _ event = not event.live

(* Fire the root, which must be live. The clock takes the event's own
   boxed time, so firing allocates nothing. *)
let fire t =
  let event = t.events.(0) in
  remove_root t;
  event.live <- false;
  t.live_count <- t.live_count - 1;
  t.clock <- event.time;
  t.fired <- t.fired + 1;
  event.action t

let step t =
  drop_dead t;
  if t.size = 0 then false
  else begin
    fire t;
    true
  end

let run_until t horizon =
  if horizon < t.clock then invalid_arg "Engine.run_until: horizon is in the past";
  drop_dead t;
  while t.size > 0 && t.times.(0) <= horizon do
    fire t;
    drop_dead t
  done;
  t.clock <- horizon

let run t ?(max_events = max_int) () =
  let remaining = ref max_events in
  while !remaining > 0 && step t do
    decr remaining
  done

let pending t = t.live_count

let next_time t =
  drop_dead t;
  if t.size = 0 then None else Some t.times.(0)

let events_fired t = t.fired
