(* An event's record lives in the slab from [schedule] to [fire]. The
   caller's [event_id] is the record itself, so cancelling a fired
   event finds [live = false] whatever event holds its slot by then. *)
type event = {
  time : float;
  action : t -> unit;
  mutable live : bool;
}

(* The queue is a 4-ary min-heap on [(time, seq)] over three parallel
   arrays of unboxed keys: heap position [i] holds [times.(i)],
   [seqs.(i)] and [slots.(i)], the slab index of its event record. A
   sift moves only ints and floats, so every store is plain (no write
   barrier), and a tie-break reads [seqs], not a record. [slots] is a
   permutation of [0 .. capacity-1]: positions [size ..] hold the free
   slab slots, so [schedule] takes [slots.(size)] and a pop hands the
   root's slot back there. Slab slots not in use hold [vacant], so a fired
   event's closure is not kept alive. *)
and t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable live_count : int;
  mutable fired : int;
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable slab : event array;
  mutable size : int;
}

type event_id = event

let vacant = { time = 0.; action = ignore; live = false }

let initial_capacity = 64

let create () =
  {
    clock = 0.;
    next_seq = 0;
    live_count = 0;
    fired = 0;
    times = Array.make initial_capacity 0.;
    seqs = Array.make initial_capacity 0;
    slots = Array.init initial_capacity Fun.id;
    slab = Array.make initial_capacity vacant;
    size = 0;
  }

let now t = t.clock

(* Only called when full, so every old slot is in the heap and the new
   ones are all free. The int arrays are copied by typed loops:
   [Array.blit] into an array in the major heap runs the write barrier
   on every element, ints included. *)
let grow t =
  let cap = Array.length t.times in
  let times = Array.make (2 * cap) 0. and slab = Array.make (2 * cap) vacant in
  let seqs = Array.make (2 * cap) 0 and slots = Array.make (2 * cap) 0 in
  Array.blit t.times 0 times 0 cap;
  Array.blit t.slab 0 slab 0 cap;
  for i = 0 to cap - 1 do
    seqs.(i) <- t.seqs.(i);
    slots.(i) <- t.slots.(i)
  done;
  for i = cap to (2 * cap) - 1 do
    slots.(i) <- i
  done;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.slab <- slab

(* The sifts index only heap positions up to [size], which [schedule]
   keeps below the arrays' length, so they skip the bounds checks. The
   primitives are externals, as in the scale kernel, so each float
   access compiles to an unboxed load or store. *)
external ug : 'a array -> int -> 'a = "%array_unsafe_get"

external us : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Move the key at heap position [src] to [dst]. *)
let[@inline] move times seqs slots ~src ~dst =
  us times dst (ug times src : float);
  us seqs dst (ug seqs src : int);
  us slots dst (ug slots src : int)

(* Sift the key at position [i] up: parents later than it move down
   into the hole, and it lands where it stops. *)
let sift_up times seqs slots i =
  let time = ug times i and seq = ug seqs i and slot = ug slots i in
  let i = ref i in
  let climbing = ref true in
  while !climbing && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = ug times p in
    if time < pt || (time = pt && seq < ug seqs p) then begin
      move times seqs slots ~src:p ~dst:!i;
      i := p
    end
    else climbing := false
  done;
  us times !i time;
  us seqs !i seq;
  us slots !i slot

let[@inline] before (times : float array) (seqs : int array) a b =
  ug times a < ug times b || (ug times a = ug times b && ug seqs a < ug seqs b)

(* Remove the root, bottom-up: walk the hole at the root down to a leaf
   along the earliest children, then sift the last key up from there.
   The last key is usually late (a far-future outage or a retry), so it
   would sink to the bottom anyway, and the walk saves comparing it at
   every level. The root's slot goes to the freed end position. *)
let remove_root t =
  let n = t.size - 1 in
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let freed = ug slots 0 in
  t.size <- n;
  if n > 0 then begin
    let i = ref 0 in
    while (4 * !i) + 1 < n do
      let f = (4 * !i) + 1 in
      let c =
        if f + 3 < n then begin
          let a = if before times seqs (f + 1) f then f + 1 else f in
          let b = if before times seqs (f + 3) (f + 2) then f + 3 else f + 2 in
          if before times seqs b a then b else a
        end
        else begin
          let c = ref f in
          for j = f + 1 to n - 1 do
            if before times seqs j !c then c := j
          done;
          !c
        end
      in
      move times seqs slots ~src:c ~dst:!i;
      i := c
    done;
    move times seqs slots ~src:n ~dst:!i;
    sift_up times seqs slots !i
  end;
  us slots n freed

(* Cancelled events stay queued until they reach the root; every reader
   of the root drops them first. *)
let rec drop_dead t =
  if t.size > 0 then begin
    let slot = t.slots.(0) in
    if not t.slab.(slot).live then begin
      t.slab.(slot) <- vacant;
      remove_root t;
      drop_dead t
    end
  end

let schedule t ~at action =
  if not (at >= t.clock) then
    invalid_arg (Printf.sprintf "Engine.schedule: time %g is not at or after now (%g)" at t.clock);
  if t.size = Array.length t.times then grow t;
  let event = { time = at; action; live = true } in
  (* the new key enters at the end, which already holds a free slot *)
  let i = t.size in
  t.slab.(t.slots.(i)) <- event;
  t.times.(i) <- at;
  t.seqs.(i) <- t.next_seq;
  sift_up t.times t.seqs t.slots i;
  t.size <- i + 1;
  t.next_seq <- t.next_seq + 1;
  t.live_count <- t.live_count + 1;
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
  let slot = t.slots.(0) in
  let event = t.slab.(slot) in
  t.slab.(slot) <- vacant;
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

let run t () = while step t do () done

let pending t = t.live_count

let next_time t =
  drop_dead t;
  if t.size = 0 then None else Some t.times.(0)

let events_fired t = t.fired
