(* GC pause time read from the runtime's own event ring (the
   [runtime_events] library shipped with the compiler). A pause is the
   time spent inside a top-level collection phase — a minor collection,
   a major slice, or an explicit GC call; nested sub-phases are not
   counted twice. The ring is bounded, so callers [poll] often enough
   (every few milliseconds) that it never wraps; wrapped events are
   counted in [lost]. *)

module E = Runtime_events

type counts = {
  mutable depth : int;
  mutable began : int64;
  mutable total_ns : int64;
  mutable lost : int;
  mutable counting : bool;
}

type t = { cursor : E.cursor; callbacks : E.Callbacks.t; c : counts }

let top_level = function
  | E.EV_MINOR | E.EV_MAJOR | E.EV_MAJOR_SLICE | E.EV_EXPLICIT_GC_MINOR | E.EV_EXPLICIT_GC_MAJOR
  | E.EV_EXPLICIT_GC_FULL_MAJOR | E.EV_EXPLICIT_GC_COMPACT | E.EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
  | _ -> false

let start () =
  E.start ();
  let c = { depth = 0; began = 0L; total_ns = 0L; lost = 0; counting = false } in
  let runtime_begin _ ts phase =
    if top_level phase then begin
      if c.depth = 0 then c.began <- E.Timestamp.to_int64 ts;
      c.depth <- c.depth + 1
    end
  in
  let runtime_end _ ts phase =
    if top_level phase && c.depth > 0 then begin
      c.depth <- c.depth - 1;
      if c.depth = 0 && c.counting then
        c.total_ns <- Int64.add c.total_ns (Int64.sub (E.Timestamp.to_int64 ts) c.began)
    end
  in
  let lost_events _ n =
    c.lost <- c.lost + n;
    c.depth <- 0
  in
  {
    cursor = E.create_cursor None;
    callbacks = E.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
    c;
  }

let poll t = ignore (E.read_poll t.cursor t.callbacks None)

(* Drain what happened before, then count from here on. *)
let reset t =
  poll t;
  t.c.total_ns <- 0L;
  t.c.lost <- 0;
  t.c.counting <- true

let pause_s t =
  poll t;
  Int64.to_float t.c.total_ns *. 1e-9

let lost t = t.c.lost
