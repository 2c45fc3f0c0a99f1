module Metrics = Metrics
module Trace = Trace
module Invariant = Invariant
module Jsonl = Jsonl
module Span = Span
module Profile = Profile
module Causal = Causal
module Series = Series
module Analyze = Analyze
module Rotate = Rotate
module Monitor = Monitor

type t = {
  metrics : Metrics.t;
  trace : Trace.t;
  trace_io : bool;
  spans : bool;
  profile : Profile.t;
  mutable next_span : int;
  mutable span_stride : int;
}

let create ?(trace_io = false) ?(spans = false) ?profile ?(span_base = 0)
    ?(span_stride = 1) () =
  if span_stride < 1 then invalid_arg "Lla_obs.create: span_stride < 1";
  {
    metrics = Metrics.create ();
    trace = Trace.create ();
    trace_io;
    spans;
    profile = (match profile with Some p -> p | None -> Profile.disabled ());
    next_span = span_base;
    span_stride;
  }

let alloc_span t =
  let id = t.next_span in
  t.next_span <- id + t.span_stride;
  id

let set_span_stride t ~base ~stride =
  if stride < 1 then invalid_arg "Lla_obs.set_span_stride: stride < 1";
  if t.next_span <> 0 || t.span_stride <> 1 then
    invalid_arg "Lla_obs.set_span_stride: handle already allocated spans";
  t.next_span <- base;
  t.span_stride <- stride

let emit t ~at event = Trace.emit t.trace ~at event

let emit_opt obs ~at event =
  match obs with None -> () | Some t -> Trace.emit t.trace ~at event
