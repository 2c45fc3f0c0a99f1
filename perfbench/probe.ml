(* What one pass of a workload is observed with.

   An untraced pass leaves every library hook off and opens no spans:
   its timings are the end-to-end metrics. A traced pass enables the
   existing [Lla_obs.Profile] hooks on the monotonic clock, opens a
   benchmark span (which is also a profiler phase, so library phases
   nest beneath it) around every call into a layer, counts trace
   records with a sink, and reads GC pauses from the runtime's event
   ring. *)

module Profile = Lla_obs.Profile

type t = {
  traced : bool;
  profile : Profile.t;
  spans : Spans.t;
  gc : Gc_pause.t option;
  mutable records : int;  (** trace records seen by the counting sink *)
}

let untraced () =
  {
    traced = false;
    profile = Profile.disabled ();
    spans = Spans.create ~clock:Clock.now;
    gc = None;
    records = 0;
  }

let traced gc =
  {
    traced = true;
    profile = Profile.create ~clock:Clock.now ();
    spans = Spans.create ~clock:Clock.now;
    gc = Some gc;
    records = 0;
  }

(* Drain the GC event ring; call every few milliseconds of work. *)
let poll p = match p.gc with Some g -> Gc_pause.poll g | None -> ()

let span p name f =
  if p.traced then begin
    let v = Spans.with_span p.spans name (fun () -> Profile.time p.profile name f) in
    poll p;
    v
  end
  else f ()

(* An observability handle for layers that take [?obs]: [None] when
   untraced, so those layers run exactly as in production. *)
let obs p =
  if p.traced then begin
    let o = Lla_obs.create ~profile:p.profile () in
    Lla_obs.Trace.attach o.Lla_obs.trace (fun _ -> p.records <- p.records + 1);
    Some o
  end
  else None

(* A handle the workload itself needs (a trace ring feeding a monitor):
   present in both passes, profiled and counted only when traced. *)
let required_obs p =
  match obs p with Some o -> o | None -> Lla_obs.create ()

(* Attach a streaming monitor through a benchmark-owned sink — the same
   wiring as [Monitor.attach] — so its cost can be timed. *)
let attach_monitor p monitor (o : Lla_obs.t) =
  let feeds = ref 0 in
  let sink =
    if p.traced then fun r ->
      incr feeds;
      Profile.time p.profile "monitor.sink" (fun () -> Lla_obs.Monitor.sink monitor r)
    else fun r ->
      incr feeds;
      Lla_obs.Monitor.sink monitor r
  in
  Lla_obs.Trace.attach o.Lla_obs.trace sink;
  Lla_obs.Monitor.on_alert monitor (fun ~at ev -> Lla_obs.Trace.emit o.Lla_obs.trace ~at ev);
  feeds

(* GC deltas over a measured region. Minor words come from
   [Gc.minor_words], which reads the allocation pointer and so counts
   every word; [Gc.quick_stat]'s [minor_words] moves only at a minor
   collection, so a region that allocates less than the free minor heap
   would read 0. Promotions and collection counts change only at a
   collection, so [quick_stat] serves for those. *)
type gc_delta = { minor_words : float; promoted_words : float; minor_gcs : int; major_gcs : int }

type gc_mark = { stat : Gc.stat; words : float }

let gc_mark () =
  let stat = Gc.quick_stat () in
  { stat; words = Gc.minor_words () }

let raw_since m =
  let words = Gc.minor_words () in
  let s1 = Gc.quick_stat () in
  {
    minor_words = words -. m.words;
    promoted_words = s1.Gc.promoted_words -. m.stat.Gc.promoted_words;
    minor_gcs = s1.Gc.minor_collections - m.stat.Gc.minor_collections;
    major_gcs = s1.Gc.major_collections - m.stat.Gc.major_collections;
  }

(* What a mark allocates after its own reading (its boxed float and
   record): the minor words of an empty region, taken off every delta. *)
let mark_words = (raw_since (gc_mark ())).minor_words

let gc_since m =
  let d = raw_since m in
  { d with minor_words = d.minor_words -. mark_words }

(* VmHWM (peak resident set) in MB; VmRSS where the kernel lacks it. *)
let peak_rss_mb () =
  let read key =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        let rec go () =
          match input_line ic with
          | exception End_of_file -> None
          | line ->
              if String.starts_with ~prefix:key line then
                Scanf.sscanf_opt line "%_s@: %d" Fun.id
              else go ()
        in
        let v = go () in
        close_in ic;
        v
  in
  match read "VmHWM:" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> ( match read "VmRSS:" with Some kb -> float_of_int kb /. 1024. | None -> nan)
