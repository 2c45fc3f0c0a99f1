(* Tests for the observability layer: the metrics registry, the trace
   ring and its column codec, the JSONL encoding, and the golden-trace
   guarantees — tracing is deterministic, and leaving [?obs] out keeps
   the runtime bit-for-bit on its pre-observability trajectory. *)

module Metrics = Lla_obs.Metrics
module Trace = Lla_obs.Trace
module Jsonl = Lla_obs.Jsonl
module Transport = Lla_transport.Transport
module Distributed = Lla_runtime.Distributed

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_counter_basics () =
  let m = Metrics.create () in
  let c = Metrics.counter m "requests_total" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.value c);
  Alcotest.check_raises "counters are monotone"
    (Invalid_argument "Metrics.add: counters are monotone") (fun () -> Metrics.add c (-1))

let test_find_or_create_shares_instances () =
  let m = Metrics.create () in
  let a = Metrics.counter m ~labels:[ ("x", "1"); ("y", "2") ] "shared_total" in
  (* same identity, labels in a different order *)
  let b = Metrics.counter m ~labels:[ ("y", "2"); ("x", "1") ] "shared_total" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check int) "one underlying instance" 2 (Metrics.value a);
  let c = Metrics.counter m ~labels:[ ("x", "other") ] "shared_total" in
  Metrics.incr c;
  Alcotest.(check int) "different labels, different instance" 1 (Metrics.value c);
  Alcotest.(check bool) "find sees the registered instance" true
    (Metrics.find_counter m ~labels:[ ("x", "1"); ("y", "2") ] "shared_total" <> None);
  Alcotest.(check bool) "find does not create" true
    (Metrics.find_counter m "absent_total" = None)

let test_kind_mismatch_rejected () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "thing");
  Alcotest.(check bool) "re-registering as a gauge raises" true
    (try
       ignore (Metrics.gauge m "thing");
       false
     with Invalid_argument _ -> true)

let test_gauge_and_histogram () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "temperature" in
  Metrics.set g 3.5;
  Metrics.set g (-1.25);
  Alcotest.(check (float 0.)) "gauge holds the last value" (-1.25) (Metrics.gauge_value g);
  let h = Metrics.histogram m ~buckets:[| 1.; 10. |] "delay_ms" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 50. ];
  Alcotest.(check int) "count" 3 (Metrics.histogram_count h);
  Alcotest.(check (float 1e-12)) "sum" 55.5 (Metrics.histogram_sum h);
  Alcotest.(check (list (pair (float 0.) int)))
    "cumulative buckets"
    [ (1., 1); (10., 2); (infinity, 3) ]
    (Metrics.bucket_counts h)

let test_histogram_quantile () =
  let m = Metrics.create () in
  (* 100 samples spread uniformly over [0, 100): the interpolated
     quantile of bucket bounds 10,20,...,100 should land close to the
     exact order statistic. *)
  let h = Metrics.histogram m ~buckets:(Array.init 10 (fun i -> float_of_int ((i + 1) * 10))) "u" in
  for i = 0 to 99 do
    Metrics.observe h (float_of_int i +. 0.5)
  done;
  let q p = Option.get (Metrics.quantile h ~q:p) in
  Alcotest.(check (float 1.0)) "p50 of uniform[0,100)" 50. (q 0.5);
  Alcotest.(check (float 1.0)) "p90 of uniform[0,100)" 90. (q 0.9);
  Alcotest.(check (float 1.0)) "p99 of uniform[0,100)" 99. (q 0.99);
  Alcotest.(check (float 0.)) "q=0 is the left edge of the first occupied bucket" 0. (q 0.);
  Alcotest.(check (float 0.)) "q=1 is the last finite bound" 100. (q 1.);
  (* All mass in one bucket: interpolation stays inside [lo, hi]. *)
  let h2 = Metrics.histogram m ~buckets:[| 1.; 10. |] "point" in
  for _ = 1 to 4 do
    Metrics.observe h2 5.
  done;
  let q2 p = Option.get (Metrics.quantile h2 ~q:p) in
  Alcotest.(check bool) "median within the occupied bucket" true (q2 0.5 > 1. && q2 0.5 <= 10.);
  (* Overflow: samples beyond the last finite bound report that bound
     rather than inventing a value inside an unbounded bucket. *)
  let h3 = Metrics.histogram m ~buckets:[| 1. |] "over" in
  Metrics.observe h3 100.;
  Alcotest.(check (float 0.)) "overflow quantile clamps to the last bound" 1.
    (Option.get (Metrics.quantile h3 ~q:0.9));
  (* Degenerate inputs. *)
  let empty = Metrics.histogram m ~buckets:[| 1. |] "empty" in
  Alcotest.(check bool) "empty histogram" true (Metrics.quantile empty ~q:0.5 = None);
  Alcotest.(check bool) "q out of range" true (Metrics.quantile h ~q:1.5 = None);
  Alcotest.(check bool) "nan q" true (Metrics.quantile h ~q:Float.nan = None)

let test_histogram_summary () =
  let m = Metrics.create () in
  let h = Metrics.histogram m ~buckets:[| 1.; 10.; 100. |] "s" in
  List.iter (Metrics.observe h) [ 0.5; 5.; 50. ];
  let line = Metrics.summary ~name:"s" h in
  List.iter
    (fun needle ->
      let n = String.length needle in
      let rec go i = i + n <= String.length line && (String.sub line i n = needle || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "summary mentions %S" needle) true (go 0))
    [ "s:"; "count=3"; "sum=55.500"; "mean=18.500"; "p50="; "p90="; "p99=" ]

(* Degenerate histogram shapes: empty leading buckets, a single bucket,
   and non-finite observations must neither crash nor leak nan through
   the quantile path (the summary's sum/mean deliberately do). *)
let test_quantile_degenerate_histograms () =
  let m = Metrics.create () in
  (* Every observation in the last finite bucket: q = 0 must report the
     first *occupied* bucket's lower edge, not the upper edge of the
     empty first bucket. *)
  let sparse =
    Metrics.histogram m ~buckets:(Array.init 10 (fun i -> float_of_int ((i + 1) * 10))) "sparse"
  in
  List.iter (Metrics.observe sparse) [ 95.; 96.; 97. ];
  Alcotest.(check (float 0.)) "q=0 skips empty buckets" 90.
    (Option.get (Metrics.quantile sparse ~q:0.));
  Alcotest.(check bool) "q=0.5 interpolates inside the occupied bucket" true
    (let v = Option.get (Metrics.quantile sparse ~q:0.5) in
     v > 90. && v <= 100.);
  (* Single finite bucket holding all the mass. *)
  let single = Metrics.histogram m ~buckets:[| 1. |] "single" in
  List.iter (Metrics.observe single) [ 0.2; 0.4 ];
  Alcotest.(check (float 0.)) "single bucket q=0" 0. (Option.get (Metrics.quantile single ~q:0.));
  Alcotest.(check bool) "single bucket q=0.5 within (0, 1]" true
    (let v = Option.get (Metrics.quantile single ~q:0.5) in
     v > 0. && v <= 1.);
  Alcotest.(check (float 0.)) "single bucket q=1" 1. (Option.get (Metrics.quantile single ~q:1.));
  (* Non-finite observations land in the +Inf bucket: quantiles stay
     finite (clamped to the highest bound), count includes them, and the
     summary surfaces the poisoned sum/mean as nan instead of hiding it. *)
  let poisoned = Metrics.histogram m ~buckets:[| 1.; 10. |] "poisoned" in
  Metrics.observe poisoned 0.5;
  Metrics.observe poisoned Float.nan;
  Metrics.observe poisoned Float.infinity;
  Alcotest.(check int) "non-finite observations are counted" 3 (Metrics.histogram_count poisoned);
  Alcotest.(check bool) "quantile stays finite under nan observations" true
    (match Metrics.quantile poisoned ~q:0.99 with Some v -> Float.is_finite v | None -> false);
  Alcotest.(check (float 0.)) "nan ranks clamp to the highest bound" 10.
    (Option.get (Metrics.quantile poisoned ~q:1.));
  let line = Metrics.summary ~name:"poisoned" poisoned in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length line && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary surfaces the poisoned mean" true (contains "mean=nan");
  (* Empty histogram summary never divides by zero. *)
  let empty = Metrics.histogram m ~buckets:[| 1. |] "empty2" in
  Alcotest.(check string) "empty summary" "empty2: no observations"
    (Metrics.summary ~name:"empty2" empty)

let test_expose_format () =
  let m = Metrics.create () in
  let c = Metrics.counter m ~help:"how many" ~labels:[ ("kind", "a") ] "events_total" in
  Metrics.add c 7;
  let text = Metrics.expose m in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HELP line" true (contains "# HELP events_total how many");
  Alcotest.(check bool) "TYPE line" true (contains "# TYPE events_total counter");
  Alcotest.(check bool) "sample line" true (contains "events_total{kind=\"a\"} 7")

(* A scraper must never see a raw newline, quote or backslash escape its
   context: label values escape all three, HELP text escapes backslash
   and newline (quotes are legal there). Hostile inputs on both. *)
let test_expose_hostile_labels () =
  let m = Metrics.create () in
  let c =
    Metrics.counter m
      ~help:"first line\nsecond \\ line"
      ~labels:[ ("path", "a\\b"); ("msg", "say \"hi\"\nbye") ]
      "hostile_total"
  in
  Metrics.incr c;
  let text = Metrics.expose m in
  let contains needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HELP escapes newline and backslash" true
    (contains "# HELP hostile_total first line\\nsecond \\\\ line");
  (* Labels are normalized to key order, so msg sorts before path. *)
  Alcotest.(check bool) "label values escape quote, newline, backslash" true
    (contains "hostile_total{msg=\"say \\\"hi\\\"\\nbye\",path=\"a\\\\b\"} 1");
  (* No physical line of the exposition may contain an unescaped quote
     run-off: every line must parse as comment or name{labels} value. *)
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && line.[0] <> '#' then
           Alcotest.(check bool)
             (Printf.sprintf "sample line has even quote count: %s" line)
             true
             (let q = ref 0 in
              String.iteri (fun i ch -> if ch = '"' && (i = 0 || line.[i - 1] <> '\\') then incr q) line;
              !q mod 2 = 0))

(* ------------------------------------------------------------------ *)
(* Trace ring                                                          *)
(* ------------------------------------------------------------------ *)

(* One of each constructor: the ring stores events column-wise, so this
   doubles as a round-trip test of the store/load codec. *)
let all_events =
  [
    Trace.Iteration { iteration = 3; utility = 1.5; movement = 0.25; guards = 2 };
    Trace.Allocation_solved { task = 1; utility = 42.5 };
    Trace.Price_updated
      { resource = 2; mu = 0.75; step = 1.5; share_sum = 0.9; capacity = 1.0; congested = true };
    Trace.Path_price_updated
      { path = 4; lambda = 0.1; step = 2.0; latency = 80.; critical_time = 100. };
    Trace.Guard_fired { site = "allocation.candidate" };
    Trace.Correction_applied { subtask = "decode"; offset = -0.5 };
    Trace.Watchdog_trip { reason = "price divergence" };
    Trace.Safe_mode_entered { reason = "price divergence"; fallback = "offline-solver" };
    Trace.Safe_mode_exited;
    Trace.Checkpoint_saved { actor = "agent:0" };
    Trace.Checkpoint_rejected { actor = "controller:1" };
    Trace.Checkpoint_restored { actor = "agent:2"; warm = true };
    Trace.Transport_send { src = "a"; dst = "b" };
    Trace.Transport_dropped { src = "a"; dst = "b"; reason = "cut" };
    Trace.Transport_delivered { src = "b"; dst = "a"; delay = 1.25 };
    Trace.Health_transition { endpoint = "agent:r0"; alive = false };
    Trace.Span { span = 12; parent = 3; trace = 7; kind = "price"; actor = "agent:cpu" };
    Trace.Note { name = "debug"; value = 7. };
  ]

let test_ring_roundtrips_every_constructor () =
  let t = Trace.create () in
  List.iteri (fun i e -> Trace.emit t ~at:(float_of_int i) e) all_events;
  let rs = Trace.records t in
  Alcotest.(check int) "all retained" (List.length all_events) (List.length rs);
  List.iteri
    (fun i (r : Trace.record) ->
      Alcotest.(check int) "seq" i r.Trace.seq;
      Alcotest.(check (float 0.)) "at" (float_of_int i) r.Trace.at;
      Alcotest.(check bool)
        (Printf.sprintf "event %d (%s) round-trips" i (Trace.event_name r.Trace.event))
        true
        (r.Trace.event = List.nth all_events i))
    rs

let test_ring_eviction_and_sinks () =
  let t = Trace.create ~capacity:4 () in
  let sink, seen = Trace.memory_sink () in
  Trace.attach t sink;
  for i = 0 to 9 do
    Trace.emit t ~at:(float_of_int i) (Trace.Allocation_solved { task = i; utility = 0. })
  done;
  let rs = Trace.records t in
  Alcotest.(check (list int)) "ring keeps the newest, in order" [ 6; 7; 8; 9 ]
    (List.map
       (fun (r : Trace.record) ->
         match r.Trace.event with Trace.Allocation_solved { task; _ } -> task | _ -> -1)
       rs);
  Alcotest.(check (list int)) "sequence numbers survive eviction" [ 6; 7; 8; 9 ]
    (List.map (fun (r : Trace.record) -> r.Trace.seq) rs);
  Alcotest.(check int) "sinks saw every record, pre-eviction" 10 (List.length (seen ()))

let test_ring_rejects_bad_capacity () =
  Alcotest.check_raises "non-positive capacity"
    (Invalid_argument "Trace.create: non-positive capacity") (fun () ->
      ignore (Trace.create ~capacity:0 ()))

let test_record_json_shape () =
  let r =
    {
      Trace.seq = 5;
      at = 12.5;
      event =
        Trace.Price_updated
          { resource = 1; mu = 0.5; step = 1.; share_sum = 0.8; capacity = 0.9; congested = false };
    }
  in
  match Jsonl.parse (Trace.record_to_string r) with
  | Error e -> Alcotest.fail ("record line does not parse: " ^ e)
  | Ok json ->
    let num k = Option.get (Jsonl.num (Option.get (Jsonl.member k json))) in
    Alcotest.(check (float 0.)) "seq" 5. (num "seq");
    Alcotest.(check (float 0.)) "at" 12.5 (num "at");
    Alcotest.(check string) "type tag" "price_updated"
      (Option.get (Jsonl.str (Option.get (Jsonl.member "type" json))));
    Alcotest.(check (float 0.)) "share_sum operand" 0.8 (num "share_sum");
    Alcotest.(check bool) "congested operand" false
      (Option.get (Jsonl.bool (Option.get (Jsonl.member "congested" json))))

(* Every constructor survives encode → parse → decode. [compare] (not
   [=]) because the stream legitimately carries nan operands. *)
let test_record_decoder_roundtrips () =
  List.iteri
    (fun i event ->
      let r = { Trace.seq = i; at = float_of_int i *. 0.5; event } in
      match Trace.record_of_string (Trace.record_to_string r) with
      | Error e ->
        Alcotest.fail (Printf.sprintf "%s does not decode: %s" (Trace.event_name event) e)
      | Ok r' ->
        Alcotest.(check bool)
          (Printf.sprintf "%s decodes to itself" (Trace.event_name event))
          true
          (compare r r' = 0))
    all_events

let test_record_decoder_rejects_malformed () =
  List.iter
    (fun line ->
      match Trace.record_of_string line with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not decode" line)
      | Error _ -> ())
    [
      "";
      "not json";
      "{\"seq\":0,\"at\":0}" (* no type *);
      "{\"seq\":0,\"at\":0,\"type\":\"no_such_event\"}";
      "{\"seq\":0,\"at\":0,\"type\":\"iteration\"}" (* missing operands *);
      "{\"seq\":0,\"at\":0,\"type\":\"span\",\"span\":1,\"parent\":0,\"trace\":1,\"kind\":\"price\"}"
      (* missing actor *);
      "{\"at\":0,\"type\":\"note\",\"name\":\"x\",\"value\":1}" (* missing seq *);
      "{\"seq\":\"zero\",\"at\":0,\"type\":\"note\",\"name\":\"x\",\"value\":1}"
      (* seq not a number *);
    ]

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let roundtrip v =
  match Jsonl.parse (Jsonl.to_string v) with
  | Ok v' -> v' = v
  | Error _ -> false

let test_jsonl_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check bool) ("round-trip: " ^ Jsonl.to_string v) true (roundtrip v))
    [
      Jsonl.Null;
      Jsonl.Bool true;
      Jsonl.Num 0.;
      Jsonl.Num 42.;
      Jsonl.Num 0.1;
      Jsonl.Num 1.7976931348623157e308;
      Jsonl.Num 5e-324;
      Jsonl.Num (-3.25);
      Jsonl.Str "";
      Jsonl.Str "quote \" backslash \\ newline \n tab \t";
      Jsonl.Arr [ Jsonl.Num 1.; Jsonl.Str "two"; Jsonl.Null ];
      Jsonl.Obj [ ("a", Jsonl.Num 1.); ("nested", Jsonl.Obj [ ("b", Jsonl.Bool false) ]) ];
    ]

let test_jsonl_non_finite_tokens () =
  Alcotest.(check string) "nan token" "nan" (Jsonl.to_string (Jsonl.Num Float.nan));
  Alcotest.(check string) "inf token" "inf" (Jsonl.to_string (Jsonl.Num Float.infinity));
  Alcotest.(check string) "-inf token" "-inf" (Jsonl.to_string (Jsonl.Num Float.neg_infinity));
  (match Jsonl.parse "{\"x\":inf,\"y\":-inf,\"z\":nan}" with
  | Error e -> Alcotest.fail e
  | Ok json ->
    let num k = Option.get (Jsonl.num (Option.get (Jsonl.member k json))) in
    Alcotest.(check (float 0.)) "inf parses back" Float.infinity (num "x");
    Alcotest.(check (float 0.)) "-inf parses back" Float.neg_infinity (num "y");
    Alcotest.(check bool) "nan parses back" true (Float.is_nan (num "z")))

let test_jsonl_rejects_garbage () =
  List.iter
    (fun s ->
      match Jsonl.parse s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "%S should not parse" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "truex"; "1 2"; "{\"a\":}"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* Golden trajectories: ?obs omitted = the pre-observability runtime    *)
(* ------------------------------------------------------------------ *)

(* Captured from the tree immediately before the observability layer was
   introduced: base workload, default config, no resilience, utility
   sampled every 1000 ms. Any drift here means instrumentation perturbed
   the control plane. *)
let golden_distributed_utilities =
  [
    188.26015886489481;
    187.73991024411211;
    187.06903472659877;
    183.50664377685712;
    183.2871377684678;
    183.35764521770636;
    183.67907237766468;
    183.46173056483909;
    183.41073551754656;
    184.1155226047353;
  ]

let golden_solver_utilities =
  (* (iteration, utility) on the base workload, default solver config *)
  [
    (1, 298.80409341672498);
    (10, 220.40569242081443);
    (100, 188.54378936051754);
    (500, 184.33434122474148);
  ]

let sample_distributed ?obs () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let d = Distributed.create ?obs engine workload in
  let samples = ref [] in
  for _ = 1 to 10 do
    Distributed.run d ~duration:1000.;
    samples := Distributed.utility d :: !samples
  done;
  Distributed.stop d;
  ( List.rev !samples,
    (Distributed.messages_sent d, Distributed.price_rounds d, Distributed.allocation_rounds d) )

let test_distributed_matches_pre_obs_golden () =
  let samples, (messages, price_rounds, allocation_rounds) = sample_distributed () in
  Alcotest.(check (list (float 0.)))
    "utility trajectory is bit-for-bit the pre-observability one" golden_distributed_utilities
    samples;
  Alcotest.(check int) "messages" 42021 messages;
  Alcotest.(check int) "price rounds" 8000 price_rounds;
  Alcotest.(check int) "allocation rounds" 3000 allocation_rounds

let test_solver_matches_pre_obs_golden () =
  let solver = Lla.Solver.create (Lla_workloads.Paper_sim.base ()) in
  let it = ref 0 in
  List.iter
    (fun (target, expected) ->
      while !it < target do
        Lla.Solver.step solver;
        incr it
      done;
      Alcotest.(check (float 0.))
        (Printf.sprintf "utility at iteration %d" target)
        expected (Lla.Solver.utility solver))
    golden_solver_utilities

let test_tracing_does_not_perturb () =
  let obs = Lla_obs.create () in
  let samples_on, counters_on = sample_distributed ~obs () in
  let samples_off, counters_off = sample_distributed () in
  Alcotest.(check (list (float 0.))) "identical trajectories" samples_off samples_on;
  let on_m, on_p, on_a = counters_on and off_m, off_p, off_a = counters_off in
  Alcotest.(check (list int)) "identical counters" [ off_m; off_p; off_a ] [ on_m; on_p; on_a ];
  Alcotest.(check bool) "and the trace is not empty" true
    (Trace.records obs.Lla_obs.trace <> [])

(* The span-context path threads [Span.t] values through every transport
   message; carrying them must not touch routing, randomness, or the
   event schedule. *)
let test_spans_do_not_perturb () =
  let obs = Lla_obs.create ~spans:true ~profile:(Lla_obs.Profile.create ()) () in
  let samples_on, counters_on = sample_distributed ~obs () in
  let samples_off, counters_off = sample_distributed () in
  Alcotest.(check (list (float 0.)))
    "spans + profiler leave the trajectory bit-for-bit" samples_off samples_on;
  let on_m, on_p, on_a = counters_on and off_m, off_p, off_a = counters_off in
  Alcotest.(check (list int)) "identical counters" [ off_m; off_p; off_a ] [ on_m; on_p; on_a ];
  let records = Trace.records obs.Lla_obs.trace in
  let spans =
    List.filter
      (fun (r : Trace.record) -> match r.Trace.event with Trace.Span _ -> true | _ -> false)
      records
  in
  Alcotest.(check bool) "span records were emitted" true (spans <> []);
  Alcotest.(check bool) "span stream is well-formed" true
    (Lla_obs.Invariant.spans_well_formed records)

(* ------------------------------------------------------------------ *)
(* Golden trace: determinism of the recorded stream                    *)
(* ------------------------------------------------------------------ *)

let record_stream () =
  (* spans on too: the deterministic-stream check covers the span-context
     transport path (ids from the per-handle counter, no randomness). *)
  let obs = Lla_obs.create ~trace_io:true ~spans:true () in
  let sink, seen = Trace.memory_sink () in
  Trace.attach obs.Lla_obs.trace sink;
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let d = Distributed.create ~obs engine workload in
  Distributed.run d ~duration:2000.;
  Distributed.stop d;
  seen ()

let test_trace_deterministic () =
  let a = record_stream () and b = record_stream () in
  Alcotest.(check int) "same length" (List.length a) (List.length b);
  List.iter2
    (fun (ra : Trace.record) (rb : Trace.record) ->
      if ra <> rb then
        Alcotest.fail
          (Printf.sprintf "streams diverge at seq %d:\n  %s\n  %s" ra.Trace.seq
             (Trace.record_to_string ra) (Trace.record_to_string rb)))
    a b

(* ------------------------------------------------------------------ *)
(* trace_io gating                                                     *)
(* ------------------------------------------------------------------ *)

let count_events pred records =
  List.length (List.filter (fun (r : Trace.record) -> pred r.Trace.event) records)

let is_send = function Trace.Transport_send _ -> true | _ -> false
let is_delivered = function Trace.Transport_delivered _ -> true | _ -> false
let is_dropped = function Trace.Transport_dropped _ -> true | _ -> false

let transport_trace ~trace_io ~drop =
  let obs = Lla_obs.create ~trace_io () in
  let sink, seen = Trace.memory_sink () in
  Trace.attach obs.Lla_obs.trace sink;
  let engine = Lla_sim.Engine.create () in
  let config =
    { Transport.default_config with faults = { Transport.no_faults with drop } }
  in
  let transport = Transport.create ~obs ~config engine in
  let a = Transport.endpoint transport ~name:"a" in
  let b = Transport.endpoint transport ~name:"b" in
  for _ = 1 to 20 do
    Transport.send transport ~src:a ~dst:b (fun () -> ())
  done;
  Lla_sim.Engine.run engine ();
  (seen (), Transport.totals transport)

let test_trace_io_gates_happy_path () =
  let quiet, totals = transport_trace ~trace_io:false ~drop:0.5 in
  Alcotest.(check int) "sends not traced by default" 0 (count_events is_send quiet);
  Alcotest.(check int) "deliveries not traced by default" 0 (count_events is_delivered quiet);
  Alcotest.(check int) "failures always traced" totals.Transport.dropped
    (count_events is_dropped quiet);
  Alcotest.(check bool) "aggregate counts always kept" true (totals.Transport.dropped > 0);
  let verbose, totals = transport_trace ~trace_io:true ~drop:0.5 in
  Alcotest.(check int) "sends traced under trace_io" totals.Transport.sent
    (count_events is_send verbose);
  Alcotest.(check int) "deliveries traced under trace_io" totals.Transport.delivered
    (count_events is_delivered verbose)

(* ------------------------------------------------------------------ *)
(* Instrumented solver: events and registry metrics agree              *)
(* ------------------------------------------------------------------ *)

let test_solver_emits_iterations () =
  let obs = Lla_obs.create () in
  let solver = Lla.Solver.create ~obs (Lla_workloads.Paper_sim.base ()) in
  Lla.Solver.run solver ~iterations:25;
  let records = Trace.records obs.Lla_obs.trace in
  let iterations =
    count_events (function Trace.Iteration _ -> true | _ -> false) records
  in
  Alcotest.(check int) "one Iteration record per step" 25 iterations;
  (match Metrics.find_counter obs.Lla_obs.metrics "lla_solver_iterations_total" with
  | None -> Alcotest.fail "iteration counter not registered"
  | Some c -> Alcotest.(check int) "registry agrees" 25 (Metrics.value c));
  let problem = Lla.Solver.problem solver in
  let price_updates =
    count_events (function Trace.Price_updated _ -> true | _ -> false) records
  in
  Alcotest.(check int) "one price record per resource per step"
    (25 * Lla.Problem.n_resources problem)
    price_updates

let () =
  Alcotest.run "lla_obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basics;
          Alcotest.test_case "find-or-create shares instances" `Quick
            test_find_or_create_shares_instances;
          Alcotest.test_case "kind mismatch rejected" `Quick test_kind_mismatch_rejected;
          Alcotest.test_case "gauge and histogram" `Quick test_gauge_and_histogram;
          Alcotest.test_case "histogram quantile" `Quick test_histogram_quantile;
          Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
          Alcotest.test_case "degenerate histograms" `Quick test_quantile_degenerate_histograms;
          Alcotest.test_case "prometheus exposition" `Quick test_expose_format;
          Alcotest.test_case "exposition survives hostile labels and help" `Quick
            test_expose_hostile_labels;
        ] );
      ( "trace",
        [
          Alcotest.test_case "every constructor round-trips the ring" `Quick
            test_ring_roundtrips_every_constructor;
          Alcotest.test_case "eviction, sinks, clear" `Quick test_ring_eviction_and_sinks;
          Alcotest.test_case "bad capacity rejected" `Quick test_ring_rejects_bad_capacity;
          Alcotest.test_case "record JSON shape" `Quick test_record_json_shape;
          Alcotest.test_case "decoder round-trips every constructor" `Quick
            test_record_decoder_roundtrips;
          Alcotest.test_case "decoder rejects malformed lines" `Quick
            test_record_decoder_rejects_malformed;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "values round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "non-finite tokens" `Quick test_jsonl_non_finite_tokens;
          Alcotest.test_case "garbage rejected" `Quick test_jsonl_rejects_garbage;
        ] );
      ( "golden",
        [
          Alcotest.test_case "distributed matches pre-observability run" `Slow
            test_distributed_matches_pre_obs_golden;
          Alcotest.test_case "solver matches pre-observability run" `Quick
            test_solver_matches_pre_obs_golden;
          Alcotest.test_case "tracing does not perturb the trajectory" `Slow
            test_tracing_does_not_perturb;
          Alcotest.test_case "spans + profiler do not perturb the trajectory" `Slow
            test_spans_do_not_perturb;
          Alcotest.test_case "recorded stream is deterministic" `Slow test_trace_deterministic;
        ] );
      ( "gating",
        [
          Alcotest.test_case "trace_io gates the happy path" `Quick
            test_trace_io_gates_happy_path;
          Alcotest.test_case "solver iteration records" `Quick test_solver_emits_iterations;
        ] );
    ]
