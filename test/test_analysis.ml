(* Tests for the analysis tier of the observability layer: causal span
   trees and control-reaction latency (Causal), time-series extraction
   (Series), convergence analytics (Analyze), and the hierarchical
   phase profiler (Profile) — on hand-built streams where the right
   answer is known by construction, and on live distributed runs where
   the offline reconstruction must agree with the online metrics. *)

module Trace = Lla_obs.Trace
module Causal = Lla_obs.Causal
module Series = Lla_obs.Series
module Analyze = Lla_obs.Analyze
module Profile = Lla_obs.Profile
module Metrics = Lla_obs.Metrics
module Distributed = Lla_runtime.Distributed

(* ------------------------------------------------------------------ *)
(* Causal: hand-built streams                                          *)
(* ------------------------------------------------------------------ *)

let span ~at ~id ~parent ~trace ~kind =
  {
    Trace.seq = id;
    at;
    event = Trace.Span { span = id; parent; trace; kind; actor = "t" };
  }

(* A textbook reaction chain plus distractors:

     price#0 (t=1) -> msg#1 (t=3) -> alloc#2 (t=5)     latency 4
     alloc#3 (t=6, parent alloc#2)                     stale re-solve, excluded
     price#4 (t=7, trace 4) with no consumer           no latency
     msg#5 -> alloc#6 chain whose parent is absent     broken chain, excluded *)
let chain_stream =
  [
    span ~at:1. ~id:0 ~parent:(-1) ~trace:0 ~kind:"price";
    span ~at:3. ~id:1 ~parent:0 ~trace:0 ~kind:"msg";
    span ~at:5. ~id:2 ~parent:1 ~trace:0 ~kind:"alloc";
    span ~at:6. ~id:3 ~parent:2 ~trace:0 ~kind:"alloc";
    span ~at:7. ~id:4 ~parent:(-1) ~trace:4 ~kind:"price";
    span ~at:8. ~id:6 ~parent:5 ~trace:5 ~kind:"msg";
    span ~at:9. ~id:7 ~parent:6 ~trace:5 ~kind:"alloc";
  ]

let test_causal_control_latencies () =
  Alcotest.(check (list (float 0.)))
    "only the price->msg->alloc chain counts" [ 4. ]
    (Causal.control_latencies chain_stream)

let test_causal_ignores_non_span_records () =
  let noise =
    { Trace.seq = 100; at = 2.; event = Trace.Note { name = "x"; value = 1. } }
  in
  Alcotest.(check int) "spans filters the stream" (List.length chain_stream)
    (List.length (Causal.spans (noise :: chain_stream)))

(* ------------------------------------------------------------------ *)
(* Causal: online histogram and offline reconstruction agree            *)
(* ------------------------------------------------------------------ *)

let test_online_offline_agree () =
  let obs = Lla_obs.create ~spans:true () in
  let sink, collected = Trace.memory_sink () in
  Trace.attach obs.Lla_obs.trace sink;
  let engine = Lla_sim.Engine.create () in
  let d = Distributed.create ~obs engine (Lla_workloads.Paper_sim.base ()) in
  Distributed.run d ~duration:3000.;
  Distributed.stop d;
  let records = collected () in
  let offline = Causal.control_latencies records in
  match Metrics.find_histogram obs.Lla_obs.metrics "lla_control_latency_ms" with
  | None -> Alcotest.fail "online histogram not registered"
  | Some h ->
    Alcotest.(check bool) "run produced latency samples" true (offline <> []);
    Alcotest.(check int) "same sample count" (Metrics.histogram_count h) (List.length offline);
    Alcotest.(check (float 1e-6)) "same sample sum" (Metrics.histogram_sum h)
      (List.fold_left ( +. ) 0. offline);
    Alcotest.(check bool) "span stream is well-formed" true
      (Lla_obs.Invariant.spans_well_formed records)

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let iteration ~seq ~at ~utility =
  { Trace.seq; at; event = Trace.Iteration { iteration = seq; utility; movement = 0.; guards = 0 } }

let solved ~seq ~at ~task ~utility =
  { Trace.seq; at; event = Trace.Allocation_solved { task; utility } }

let test_series_utility_from_iterations () =
  let stream = [ iteration ~seq:0 ~at:1. ~utility:10.; iteration ~seq:1 ~at:2. ~utility:8. ] in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "iteration events are used directly"
    [ (1., 10.); (2., 8.) ]
    (Series.utility stream)

let test_series_utility_distributed_rebuild () =
  (* Two tasks; the sum only starts once both have reported, then tracks
     the running sum of latest values. *)
  let stream =
    [
      solved ~seq:0 ~at:1. ~task:0 ~utility:5.;
      solved ~seq:1 ~at:2. ~task:1 ~utility:7.;
      solved ~seq:2 ~at:3. ~task:0 ~utility:6.;
    ]
  in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "running sum of latest per-task utilities"
    [ (2., 12.); (3., 13.) ]
    (Series.utility stream)

let price ~seq ~at ~resource ~mu ~share_sum ~capacity =
  {
    Trace.seq;
    at;
    event = Trace.Price_updated { resource; mu; step = 1.; share_sum; capacity; congested = false };
  }

let test_series_prices_and_congestion () =
  let stream =
    [
      price ~seq:0 ~at:1. ~resource:0 ~mu:0.5 ~share_sum:0.9 ~capacity:1.0;
      price ~seq:1 ~at:1. ~resource:1 ~mu:0.1 ~share_sum:0.3 ~capacity:1.0;
      price ~seq:2 ~at:2. ~resource:0 ~mu:0.6 ~share_sum:1.2 ~capacity:1.0;
    ]
  in
  (match Series.prices stream with
  | [ (0, r0); (1, r1) ] ->
    Alcotest.(check (list (pair (float 0.) (float 0.)))) "resource 0 mu" [ (1., 0.5); (2., 0.6) ] r0;
    Alcotest.(check (list (pair (float 0.) (float 0.)))) "resource 1 mu" [ (1., 0.1) ] r1
  | other -> Alcotest.fail (Printf.sprintf "prices grouped %d resources" (List.length other)));
  match Series.congestion stream with
  | [ (0, r0); (1, _) ] ->
    Alcotest.(check (list (pair (float 0.) (float 1e-12))))
      "load factor share_sum/capacity"
      [ (1., 0.9); (2., 1.2) ]
      r0
  | other -> Alcotest.fail (Printf.sprintf "congestion grouped %d resources" (List.length other))

let test_series_jsonl_file_roundtrip () =
  let t = Trace.create () in
  Trace.emit t ~at:1. (Trace.Note { name = "x"; value = Float.nan });
  Trace.emit t ~at:2.
    (Trace.Span { span = 1; parent = -1; trace = 1; kind = "price"; actor = "agent:cpu" });
  let path = Filename.temp_file "lla_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Trace.write_jsonl t oc;
      (* blank lines are legal in a dump *)
      output_string oc "\n";
      close_out oc;
      match Series.load_jsonl path with
      | Error e -> Alcotest.fail e
      | Ok records ->
        Alcotest.(check int) "both records load" 2 (List.length records);
        Alcotest.(check bool) "records round-trip (nan-safe)" true
          (compare records (Trace.records t) = 0))

let test_series_load_reports_bad_line () =
  let path = Filename.temp_file "lla_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"seq\":0,\"at\":0,\"type\":\"note\",\"name\":\"ok\",\"value\":1}\n";
      output_string oc "this is not json\n";
      close_out oc;
      match Series.load_jsonl path with
      | Ok _ -> Alcotest.fail "malformed dump should not load"
      | Error e ->
        Alcotest.(check bool) "error names the line" true
          (String.length e > 0
          &&
          let needle = ":2:" in
          let n = String.length needle in
          let rec go i = i + n <= String.length e && (String.sub e i n = needle || go (i + 1)) in
          go 0))

(* ------------------------------------------------------------------ *)
(* Analyze                                                             *)
(* ------------------------------------------------------------------ *)

let test_settling_time () =
  let series = [ (0., 0.); (1., 50.); (2., 99.); (3., 101.); (4., 100.2); (5., 99.9) ] in
  (match Analyze.settling_time ~tolerance:0.015 ~target:100. series with
  | None -> Alcotest.fail "series settles"
  | Some t -> Alcotest.(check (float 0.)) "first time the suffix stays in band" 2. t);
  (* Entering the band and leaving again must not count. *)
  let bouncy = [ (0., 100.); (1., 100.); (2., 150.); (3., 100.) ] in
  (match Analyze.settling_time ~tolerance:0.015 ~target:100. bouncy with
  | None -> Alcotest.fail "bouncy series settles at the end"
  | Some t -> Alcotest.(check (float 0.)) "excursion resets settling" 3. t);
  Alcotest.(check bool) "never-settling series" true
    (Analyze.settling_time ~tolerance:0.01 ~target:100. [ (0., 0.); (1., 1.) ] = None);
  Alcotest.(check bool) "empty series" true
    (Analyze.settling_time ~target:1. [] = None);
  Alcotest.(check bool) "non-finite target" true
    (Analyze.settling_time ~target:Float.nan [ (0., 1.) ] = None)

(* Streams that carry one series each, for the report's reductions. *)
let utility_stream series =
  List.mapi
    (fun i (at, utility) ->
      {
        Trace.seq = i;
        at;
        event = Trace.Iteration { iteration = i; utility; movement = 0.; guards = 0 };
      })
    series

let price_stream series =
  List.mapi
    (fun i (at, mu) ->
      {
        Trace.seq = i;
        at;
        event =
          Trace.Price_updated
            { resource = 0; mu; step = 1.; share_sum = 0.; capacity = 1.; congested = false };
      })
    series

let oscillation series = (Analyze.analyze (utility_stream series)).Analyze.utility_oscillation

let dispersion series =
  match (Analyze.analyze (price_stream series)).Analyze.resources with
  | [ r ] -> r.Analyze.price_dispersion
  | rs -> Alcotest.failf "%d resources reported for one price series" (List.length rs)

let test_oscillation () =
  (* Triangle wave of amplitude 2 (values 1..3..1), period 4. *)
  let series =
    List.init 64 (fun i ->
        let t = float_of_int i in
        let phase = i mod 4 in
        let v = match phase with 0 -> 1. | 1 -> 2. | 2 -> 3. | _ -> 2. in
        (t, v))
  in
  (match oscillation series with
  | None -> Alcotest.fail "oscillation is defined"
  | Some o ->
    Alcotest.(check (float 1e-9)) "amplitude is half peak-to-peak" 1. o.Analyze.amplitude;
    (match o.Analyze.period with
    | None -> Alcotest.fail "period is defined with many maxima"
    | Some p -> Alcotest.(check (float 1e-9)) "period from local maxima spacing" 4. p));
  Alcotest.(check bool) "single sample has no oscillation" true (oscillation [ (0., 1.) ] = None);
  match oscillation (List.init 16 (fun i -> (float_of_int i, 5.))) with
  | None -> Alcotest.fail "flat series still has amplitude 0"
  | Some o ->
    Alcotest.(check (float 0.)) "flat series amplitude" 0. o.Analyze.amplitude;
    Alcotest.(check bool) "flat series has no maxima" true (o.Analyze.period = None)

let test_dispersion_and_episodes () =
  (* Second half of the series is constant: dispersion 0. *)
  Alcotest.(check (float 0.)) "constant tail" 0.
    (dispersion [ (0., 9.); (1., 9.); (2., 5.); (3., 5.) ]);
  (* Tail {4, 6}: population stddev 1. *)
  Alcotest.(check (float 1e-9)) "two-point tail" 1.
    (dispersion [ (0., 0.); (1., 0.); (2., 4.); (3., 6.) ]);
  let series = [ (0., 0.5); (1., 1.5); (2., 1.2); (3., 0.9); (4., 2.0) ] in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "maximal above-threshold intervals; open episode closes at stream end"
    [ (1., 2.); (4., 4.) ]
    (Analyze.episodes series)

let test_analyze_report_on_live_run () =
  let obs = Lla_obs.create ~spans:true () in
  let sink, collected = Trace.memory_sink () in
  Trace.attach obs.Lla_obs.trace sink;
  let engine = Lla_sim.Engine.create () in
  let d = Distributed.create ~obs engine (Lla_workloads.Paper_sim.base ()) in
  Distributed.run d ~duration:5000.;
  Distributed.stop d;
  let records = collected () in
  let r = Analyze.analyze ~optimum:183.270438 records in
  Alcotest.(check int) "report counts the records" (List.length records) r.Analyze.records;
  Alcotest.(check bool) "spans counted" true (r.Analyze.span_count > 0);
  (match r.Analyze.final_utility with
  | None -> Alcotest.fail "distributed stream yields a utility series"
  | Some u ->
    Alcotest.(check bool)
      (Printf.sprintf "final utility %g within 1.5%% of the offline optimum" u)
      true
      (Float.abs (u -. 183.270438) /. 183.270438 <= 0.015));
  Alcotest.(check bool) "settling time found" true (r.Analyze.settling <> None);
  Alcotest.(check bool) "every resource reported" true (List.length r.Analyze.resources > 0);
  (match r.Analyze.control_latency with
  | None -> Alcotest.fail "span stream yields control latencies"
  | Some l ->
    Alcotest.(check bool) "positive sample count" true (l.Analyze.count > 0);
    Alcotest.(check bool) "quantiles ordered" true
      (l.Analyze.p50 <= l.Analyze.p90 && l.Analyze.p90 <= l.Analyze.p99
     && l.Analyze.p99 <= l.Analyze.max +. 1e-9));
  let text = Analyze.render r in
  List.iter
    (fun needle ->
      let n = String.length needle in
      let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
      Alcotest.(check bool) (Printf.sprintf "render mentions %S" needle) true (go 0))
    [ "records"; "utility"; "settling"; "control latency" ]

(* ------------------------------------------------------------------ *)
(* Profile                                                             *)
(* ------------------------------------------------------------------ *)

(* A fake clock the test advances by hand makes the accounting exact. *)
let fake_clock () =
  let now = ref 0. in
  ((fun () -> !now), fun dt -> now := !now +. dt)

let stat p name =
  List.find_opt (fun (s : Profile.stat) -> s.Profile.path = name) (Profile.stats p)

let test_profile_nesting () =
  let clock, advance = fake_clock () in
  let p = Profile.create ~clock () in
  Profile.time p "outer" (fun () ->
      advance 1.;
      Profile.time p "inner" (fun () -> advance 2.);
      Profile.time p "inner" (fun () -> advance 3.);
      advance 4.);
  (match stat p [ "outer" ] with
  | None -> Alcotest.fail "outer phase recorded"
  | Some s ->
    Alcotest.(check (float 1e-9)) "outer total includes children" 10. s.Profile.seconds;
    Alcotest.(check int) "outer called once" 1 s.Profile.count);
  (match stat p [ "outer"; "inner" ] with
  | None -> Alcotest.fail "inner nests under outer"
  | Some s ->
    Alcotest.(check (float 1e-9)) "inner accumulates across calls" 5. s.Profile.seconds;
    Alcotest.(check int) "inner called twice" 2 s.Profile.count);
  let text = Profile.report p in
  Alcotest.(check bool) "report shows the self row" true
    (let needle = "(self)" in
     let n = String.length needle in
     let rec go i = i + n <= String.length text && (String.sub text i n = needle || go (i + 1)) in
     go 0)

let test_profile_exception_safety () =
  let clock, advance = fake_clock () in
  let p = Profile.create ~clock () in
  (try
     Profile.time p "outer" (fun () ->
         Profile.time p "boom" (fun () ->
             advance 1.;
             failwith "boom"))
   with Failure _ -> ());
  (match stat p [ "outer"; "boom" ] with
  | None -> Alcotest.fail "raising phase still recorded"
  | Some s -> Alcotest.(check (float 1e-9)) "raising phase charged" 1. s.Profile.seconds);
  (* The frame was popped: new phases land at the top level again. *)
  Profile.time p "after" (fun () -> advance 1.);
  Alcotest.(check bool) "frame popped on raise" true (stat p [ "after" ] <> None)

let test_profile_disabled_and_reset () =
  let p = Profile.disabled () in
  Alcotest.(check bool) "disabled()" false (Profile.enabled p);
  let r = Profile.time p "phase" (fun () -> 42) in
  Alcotest.(check int) "thunk still runs" 42 r;
  Alcotest.(check int) "nothing recorded while disabled" 0 (List.length (Profile.stats p));
  Profile.set_enabled p true;
  Profile.time p "phase" (fun () -> ());
  Alcotest.(check int) "recording after enable" 1 (List.length (Profile.stats p));
  Profile.reset p;
  Alcotest.(check int) "reset drops the tree" 0 (List.length (Profile.stats p));
  Alcotest.(check bool) "reset keeps the flag" true (Profile.enabled p)

(* ------------------------------------------------------------------ *)
(* Span well-formedness invariant                                      *)
(* ------------------------------------------------------------------ *)

let test_spans_well_formed_oracle () =
  Alcotest.(check bool) "hand-built chain is well-formed" true
    (Lla_obs.Invariant.spans_well_formed chain_stream);
  let bad_kind = [ span ~at:1. ~id:0 ~parent:(-1) ~trace:0 ~kind:"mystery" ] in
  Alcotest.(check bool) "unknown kind rejected" false
    (Lla_obs.Invariant.spans_well_formed bad_kind);
  let bad_order =
    [
      span ~at:1. ~id:5 ~parent:(-1) ~trace:5 ~kind:"price";
      span ~at:2. ~id:3 ~parent:(-1) ~trace:3 ~kind:"price";
    ]
  in
  Alcotest.(check bool) "non-increasing ids rejected" false
    (Lla_obs.Invariant.spans_well_formed bad_order);
  let cross_trace =
    [
      span ~at:1. ~id:0 ~parent:(-1) ~trace:0 ~kind:"price";
      span ~at:2. ~id:1 ~parent:0 ~trace:9 ~kind:"msg";
    ]
  in
  Alcotest.(check bool) "child in a different trace rejected" false
    (Lla_obs.Invariant.spans_well_formed cross_trace)

let () =
  Alcotest.run "lla_analysis"
    [
      ( "causal",
        [
          Alcotest.test_case "control latencies" `Quick test_causal_control_latencies;
          Alcotest.test_case "non-span records ignored" `Quick test_causal_ignores_non_span_records;
          Alcotest.test_case "online and offline views agree" `Slow test_online_offline_agree;
        ] );
      ( "series",
        [
          Alcotest.test_case "utility from iterations" `Quick test_series_utility_from_iterations;
          Alcotest.test_case "utility rebuilt from distributed solves" `Quick
            test_series_utility_distributed_rebuild;
          Alcotest.test_case "prices and congestion" `Quick test_series_prices_and_congestion;
          Alcotest.test_case "jsonl file round-trip" `Quick test_series_jsonl_file_roundtrip;
          Alcotest.test_case "bad line reported with position" `Quick
            test_series_load_reports_bad_line;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "settling time" `Quick test_settling_time;
          Alcotest.test_case "oscillation" `Quick test_oscillation;
          Alcotest.test_case "dispersion and episodes" `Quick test_dispersion_and_episodes;
          Alcotest.test_case "full report on a live run" `Slow test_analyze_report_on_live_run;
        ] );
      ( "profile",
        [
          Alcotest.test_case "nesting and totals" `Quick test_profile_nesting;
          Alcotest.test_case "exception safety" `Quick test_profile_exception_safety;
          Alcotest.test_case "disabled and reset" `Quick test_profile_disabled_and_reset;
        ] );
      ( "invariants",
        [ Alcotest.test_case "span well-formedness oracle" `Quick test_spans_well_formed_oracle ] );
    ]
