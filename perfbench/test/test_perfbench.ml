(* Tests for the benchmark's own statistics: the percentile helper and
   its ten-beyond rule, per-part percentiles and rates, median and
   quartiles, span parents under nesting, self time under nested
   profiler phases and the ledger's closure, failure accounting, and
   the metric list against BENCHMARK.json. *)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. Float.max 1. (Float.abs b)

let check_float msg expected actual =
  if not (close expected actual) then Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let range n = Array.init n (fun i -> float_of_int (i + 1))

let shuffled n =
  let a = range n in
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let test_percentile_refuses_short_tails () =
  (match Stats.percentile (range 999) ~p:99. with
  | Ok v -> Alcotest.failf "p99 of 999 samples has 9 beyond it, yet returned %g" v
  | Error _ -> ());
  (match Stats.percentile (range 19) ~p:50. with
  | Ok v -> Alcotest.failf "p50 of 19 samples has 9 beyond it, yet returned %g" v
  | Error _ -> ());
  match Stats.percentile [||] ~p:50. with
  | Ok _ -> Alcotest.fail "percentile of nothing"
  | Error _ -> ()

let test_percentile_nearest_rank () =
  (match Stats.percentile (shuffled 1000) ~p:99. with
  | Ok v -> check_float "p99 of 1..1000" 990. v
  | Error e -> Alcotest.fail e);
  (match Stats.percentile (shuffled 20) ~p:50. with
  | Ok v -> check_float "p50 of 1..20" 10. v
  | Error e -> Alcotest.fail e);
  match Stats.percentile (shuffled 2000) ~p:99.5 with
  | Ok v -> check_float "p99.5 of 1..2000" 1990. v
  | Error e -> Alcotest.fail e

let test_parts () =
  Alcotest.(check (list (pair int int))) "short runs are one part" [ (0, 999) ] (Stats.parts 999);
  Alcotest.(check (list (pair int int)))
    "2500 samples, two parts" [ (0, 1250); (1250, 1250) ] (Stats.parts 2500);
  Alcotest.(check int) "at most five parts" Stats.max_parts (List.length (Stats.parts 70_000));
  (* two parts: 1..1000 and 1001..2000, each with its own p99 *)
  let xs = range 2000 in
  (match Stats.part_percentiles xs ~p:99. with
  | Ok vs -> Alcotest.(check (array (float 1e-9))) "per-part p99" [| 990.; 1990. |] vs
  | Error e -> Alcotest.fail e);
  (match Stats.part_percentiles (range 1999) ~p:99. with
  | Ok vs -> Alcotest.(check int) "1999 samples make one part" 1 (Array.length vs)
  | Error e -> Alcotest.fail e);
  (match Stats.part_percentiles (range 999) ~p:99. with
  | Ok _ -> Alcotest.fail "999 samples carry no p99"
  | Error _ -> ());
  (* 1000 ops of 1 ms, then 1000 batches of 2 units in 1 ms *)
  let walls = Array.make 2000 1e-3 in
  match Stats.part_rates walls ~per_sample:(fun i -> if i < 1000 then 1. else 2.) with
  | Ok vs -> Alcotest.(check (array (float 1e-6))) "per-part rates" [| 1000.; 2000. |] vs
  | Error e -> Alcotest.fail e

let test_median () =
  check_float "odd" 3. (Stats.median [| 5.; 1.; 3.; 4.; 2. |]);
  check_float "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  check_float "single" 7. (Stats.median [| 7. |]);
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: no samples") (fun () ->
      ignore (Stats.median [||]))

(* expected values from Python: statistics.quantiles(xs, n=4) *)
let test_quartiles_match_python () =
  let q xs = Stats.quartiles xs in
  let expect msg (e1, e2, e3) xs =
    let a1, a2, a3 = q xs in
    check_float (msg ^ " q1") e1 a1;
    check_float (msg ^ " q2") e2 a2;
    check_float (msg ^ " q3") e3 a3
  in
  expect "1..10" (2.75, 5.5, 8.25) (shuffled 10);
  expect "1..5" (1.5, 3., 4.5) (range 5);
  expect "1..4" (1.25, 2.5, 3.75) (range 4);
  expect "two" (0.75, 1.5, 2.25) [| 1.; 2. |];
  expect "ten values" (10.75, 12., 13.) [| 10.; 11.; 12.; 13.; 13.; 12.; 11.; 14.; 13.; 10. |];
  check_float "iqr share 1..10" ((8.25 -. 2.75) /. 5.5) (Stats.iqr_share (range 10))

let test_spans_nesting () =
  let now = ref 0. in
  let clock () = !now in
  let t = Spans.create ~clock in
  let at v = now := v in
  at 0.;
  Spans.with_span t "root" (fun () ->
      at 1.;
      Spans.with_span t "a" (fun () ->
          at 2.;
          Spans.with_span t "b" (fun () -> at 3.);
          at 4.);
      at 5.;
      Spans.with_span t "c" (fun () -> at 9.);
      Spans.with_span t "a" (fun () -> at 9.5);
      at 10.);
  let spans = Spans.spans t in
  Alcotest.(check (list string))
    "five spans in opening order" [ "root"; "a"; "b"; "c"; "a" ]
    (List.map (fun (s : Spans.span) -> s.name) spans);
  let root = List.hd spans in
  check_float "root wall" 10. (root.stop -. root.start);
  let parent name =
    let s = List.find (fun (s : Spans.span) -> s.name = name) spans in
    s.parent
  in
  let id name = (List.find (fun (s : Spans.span) -> s.name = name) spans).id in
  Alcotest.(check int) "root has no parent" (-1) (parent "root");
  Alcotest.(check int) "b under a" (id "a") (parent "b");
  Alcotest.(check int) "c under root" (id "root") (parent "c")

let test_spans_close_on_raise_and_mark () =
  let now = ref 0. in
  let t = Spans.create ~clock:(fun () -> !now) in
  (try
     Spans.with_span t "outer" (fun () ->
         Spans.mark t "window" ~start:0. ~stop:1.;
         now := 2.;
         Spans.with_span t "inner" (fun () ->
             now := 4.;
             failwith "boom"))
   with Failure _ -> ());
  Spans.with_span t "after" (fun () -> now := 6.);
  let spans = Spans.spans t in
  let find name = List.find (fun (s : Spans.span) -> s.name = name) spans in
  Alcotest.(check int) "all four closed" 4 (List.length spans);
  Alcotest.(check int) "marked interval nests in the open span" (find "outer").id
    (find "window").parent;
  Alcotest.(check int) "raise popped the stack" (-1) (find "after").parent;
  check_float "the marked interval keeps its bounds" 1. ((find "window").stop -. (find "window").start);
  check_float "a raising span closes when it raises" 4. (find "outer").stop

(* The ledger over a profiler driven by a fake clock: library phases
   nest under benchmark phases, and layers plus unattributed time add up
   to the root. *)
let test_ledger_closes () =
  let now = ref 0. in
  let profile = Lla_obs.Profile.create ~clock:(fun () -> !now) () in
  let phase name dt f =
    Lla_obs.Profile.time profile name (fun () ->
        now := !now +. dt;
        f ())
  in
  phase "bench.run" 1. (fun () ->
      phase "kernel.solve" 0.5 (fun () ->
          phase "kernel.step" 0.25 (fun () ->
              phase "allocate" 2. ignore;
              phase "path_prices" 1. ignore));
      phase "distributed.run" 3. (fun () -> phase "price_update" 1. ignore));
  let l = Ledger.of_profile profile in
  let layer name = List.assoc name l.Ledger.layers in
  check_float "allocate" 2. (layer "kernel.allocate");
  check_float "path prices" 1. (layer "kernel.path_prices");
  check_float "step self" 0.25 (layer "kernel.step_self");
  check_float "solve loop" 0.5 (layer "kernel.loop");
  check_float "price update" 1. (layer "distributed.price_update");
  check_float "unattributed: root and run bodies" 4. l.Ledger.unattributed;
  check_float "root" 8.75 l.Ledger.root_total;
  check_float "kernel.step total" 3.25 l.Ledger.step_total;
  let sum, closed = Ledger.closure l ~wall:8.75 in
  check_float "layers + unattributed = wall" 8.75 sum;
  Alcotest.(check bool) "closes" true closed;
  Alcotest.(check bool) "a wrong wall does not close" false (snd (Ledger.closure l ~wall:9.))

let test_failed_share () =
  let t = List.fold_left (fun t ok -> Stats.record t ~ok) (Stats.tally ()) [ true; false; true; true ] in
  Alcotest.(check int) "attempted" 4 t.attempted;
  Alcotest.(check int) "failed" 1 t.failed;
  check_float "failed share" 0.25 (Stats.failed_share t);
  check_float "ok share" 0.75 (Stats.ok_share t);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failed_share: nothing attempted") (fun () ->
      ignore (Stats.failed_share (Stats.tally ())));
  Alcotest.check_raises "more failed than attempted"
    (Invalid_argument "Stats.failed_share: failed outside [0, attempted]") (fun () ->
      ignore (Stats.failed_share { Stats.attempted = 2; failed = 3 }))

(* BENCHMARK.json declares the metrics the program prints. *)
let test_spec_matches_benchmark_json () =
  let module J = Lla_obs.Jsonl in
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  let json = match J.parse text with Ok j -> j | Error e -> Alcotest.fail e in
  let declared key =
    match J.member key json with
    | Some (J.Arr items) ->
        List.map
          (fun item ->
            match
              ( Option.bind (J.member "name" item) J.str,
                Option.bind (J.member "unit" item) J.str )
            with
            | Some n, Some u -> (n, u)
            | _ -> Alcotest.failf "%s: entry without name or unit" key)
          items
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Spec.end_to_end (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Spec.per_layer (declared "per_layer")

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile refuses short tails" `Quick
            test_percentile_refuses_short_tails;
          Alcotest.test_case "percentile is nearest-rank" `Quick test_percentile_nearest_rank;
          Alcotest.test_case "parts" `Quick test_parts;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles_match_python;
          Alcotest.test_case "failed-share accounting" `Quick test_failed_share;
        ] );
      ( "spans",
        [
          Alcotest.test_case "parents under nesting" `Quick test_spans_nesting;
          Alcotest.test_case "close on raise, mark" `Quick test_spans_close_on_raise_and_mark;
          Alcotest.test_case "ledger closes" `Quick test_ledger_closes;
        ] );
      ("spec", [ Alcotest.test_case "matches BENCHMARK.json" `Quick test_spec_matches_benchmark_json ]);
    ]
