(* Unit and property tests for the lla_stdx utility library. *)

open Lla_stdx

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

let check_float = Alcotest.(check (float 1e-9))

let check_floatish msg = Alcotest.(check (float 1e-6)) msg

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 a) (Rng.int64 b)) then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_split_independent () =
  let parent = Rng.create ~seed:7 in
  let child = Rng.split parent in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Rng.int64 parent) (Rng.int64 child)) then differs := true
  done;
  Alcotest.(check bool) "split stream differs" true !differs

let test_rng_float_range () =
  let rng = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0. && x < 1.)
  done

let test_rng_int_range () =
  let rng = Rng.create ~seed:13 in
  let seen = Array.make 7 false in
  for _ = 1 to 2000 do
    let x = Rng.int rng ~bound:7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_invalid () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound <= 0") (fun () ->
      ignore (Rng.int rng ~bound:0))

let test_rng_exponential_mean () =
  let rng = Rng.create ~seed:5 in
  let stats = Stats.create () in
  for _ = 1 to 20_000 do
    Stats.add stats (Rng.exponential rng ~rate:0.5)
  done;
  (* mean should be ~2 within a few percent at n=20k *)
  Alcotest.(check bool) "exponential mean near 1/rate" true
    (Float.abs (Stats.mean stats -. 2.) < 0.1)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:29 in
  let a = Array.init 20 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation" (Array.init 20 Fun.id) sorted

(* Pins the seed-42 stream bit for bit: every draw kind, and a split
   child interleaved with its parent. Bounds up to 2^62 take the
   rejection branch of [int] now and then. *)
let test_rng_stream_digest () =
  let b = Buffer.create 4096 in
  let int n = Buffer.add_int64_le b (Int64.of_int n) in
  let float x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let rng = Rng.create ~seed:42 in
  for i = 1 to 200 do
    Buffer.add_int64_le b (Rng.int64 rng);
    float (Rng.float rng);
    int (Rng.int rng ~bound:i);
    int (Rng.int rng ~bound:((1 lsl 62) - (i * 7919)));
    int (Bool.to_int (Rng.bool rng));
    float (Rng.uniform rng ~lo:(-3.) ~hi:(float_of_int i))
  done;
  let child = Rng.split rng in
  for _ = 1 to 100 do
    Buffer.add_int64_le b (Rng.int64 child);
    float (Rng.exponential rng ~rate:0.5)
  done;
  let a = Array.init 50 Fun.id in
  Rng.shuffle child a;
  Array.iter int a;
  int (Rng.pick child a);
  Buffer.add_int64_le b (Rng.int64 child);
  Alcotest.(check string)
    "seed-42 mixed stream" "4dbeba2acff59875706e11470662094e"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* Minor words per draw, by the kernel zero-alloc test's method: the
   delta of N draws against that of an empty probe. [Gc.minor_words] boxes
   its own result, which the empty probe cancels. *)
let words_per_draw draw =
  let probe n =
    let before = Gc.minor_words () in
    draw n;
    Gc.minor_words () -. before
  in
  let empty = probe 0 in
  (probe 1000 -. empty) /. 1000.

let test_rng_allocation () =
  let rng = Rng.create ~seed:42 in
  let budget name words draw =
    let got = words_per_draw draw in
    if got > words then
      Alcotest.failf "%s allocates %.2f words per draw (budget %.0f)" name got words
  in
  budget "int" 0. (fun n ->
      for i = 1 to n do
        ignore (Rng.int rng ~bound:i)
      done);
  budget "bool" 0. (fun n ->
      for _ = 1 to n do
        ignore (Rng.bool rng)
      done);
  (* a boxed float is 2 words; a boxed int64 3 *)
  budget "float" 2. (fun n ->
      for _ = 1 to n do
        ignore (Rng.float rng)
      done);
  budget "uniform" 2. (fun n ->
      for _ = 1 to n do
        ignore (Rng.uniform rng ~lo:1. ~hi:2.)
      done);
  budget "int64" 3. (fun n ->
      for _ = 1 to n do
        ignore (Rng.int64 rng)
      done)

let prop_rng_uniform_in_range =
  QCheck.Test.make ~name:"rng: uniform stays in [lo, hi)"
    QCheck.(pair (float_bound_exclusive 100.) (float_bound_exclusive 100.))
    (fun (a, b) ->
      let lo = Float.min a b and hi = Float.max a b +. 1. in
      let rng = Rng.create ~seed:(int_of_float (a +. b)) in
      let x = Rng.uniform rng ~lo ~hi in
      x >= lo && x < hi)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)
(* ------------------------------------------------------------------ *)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check int) "count" 0 (Stats.summary s).n;
  check_float "mean" 0. (Stats.mean s);
  check_float "stddev" 0. (Stats.stddev s)

let test_stats_known_values () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_floatish "mean" 5. (Stats.mean s);
  (* sample variance of that classic set is 32/7 *)
  check_floatish "stddev" (sqrt (32. /. 7.)) (Stats.stddev s);
  let summary = Stats.summary s in
  check_float "min" 2. summary.min;
  check_float "max" 9. (Stats.max s);
  check_float "sum" 40. summary.sum

let prop_stats_mean_bounded =
  QCheck.Test.make ~name:"stats: min <= mean <= max"
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.))
    (fun xs ->
      let s = Stats.create () in
      List.iter (Stats.add s) xs;
      (Stats.summary s).min <= Stats.mean s +. 1e-9 && Stats.mean s <= Stats.max s +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Percentile                                                          *)
(* ------------------------------------------------------------------ *)

let test_percentile_exact_simple () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "p0" 1. (Percentile.exact xs ~p:0.);
  check_float "p50" 3. (Percentile.exact xs ~p:50.);
  check_float "p100" 5. (Percentile.exact xs ~p:100.);
  check_float "p25" 2. (Percentile.exact xs ~p:25.)

let test_percentile_interpolation () =
  let xs = [| 10.; 20. |] in
  check_float "p50 interpolates" 15. (Percentile.exact xs ~p:50.)

let test_percentile_single () = check_float "single" 7. (Percentile.exact [| 7. |] ~p:83.)

let test_percentile_unsorted_input () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "p50 of unsorted" 3. (Percentile.exact xs ~p:50.);
  Alcotest.(check (array (float 0.))) "input not mutated" [| 5.; 1.; 3.; 2.; 4. |] xs

let test_percentile_errors () =
  Alcotest.check_raises "empty" (Invalid_argument "Percentile.exact: empty array") (fun () ->
      ignore (Percentile.exact [||] ~p:50.));
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Percentile.exact: p outside [0, 100]") (fun () ->
      ignore (Percentile.exact [| 1. |] ~p:101.))

let test_window_eviction () =
  let w = Percentile.Window.create ~capacity:3 in
  Alcotest.(check (option (float 0.))) "empty" None (Percentile.Window.percentile w ~p:50.);
  List.iter (Percentile.Window.add w) [ 1.; 2.; 3.; 100. ];
  (* window now holds 2, 3, 100 *)
  Alcotest.(check int) "count capped" 3 (Percentile.Window.count w);
  Alcotest.(check (option (float 1e-9))) "median after eviction" (Some 3.)
    (Percentile.Window.percentile w ~p:50.)

let test_window_clear () =
  let w = Percentile.Window.create ~capacity:4 in
  Percentile.Window.add w 5.;
  Percentile.Window.clear w;
  Alcotest.(check int) "cleared" 0 (Percentile.Window.count w)

(* The window against a list of the samples since the last clear: it
   holds the newest [capacity] of them, across the buffer's doublings
   (capacities above and below its 16-sample start) and clears. *)
let prop_window_matches_model =
  QCheck.Test.make ~count:100 ~name:"window: holds the newest samples across growth and clears"
    QCheck.(
      pair (int_range 1 100)
        (list_of_size Gen.(0 -- 400) (option ~ratio:0.98 (float_bound_inclusive 1000.))))
    (fun (capacity, ops) ->
      let w = Percentile.Window.create ~capacity in
      let model = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Some x ->
            Percentile.Window.add w x;
            model := x :: !model
          | None ->
            Percentile.Window.clear w;
            model := []);
          let held = List.filteri (fun i _ -> i < capacity) !model in
          Percentile.Window.count w = List.length held
          && List.for_all
               (fun p ->
                 Percentile.Window.percentile w ~p
                 = (if held = [] then None else Some (Percentile.exact (Array.of_list held) ~p)))
               [ 0.; 50.; 99.; 100. ])
        ops)

(* ------------------------------------------------------------------ *)
(* Ewma                                                                *)
(* ------------------------------------------------------------------ *)

let test_ewma_first_sample () =
  let e = Ewma.create ~alpha:0.25 in
  Ewma.add e 10.;
  check_float "first sample taken as-is" 10. (Ewma.value e)

let test_ewma_smoothing () =
  let e = Ewma.create ~alpha:0.5 in
  Ewma.add e 10.;
  Ewma.add e 20.;
  check_float "0.5 * 20 + 0.5 * 10" 15. (Ewma.value e);
  Ewma.add e 0.;
  check_float "0.5 * 0 + 0.5 * 15" 7.5 (Ewma.value e)

let test_ewma_invalid_alpha () =
  Alcotest.check_raises "alpha 0" (Invalid_argument "Ewma.create: alpha outside (0, 1]")
    (fun () -> ignore (Ewma.create ~alpha:0.))

let prop_ewma_bounded =
  QCheck.Test.make ~name:"ewma: stays within min/max of samples"
    QCheck.(list_of_size Gen.(1 -- 60) (float_bound_inclusive 50.))
    (fun xs ->
      let e = Ewma.create ~alpha:0.3 in
      List.iter (Ewma.add e) xs;
      let lo = List.fold_left Float.min infinity xs in
      let hi = List.fold_left Float.max neg_infinity xs in
      Ewma.value e >= lo -. 1e-9 && Ewma.value e <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Series                                                              *)
(* ------------------------------------------------------------------ *)

let fill_series pts =
  let s = Series.create () in
  List.iter (fun (x, y) -> Series.add s ~x ~y) pts;
  s

let test_series_basic () =
  let s = fill_series [ (1., 10.); (2., 20.); (3., 30.) ] in
  Alcotest.(check int) "length" 3 (Series.length s);
  Alcotest.(check (option (pair (float 0.) (float 0.)))) "last" (Some (3., 30.)) (Series.last s)

let test_series_downsample_keeps_ends () =
  let s = fill_series (List.init 100 (fun i -> (float_of_int i, float_of_int (i * i)))) in
  let points = Series.downsample s ~max_points:10 in
  Alcotest.(check int) "10 points" 10 (List.length points);
  Alcotest.(check (float 0.)) "first kept" 0. (fst (List.hd points));
  Alcotest.(check (float 0.)) "last kept" 99. (fst (List.nth points 9))

let test_series_downsample_short () =
  let s = fill_series [ (1., 1.); (2., 2.) ] in
  Alcotest.(check int) "no padding" 2 (List.length (Series.downsample s ~max_points:10))

let test_series_converged_at () =
  (* 20 noisy samples then 80 flat ones. *)
  let pts =
    List.init 100 (fun i ->
        let y = if i < 20 then float_of_int (100 - (i * 5)) else 10. in
        (float_of_int i, y))
  in
  let s = fill_series pts in
  match Series.converged_at s ~tolerance:0.01 ~window:10 with
  | None -> Alcotest.fail "expected convergence"
  | Some i -> Alcotest.(check bool) (Printf.sprintf "converges near 20 (got %d)" i) true (i >= 18 && i <= 25)

let test_series_never_converges () =
  let pts = List.init 100 (fun i -> (float_of_int i, if i mod 2 = 0 then 0. else 100.)) in
  Alcotest.(check (option int)) "oscillation" None
    (Series.converged_at (fill_series pts) ~tolerance:0.01 ~window:10)

let test_series_y_stats_from () =
  let s = fill_series [ (0., 1.); (1., 2.); (2., 3.); (3., 4.) ] in
  let stats = Series.y_stats_from s ~from:2 in
  Alcotest.(check int) "n" 2 stats.Stats.n;
  check_float "mean of tail" 3.5 stats.Stats.mean


(* ------------------------------------------------------------------ *)
(* Table / Csv / Ascii_plot                                            *)
(* ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Table.create ~columns:[ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0
    && contains rendered "name"
    && contains rendered "alpha"
    && contains rendered "22")

let test_table_width_mismatch () =
  let t = Table.create ~columns:[ ("a", Table.Left) ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: row width differs from header")
    (fun () -> Table.add_row t [ "x"; "y" ])

let csv_lines ~header ~rows =
  let path = Filename.temp_file "lla_test" ".csv" in
  Csv.write ~path ~header ~rows;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  List.rev !lines

let test_csv_escape () =
  Alcotest.(check (list string))
    "plain, comma, quote" [ "abc,\"a,b\",\"a\"\"b\"" ]
    (csv_lines ~header:[ "abc"; "a,b"; "a\"b" ] ~rows:[]);
  Alcotest.(check (list string))
    "row" [ "h,i"; "a,\"b,c\"" ]
    (csv_lines ~header:[ "h"; "i" ] ~rows:[ [ "a"; "b,c" ] ])

let test_csv_write_roundtrip () =
  Alcotest.(check (list string))
    "content" [ "x,y"; "1,2"; "3,4" ]
    (csv_lines ~header:[ "x"; "y" ] ~rows:[ [ "1"; "2" ]; [ "3"; "4" ] ])

let test_ascii_plot_nonempty () =
  let out = Ascii_plot.render ~title:"test" [ ("a", [ (0., 0.); (1., 1.) ]) ] in
  Alcotest.(check bool) "has legend" true (contains out "legend");
  Alcotest.(check bool) "has title" true (contains out "test")

let test_ascii_plot_empty () =
  let out = Ascii_plot.render [ ("a", []) ] in
  Alcotest.(check bool) "placeholder" true (contains out "no data")

(* ------------------------------------------------------------------ *)

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "lla_stdx"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int range and coverage" `Quick test_rng_int_range;
          Alcotest.test_case "int invalid bound" `Quick test_rng_int_invalid;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "seed-42 stream digest" `Quick test_rng_stream_digest;
          Alcotest.test_case "draws allocate at most their result" `Quick test_rng_allocation;
        ]
        @ qcheck [ prop_rng_uniform_in_range ] );
      ( "stats",
        [
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "known values" `Quick test_stats_known_values;
        ]
        @ qcheck [ prop_stats_mean_bounded ] );
      ( "percentile",
        [
          Alcotest.test_case "exact simple" `Quick test_percentile_exact_simple;
          Alcotest.test_case "interpolation" `Quick test_percentile_interpolation;
          Alcotest.test_case "single sample" `Quick test_percentile_single;
          Alcotest.test_case "unsorted input untouched" `Quick test_percentile_unsorted_input;
          Alcotest.test_case "errors" `Quick test_percentile_errors;
          Alcotest.test_case "window eviction" `Quick test_window_eviction;
          Alcotest.test_case "window clear" `Quick test_window_clear;
        ]
        @ qcheck [ prop_window_matches_model ] );
      ( "ewma",
        [
          Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "smoothing" `Quick test_ewma_smoothing;
          Alcotest.test_case "invalid alpha" `Quick test_ewma_invalid_alpha;
        ]
        @ qcheck [ prop_ewma_bounded ] );
      ( "series",
        [
          Alcotest.test_case "basic" `Quick test_series_basic;
          Alcotest.test_case "downsample keeps endpoints" `Quick test_series_downsample_keeps_ends;
          Alcotest.test_case "downsample short series" `Quick test_series_downsample_short;
          Alcotest.test_case "converged_at finds settle point" `Quick test_series_converged_at;
          Alcotest.test_case "oscillation never converges" `Quick test_series_never_converges;
          Alcotest.test_case "tail statistics" `Quick test_series_y_stats_from;
        ] );
      ( "table-csv-plot",
        [
          Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "table width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "csv escaping" `Quick test_csv_escape;
          Alcotest.test_case "csv write" `Quick test_csv_write_roundtrip;
          Alcotest.test_case "ascii plot renders" `Quick test_ascii_plot_nonempty;
          Alcotest.test_case "ascii plot empty" `Quick test_ascii_plot_empty;
        ] );
    ]
