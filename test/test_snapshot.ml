(* The bench snapshot judge (bench/snapshot.ml): one fixture pair per
   rule, each written by the snapshot writer and judged by
   [Snapshot.compare_dirs] exactly as [bench/main.exe compare] does, and
   the committed BENCH_*.json history judged against itself. *)

module S = Snapshot

let stamp ~ocaml ~cores =
  S.
    [
      str "name" "t";
      str ~judge:Compiler "ocaml" ocaml;
      int ~judge:Info "cores" cores;
      int "seed" 42;
    ]

let snapshot ?(ocaml = "5.1.1") ?(cores = 2) fields = S.render (stamp ~ocaml ~cores @ fields)

let write dir text =
  Out_channel.with_open_bin (Filename.concat dir "BENCH_t.json") (fun oc -> output_string oc text)

(* Judges [fresh] against [base] (each written as BENCH_t.json in a
   directory of its own; [None] leaves the fresh directory empty): the
   verdict and the lines printed. *)
let judge base fresh =
  let base_dir = Filename.temp_dir "lla_bench_base" "" in
  let fresh_dir = Filename.temp_dir "lla_bench_fresh" "" in
  write base_dir base;
  Option.iter (write fresh_dir) fresh;
  let lines = ref [] in
  let verdict =
    S.compare_dirs ~out:(fun l -> lines := l :: !lines) ~fresh:fresh_dir ~base:base_dir
  in
  List.iter
    (fun dir ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    [ base_dir; fresh_dir ];
  (verdict, List.rev !lines)

let verdict = Alcotest.(result bool string)

let check what expected_verdict expected_lines (got_verdict, got_lines) =
  Alcotest.check verdict (what ^ ": verdict") expected_verdict got_verdict;
  Alcotest.(check (list string)) (what ^ ": lines") expected_lines got_lines

let ok = "  ok    BENCH_t.json"

let fail msg = "  FAIL  BENCH_t.json: " ^ msg

let ticks n = S.int "ticks" n

let rate ?(fmt = format_of_string "%.1f") x = S.num ~judge:(S.Perf 4.) "rate" fmt x

let test_exact () =
  check "same value" (Ok true) [ ok ]
    (judge (snapshot [ ticks 51 ]) (Some (snapshot [ ticks 51 ])));
  check "changed value" (Ok false)
    [ fail "ticks = 52, committed snapshot has 51" ]
    (judge (snapshot [ ticks 51 ]) (Some (snapshot [ ticks 52 ])))

let test_perf_band () =
  let pair b f = judge (snapshot [ rate b ]) (Some (snapshot [ rate f ])) in
  check "x3 inside the band" (Ok true) [ ok ] (pair 100. 300.);
  check "x5 past the band" (Ok false)
    [ fail "rate = 500 drifted beyond 4x of committed 100" ]
    (pair 100. 500.);
  check "zero against non-zero" (Ok false)
    [ fail "rate = 100 drifted beyond 4x of committed 0" ]
    (pair 0. 100.);
  check "both below 1e-6" (Ok true) [ ok ]
    (judge (snapshot [ rate ~fmt:"%g" 0. ]) (Some (snapshot [ rate ~fmt:"%g" 5e-7 ])))

let test_cores_differ () =
  check "perf skipped, exact judged" (Ok false)
    [
      fail "ticks = 52, committed snapshot has 51";
      "  note  BENCH_t.json: cores differ (2 vs 8), perf keys skipped: rate";
    ]
    (judge (snapshot [ ticks 51; rate 100. ]) (Some (snapshot ~cores:8 [ ticks 52; rate 1000. ])))

let test_compiler_differs () =
  check "file skipped" (Ok true)
    [ "  skip  BENCH_t.json: compiler differs (4.14.2 vs 5.1.1)" ]
    (judge (snapshot ~ocaml:"4.14.2" [ ticks 51 ]) (Some (snapshot [ ticks 52 ])))

let test_missing_and_new_keys () =
  let info = S.int ~judge:S.Info "peak_rss_kb" 1024 in
  check "missing key" (Ok false)
    [ fail "key \"rate\" missing from fresh run" ]
    (judge (snapshot [ ticks 51; rate 100. ]) (Some (snapshot [ ticks 51 ])));
  check "new key" (Ok false)
    [ fail "new key \"rate\" absent from committed snapshot (regenerate it)" ]
    (judge (snapshot [ ticks 51 ]) (Some (snapshot [ ticks 51; rate 100. ])));
  check "missing and new info keys" (Ok true) [ ok ]
    (judge (snapshot [ ticks 51; info ]) (Some (snapshot [ ticks 51 ])));
  check "new info key" (Ok true) [ ok ]
    (judge (snapshot [ ticks 51 ]) (Some (snapshot [ ticks 51; info ])))

let test_judge_differs () =
  check "band changed" (Ok false)
    [
      fail
        "key \"rate\" judged {\"perf\": 6}, committed snapshot says {\"perf\": 4} (regenerate it)";
    ]
    (judge (snapshot [ rate 100. ])
       (Some (snapshot [ S.num ~judge:(S.Perf 6.) "rate" "%.1f" 100. ])));
  check "exact turned info" (Ok false)
    [ fail "key \"ticks\" judged \"info\", committed snapshot says \"exact\" (regenerate it)" ]
    (judge (snapshot [ ticks 51 ]) (Some (snapshot [ S.int ~judge:S.Info "ticks" 51 ])))

let test_nothing_to_judge () =
  let base_dir = Filename.temp_dir "lla_bench_base" "" in
  let missing = Filename.concat base_dir "missing" in
  check "missing fresh directory"
    (Error (Printf.sprintf "fresh directory '%s' does not exist" missing))
    []
    (let lines = ref [] in
     let v = S.compare_dirs ~out:(fun l -> lines := l :: !lines) ~fresh:missing ~base:base_dir in
     (v, !lines));
  Sys.rmdir base_dir;
  match judge (snapshot [ ticks 51 ]) None with
  | Error "no committed BENCH_*.json had a fresh counterpart", [ skip ] ->
    Alcotest.(check bool)
      "skip line" true
      (String.starts_with ~prefix:"  skip  BENCH_t.json: no fresh run in " skip)
  | _ -> Alcotest.fail "no common snapshot must be an error"

(* The history at the repository root: every snapshot parses, declares
   its judges, and passes against itself. *)
let test_committed_snapshots () =
  let lines = ref [] in
  let v = S.compare_dirs ~out:(fun l -> lines := l :: !lines) ~fresh:".." ~base:".." in
  Alcotest.check verdict "all pass" (Ok true) v;
  let is_snapshot f = String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json" in
  Alcotest.(check int) "one verdict per snapshot"
    (List.length (List.filter is_snapshot (Array.to_list (Sys.readdir ".."))))
    (List.length !lines);
  List.iter
    (fun l ->
      if not (String.starts_with ~prefix:"  ok    BENCH_" l) then Alcotest.failf "not ok: %s" l)
    !lines

let () =
  Alcotest.run "bench_snapshot"
    [
      ( "judge",
        [
          Alcotest.test_case "exact key changed" `Quick test_exact;
          Alcotest.test_case "perf band" `Quick test_perf_band;
          Alcotest.test_case "cores differ" `Quick test_cores_differ;
          Alcotest.test_case "compiler differs" `Quick test_compiler_differs;
          Alcotest.test_case "missing and new keys" `Quick test_missing_and_new_keys;
          Alcotest.test_case "declared judge differs" `Quick test_judge_differs;
          Alcotest.test_case "nothing to judge" `Quick test_nothing_to_judge;
          Alcotest.test_case "committed snapshots" `Quick test_committed_snapshots;
        ] );
    ]
