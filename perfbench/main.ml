(* perfbench: run one workload with one seed, check its outputs, print
   its metrics.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   --trace 0 prints every end-to-end metric, measured with every hook
   off. --trace 1 runs the same work twice — untraced, then traced — and
   prints the per-layer ledger. The last line of standard output is one
   JSON object {correct, attempted, failed, metrics}; the lines before it
   are a human-readable summary and the provenance stamp. Exit code 0
   when every correctness gate holds, 1 when one fails (the JSON line
   then says correct: false), 2 on bad arguments. *)


let workloads =
  [
    ("kernel_cold", Kernel_cold.run);
    ("soak_churn", Soak_churn.run);
    ("runtime_faulty", Runtime_faulty.run);
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload kernel_cold|soak_churn|runtime_faulty --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let int_arg name v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
        Printf.eprintf "%s: expected an integer, got %S\n" name v;
        usage ()
  in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := Some (int_arg "--seed" v);
        go rest
    | "--seconds" :: v :: rest ->
        seconds := Some (int_arg "--seconds" v);
        go rest
    | "--trace" :: v :: rest ->
        trace := Some (int_arg "--trace" v);
        go rest
    | [] -> ()
    | arg :: _ ->
        Printf.eprintf "unexpected argument %S\n" arg;
        usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some secs, Some t when secs >= 1 && (t = 0 || t = 1) -> (
      match List.assoc_opt w workloads with
      | Some run -> (w, run, s, secs, t = 1)
      | None ->
          Printf.eprintf "unknown workload %S\n" w;
          usage ())
  | _ -> usage ()

let provenance ~workload ~seed ~seconds ~traced =
  let g = Gc.get () in
  Printf.sprintf
    "# provenance {\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"trace\": %d, \"cores\": \
     %d, \"ocaml\": %S, \"word_size\": %d, \"gc\": {\"minor_heap_words\": %d, \
     \"space_overhead\": %d, \"major_heap_increment\": %d, \"allocation_policy\": %d}}"
    workload seed seconds (if traced then 1 else 0)
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size g.Gc.minor_heap_size g.Gc.space_overhead
    g.Gc.major_heap_increment g.Gc.allocation_policy

let per_op num ops = if ops > 0 then num /. float_of_int ops else 0.

let gc_line (r : Report.pass) =
  Printf.sprintf
    "gc over the measured phases: %.2f minor words/op, %.3f promoted words/op, %d minor and %d \
     major collections, %d ops"
    (per_op r.gc.minor_words r.ops) (per_op r.gc.promoted_words r.ops) r.gc.minor_gcs
    r.gc.major_gcs r.ops

let finish ~correct ~tally metrics =
  print_endline (Report.json_line ~correct ~tally metrics);
  exit (if correct then 0 else 1)

let report_gates gates = List.iter (fun g -> Printf.printf "FAIL: %s\n" g) gates

let write_spans ~workload ~seed spans =
  let dir = Filename.concat "_build" "perfbench" in
  try
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ "_build"; dir ];
    let path = Filename.concat dir (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed) in
    let oc = open_out path in
    List.iter (fun s -> output_string oc (Spans.to_json_line s ^ "\n")) spans;
    close_out oc;
    Printf.printf "spans: %d written to %s\n" (List.length spans) path
  with Sys_error e -> Printf.printf "spans: not written (%s)\n" e

let untraced ~run ~seed ~seconds =
  let r = run (Probe.untraced ()) ~seed ~seconds in
  let e2e = r.Report.e2e @ [ ("peak_rss_mb", Probe.peak_rss_mb ()) ] in
  List.iter print_endline r.summary;
  print_endline (gc_line r);
  List.iter
    (fun (name, unit) -> Printf.printf "%s = %s %s\n" name (Report.number (List.assoc name e2e)) unit)
    Spec.end_to_end;
  List.iter
    (fun (name, v) ->
      if not (List.mem_assoc name Spec.end_to_end) then
        Printf.printf "%s = %s (reported, not gated)\n" name (Report.number v))
    r.e2e;
  report_gates r.gates;
  finish ~correct:(r.gates = []) ~tally:r.tally (Report.select Spec.end_to_end e2e)

let traced ~workload ~run ~seed ~seconds =
  (* pass 1: untraced — the wall the overhead is judged against, and the
     program's own allocation without the profiler's clock garbage *)
  let t0 = Clock.now () in
  let (r0 : Report.pass) = run (Probe.untraced ()) ~seed ~seconds in
  let untraced_wall = Clock.now () -. t0 in
  (* pass 2: traced *)
  Gc.full_major ();
  let gc = Gc_pause.start () in
  let p = Probe.traced gc in
  Gc_pause.reset gc;
  let (r : Report.pass) = Probe.span p "bench.run" (fun () -> run p ~seed ~seconds) in
  let pause = Gc_pause.pause_s gc in
  let spans = Spans.spans p.spans in
  let wall =
    match List.find_opt (fun (s : Spans.span) -> s.parent = -1) spans with
    | Some s -> s.stop -. s.start
    | None -> nan
  in
  let ledger = Ledger.of_profile p.profile in
  let sum, closed = Ledger.closure ledger ~wall in
  let gates = ref (r0.gates @ r.gates) in
  if not closed then
    gates :=
      !gates @ [ Printf.sprintf "ledger does not close: layers sum to %.6f s, wall %.6f s" sum wall ];
  List.iter
    (fun (name, v0) ->
      match List.assoc_opt name r.exact with
      | Some v when Int64.bits_of_float v = Int64.bits_of_float v0 -> ()
      | v ->
          gates :=
            !gates
            @ [
                Printf.sprintf "%s differs between the untraced (%g) and traced (%s) pass" name v0
                  (match v with Some v -> Printf.sprintf "%g" v | None -> "missing");
              ])
    r0.exact;
  if Gc_pause.lost gc > 0 then
    Printf.printf "gc events lost to ring wrap: %d (gc.pause_s undercounts)\n" (Gc_pause.lost gc);
  let count name = Option.value (List.assoc_opt name r.counts) ~default:0. in
  let measured =
    List.map (fun (layer, v) -> (layer ^ "_share", v /. wall)) ledger.layers
    @ r.counts
    @ [
        ( "kernel.ns_per_touched_subtask",
          let n = count "kernel.subtasks_touched" in
          if n > 0. then ledger.step_total *. 1e9 /. n else 0. );
        ("trace.records", float_of_int p.records);
        ("trace.records_per_op", per_op (float_of_int p.records) r.ops);
        ("gc.minor_words_per_op", per_op r0.gc.minor_words r0.ops);
        ("gc.promoted_words_per_op", per_op r0.gc.promoted_words r0.ops);
        ("gc.minor_collections", float_of_int r0.gc.minor_gcs);
        ("gc.major_collections", float_of_int r0.gc.major_gcs);
        ("gc.pause_s", pause);
        ("unattributed_s", ledger.unattributed);
        ("traced_wall_s", wall);
        ("tail.tick_us_p99", List.assoc "tick_us_p99" r0.e2e);
        ("tracing_overhead", wall /. untraced_wall);
      ]
  in
  let values =
    List.map
      (fun (name, _) -> (name, Option.value (List.assoc_opt name measured) ~default:0.))
      Spec.per_layer
  in
  List.iter print_endline r0.summary;
  print_endline (gc_line r0);
  Printf.printf "traced wall %.6f s = %.6f s attributed + %.6f s unattributed; untraced %.6f s\n"
    wall (sum -. ledger.unattributed) ledger.unattributed untraced_wall;
  List.iter
    (fun (name, unit) -> Printf.printf "%s = %s %s\n" name (Report.number (List.assoc name values)) unit)
    Spec.per_layer;
  write_spans ~workload ~seed spans;
  report_gates !gates;
  finish ~correct:(!gates = []) ~tally:r0.tally (Report.select Spec.per_layer values)

let () =
  let workload, run, seed, seconds, trace = parse Sys.argv in
  print_endline (provenance ~workload ~seed ~seconds ~traced:trace);
  try
    if trace then traced ~workload ~run ~seed ~seconds
    else untraced ~run ~seed ~seconds
  with
  | Failure e | Invalid_argument e ->
      Printf.eprintf "perfbench: %s: %s\n" workload e;
      exit 3
