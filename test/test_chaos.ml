(* Tests for the chaos layer: the schedule DSL and codec, the seeded
   campaign generator, the oracle suite on synthetic outcomes, and the
   end-to-end acceptance story — a fragile deployment fails an oracle,
   the shrinker minimizes the schedule, and the saved reproducer replays
   to the same violation. *)

module Transport = Lla_transport.Transport
module Schedule = Lla_chaos.Schedule
module Oracle = Lla_chaos.Oracle
module Campaign = Lla_chaos.Campaign

(* ------------------------------------------------------------------ *)
(* Schedule DSL and codec                                              *)
(* ------------------------------------------------------------------ *)

(* One of each event kind, with deliberately awkward values: a [nan]
   poison and fractional probabilities that must survive the codec. *)
let full_schedule ?(poison = nan) () =
  Schedule.make ~workload:"base" ~horizon:16_000. ~settle:20_000.
    ~setup:(Schedule.fragile_setup 48. 3)
    [
      Schedule.Faults
        {
          at = 2_000.;
          duration = 1_500.;
          faults = { Transport.drop = 0.2; duplicate = 0.05; reorder = 0.1; reorder_spread = 8. };
        };
      Schedule.Jitter { at = 3_000.; duration = 2_000.; spread = 6.5 };
      Schedule.Partition { at = 4_000.; duration = 1_200.; agents = [ 0; 2 ]; controllers = [ 1 ] };
      Schedule.Outage { at = 5_000.; duration = 800.; target = Schedule.Agent 1 };
      Schedule.Price_poison { at = 6_000.; resource = 1; value = poison };
      Schedule.Error_spike { at = 7_000.; duration = 900.; subtask = 4; magnitude = 3.5 };
      Schedule.Node_crash { at = 8_000. };
      Schedule.Storage_faults
        {
          at = 9_000.;
          duration = 1_000.;
          storage =
            {
              Lla_durable.Journal.Store.torn_write = 0.75;
              bit_flip = 0.125;
              drop_sync = 1.;
              short_read = 0.;
              fail_write = 0.0625;
            };
        };
    ]

let test_codec_roundtrip () =
  List.iter
    (fun poison ->
      let s = full_schedule ~poison () in
      match Schedule.of_string (Schedule.to_string s) with
      | Ok s' ->
        Alcotest.(check bool)
          (Printf.sprintf "round-trip with poison %h" poison)
          true (Schedule.equal s s')
      | Error e -> Alcotest.fail ("decode failed: " ^ e))
    [ nan; infinity; neg_infinity; 1e9; 0.; -10. ]

let test_codec_rejects_unknown_fields () =
  let s = Schedule.to_string (full_schedule ()) in
  (* Smuggle an extra top-level field into the object. *)
  let forged =
    match String.index_opt s '{' with
    | Some i ->
      String.sub s 0 (i + 1) ^ "\"surprise\":1," ^ String.sub s (i + 1) (String.length s - i - 1)
    | None -> Alcotest.fail "expected a JSON object"
  in
  (match Schedule.of_string forged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown top-level field accepted");
  match Schedule.of_string "{\"version\":99}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unsupported version accepted"

let test_codec_rejects_garbage () =
  List.iter
    (fun bad ->
      match Schedule.of_string bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail ("accepted: " ^ bad))
    [
      "not json";
      "[1,2,3]";
      "{\"version\":1,\"workload\":\"base\"}";
      (* an event of an unknown type *)
      "{\"version\":1,\"workload\":\"base\",\"horizon\":1000,\"settle\":0,\"setup\":{\"safe_mode\":true,\"checkpoints\":true,\"health\":true,\"step\":\"adaptive\",\"transport_seed\":0},\"events\":[{\"type\":\"meteor\",\"at\":10}]}";
    ]

let test_split_step_roundtrip () =
  (* the kernel's scale config splits the step policy per price family;
     reproducers caught at scale must survive the codec *)
  let setup =
    {
      (Schedule.fragile_setup 48. 3) with
      Schedule.step = Schedule.Split { resource = Schedule.Adaptive; path = Schedule.Fixed_gamma 2.5 };
    }
  in
  let s = Schedule.make ~workload:"base" ~horizon:1_000. ~settle:0. ~setup [] in
  match Schedule.of_string (Schedule.to_string s) with
  | Ok s' -> Alcotest.(check bool) "split step round-trips" true (Schedule.equal s s')
  | Error e -> Alcotest.fail ("decode failed: " ^ e)

let forged_step step =
  Printf.sprintf
    "{\"version\":1,\"workload\":\"base\",\"horizon\":1000,\"settle\":0,\"setup\":{\"safe_mode\":true,\"checkpoints\":true,\"health\":true,\"step\":%s,\"transport_seed\":0},\"events\":[]}"
    step

let test_step_codec_strictness () =
  (* valid forms *)
  List.iter
    (fun step ->
      match Schedule.of_string (forged_step step) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "rejected valid step %s: %s" step e)
    [ "\"adaptive\""; "2.5"; "{\"resource\":\"adaptive\",\"path\":2.5}" ];
  (* unknown tags, unknown fields inside the step object, and nested
     splits must all be rejected, not silently defaulted *)
  List.iter
    (fun step ->
      match Schedule.of_string (forged_step step) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid step %s" step)
    [
      "\"nesterov\"";
      "{\"resource\":\"adaptive\",\"path\":2.5,\"surprise\":1}";
      "{\"resource\":\"adaptive\"}";
      "{\"resource\":{\"resource\":\"adaptive\",\"path\":2},\"path\":\"adaptive\"}";
    ]

let invalid what thunk =
  match thunk () with
  | (_ : Schedule.t) -> Alcotest.fail ("accepted " ^ what)
  | exception Invalid_argument _ -> ()

let test_make_validation () =
  let event at = Schedule.Jitter { at; duration = 100.; spread = 1. } in
  invalid "non-positive horizon" (fun () ->
      Schedule.make ~workload:"base" ~horizon:0. ~settle:0. []);
  invalid "negative settle" (fun () ->
      Schedule.make ~workload:"base" ~horizon:1_000. ~settle:(-1.) []);
  invalid "event before t=0" (fun () ->
      Schedule.make ~workload:"base" ~horizon:1_000. ~settle:0. [ event (-5.) ]);
  invalid "event at the horizon" (fun () ->
      Schedule.make ~workload:"base" ~horizon:1_000. ~settle:0. [ event 1_000. ]);
  invalid "negative duration" (fun () ->
      Schedule.make ~workload:"base" ~horizon:1_000. ~settle:0.
        [ Schedule.Jitter { at = 10.; duration = -1.; spread = 1. } ]);
  invalid "drop probability above one" (fun () ->
      Schedule.make ~workload:"base" ~horizon:1_000. ~settle:0.
        [
          Schedule.Faults
            {
              at = 10.;
              duration = 10.;
              faults = { Transport.no_faults with Transport.drop = 1.5 };
            };
        ]);
  (* Events are sorted by start time regardless of list order. *)
  let s =
    Schedule.make ~workload:"base" ~horizon:1_000. ~settle:0. [ event 500.; event 100. ]
  in
  Alcotest.(check (list (float 1e-9))) "sorted by start" [ 100.; 500. ]
    (List.map Schedule.event_start s.Schedule.events)

let test_event_windows () =
  let s = full_schedule () in
  Alcotest.(check (float 1e-9)) "last fault end" 10_000. (Schedule.last_fault_end s);
  Alcotest.(check (float 1e-9)) "duration" 36_000. (Schedule.duration s);
  let poison = Schedule.Price_poison { at = 6_000.; resource = 1; value = 1. } in
  Alcotest.(check (float 1e-9)) "instantaneous event ends at its start" 6_000.
    (Schedule.event_end poison)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let test_generator_deterministic () =
  Alcotest.(check bool) "same seed, same schedule" true
    (Schedule.equal (Campaign.generate ~seed:7 ()) (Campaign.generate ~seed:7 ()));
  Alcotest.(check bool) "fragile flag changes the setup" false
    (Schedule.equal (Campaign.generate ~seed:7 ()) (Campaign.generate ~fragile:true ~seed:7 ()));
  Alcotest.(check bool) "different seeds, different schedules" false
    (Schedule.equal (Campaign.generate ~seed:7 ()) (Campaign.generate ~seed:8 ()))

(* Acceptance: every generated schedule survives the codec bit-for-bit. *)
let test_generated_schedules_roundtrip () =
  for seed = 0 to 59 do
    let s = Campaign.generate ~fragile:(seed mod 2 = 1) ~seed () in
    match Schedule.of_string (Schedule.to_string s) with
    | Ok s' ->
      Alcotest.(check bool) (Printf.sprintf "seed %d round-trips" seed) true (Schedule.equal s s')
    | Error e -> Alcotest.fail (Printf.sprintf "seed %d: decode failed: %s" seed e)
  done

(* A schedule names its workload; the runner resolves the name. *)
let test_workload_names () =
  let run workload =
    Campaign.run_schedule (Schedule.make ~workload ~horizon:100. ~settle:100. [])
  in
  (match run "base" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match run "random:17" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (match run "nope" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown workload accepted");
  match run "random:xyz" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed random seed accepted"

(* ------------------------------------------------------------------ *)
(* Oracles on synthetic outcomes                                       *)
(* ------------------------------------------------------------------ *)

let base_outcome =
  {
    Oracle.records = [];
    last_fault_end = 0.;
    end_time = 36_000.;
    final_utility = 1.0;
    optimum_utility = 1.0;
    in_safe_mode = false;
    safe_entries = 0;
    warm_restores = 0;
    cold_restarts = 0;
    outages = 0;
    crash_restores = 0;
    checkpoints_enabled = true;
    max_share_violation = 0.;
    max_path_violation = 0.;
    recovery = None;
  }

let failed name verdicts =
  match List.find_opt (fun v -> v.Oracle.oracle = name) verdicts with
  | Some v -> v.Oracle.violations <> []
  | None -> Alcotest.fail ("no verdict for oracle " ^ name)

let test_oracles_pass_clean_outcome () =
  let verdicts = Oracle.evaluate base_outcome in
  Alcotest.(check bool) "all pass" true (Oracle.ok verdicts);
  Alcotest.(check int) "eight oracles" 8 (List.length verdicts)

let test_oracle_lockout () =
  let records =
    [
      { Lla_obs.Trace.seq = 0; at = 900.; event = Lla_obs.Trace.Watchdog_trip { reason = "r" } };
      {
        Lla_obs.Trace.seq = 1;
        at = 1_000.;
        event = Lla_obs.Trace.Safe_mode_entered { reason = "r"; fallback = "clamp" };
      };
    ]
  in
  let o = { base_outcome with Oracle.records; in_safe_mode = true; safe_entries = 1 } in
  let verdicts = Oracle.evaluate o in
  Alcotest.(check bool) "dwelling since t=1000 is a lockout" true (failed "no-lockout" verdicts);
  (* Regret is not judged while the run ends inside safe mode. *)
  Alcotest.(check bool) "reconvergence skipped in safe mode" false
    (failed "reconvergence" verdicts);
  (* A short dwell at the very end is not a lockout. *)
  let late =
    List.map
      (fun (r : Lla_obs.Trace.record) -> { r with Lla_obs.Trace.at = r.at +. 33_000. })
      records
  in
  let o' = { o with Oracle.records = late } in
  Alcotest.(check bool) "fresh dwell is tolerated" false (failed "no-lockout" (Oracle.evaluate o'))

let test_oracle_regret_and_feasibility () =
  let o = { base_outcome with Oracle.final_utility = 0.8 } in
  Alcotest.(check bool) "20% regret flagged" true (failed "reconvergence" (Oracle.evaluate o));
  let o = { base_outcome with Oracle.final_utility = nan } in
  Alcotest.(check bool) "nan utility flagged" true (failed "reconvergence" (Oracle.evaluate o));
  let o = { base_outcome with Oracle.max_share_violation = 0.5 } in
  Alcotest.(check bool) "infeasible final point flagged" true
    (failed "final-feasibility" (Oracle.evaluate o));
  let o = { base_outcome with Oracle.max_path_violation = infinity } in
  Alcotest.(check bool) "non-finite path excess flagged" true
    (failed "final-feasibility" (Oracle.evaluate o))

let clean_recovery =
  {
    Oracle.crashes = 1;
    replayed = 4;
    refused = 0;
    crash_warm = 5;
    crash_cold = 0;
    resurrected = 0;
    idempotent = true;
    journal_enabled = true;
  }

let test_oracle_recovery () =
  (* vacuous without crash drills, judged with them *)
  Alcotest.(check bool) "no drill passes vacuously" false
    (failed "recovery" (Oracle.evaluate base_outcome));
  let with_recovery r = { base_outcome with Oracle.recovery = Some r } in
  Alcotest.(check bool) "clean recovery passes" false
    (failed "recovery" (Oracle.evaluate (with_recovery clean_recovery)));
  Alcotest.(check bool) "resurrected non-finite state flagged" true
    (failed "recovery" (Oracle.evaluate (with_recovery { clean_recovery with Oracle.resurrected = 1 })));
  Alcotest.(check bool) "non-idempotent replay flagged" true
    (failed "recovery" (Oracle.evaluate (with_recovery { clean_recovery with Oracle.idempotent = false })));
  Alcotest.(check bool) "warm crash recovery without a journal flagged" true
    (failed "recovery"
       (Oracle.evaluate (with_recovery { clean_recovery with Oracle.journal_enabled = false })));
  Alcotest.(check bool) "warm crash recovery with zero replayed records flagged" true
    (failed "recovery" (Oracle.evaluate (with_recovery { clean_recovery with Oracle.replayed = 0 })))

let test_oracle_warm_restore () =
  let o = { base_outcome with Oracle.outages = 2; cold_restarts = 1 } in
  Alcotest.(check bool) "missing restore flagged" true
    (failed "warm-restore-consistency" (Oracle.evaluate o));
  let o =
    { base_outcome with Oracle.outages = 1; warm_restores = 1; checkpoints_enabled = false }
  in
  Alcotest.(check bool) "warm restore without checkpoints flagged" true
    (failed "warm-restore-consistency" (Oracle.evaluate o));
  let o = { base_outcome with Oracle.outages = 2; warm_restores = 1; cold_restarts = 1 } in
  Alcotest.(check bool) "balanced ledger passes" false
    (failed "warm-restore-consistency" (Oracle.evaluate o))

(* ------------------------------------------------------------------ *)
(* Campaigns end to end                                                *)
(* ------------------------------------------------------------------ *)

let test_healthy_campaign_passes () =
  let s = Campaign.run ~runs:3 ~seed:42 () in
  Alcotest.(check int) "no failures" 0 (List.length s.Campaign.failures);
  Alcotest.(check bool) "report says 3/3" true
    (let needle = "campaign: 3/3 runs passed (seed 42)" in
     let n = String.length needle and r = s.Campaign.report in
     let rec go i = i + n <= String.length r && (String.sub r i n = needle || go (i + 1)) in
     go 0)

let test_campaign_deterministic () =
  let a = Campaign.run ~runs:3 ~seed:42 () in
  let b = Campaign.run ~runs:3 ~seed:42 () in
  Alcotest.(check string) "byte-identical reports" a.Campaign.report b.Campaign.report

(* Acceptance: the fragile deployment (no resilience, aggressive fixed
   step) produces a violation; the shrinker returns a smaller schedule
   that still reproduces it; and the saved artifact replays to the same
   failing oracle via the public replay path. *)
(* Does the schedule still fail one of the named oracles? *)
let reproduces ?engine ~failing sched =
  match Campaign.run_schedule ?engine sched with
  | Error _ -> false
  | Ok exec ->
      List.exists (fun v -> List.mem v.Oracle.oracle failing) (Oracle.failures exec.Campaign.verdicts)

let test_fragile_violation_shrinks_and_replays () =
  let out = Filename.concat (Filename.get_temp_dir_name ()) "lla_chaos_test_repro" in
  let s = Campaign.run ~fragile:true ~shrink_attempts:80 ~out ~runs:1 ~seed:42 () in
  match s.Campaign.failures with
  | [] -> Alcotest.fail "fragile deployment survived — oracles are toothless"
  | f :: _ ->
    Alcotest.(check bool) "some oracle failed" true (f.Campaign.oracles <> []);
    Alcotest.(check bool) "shrunk is no larger" true
      (List.length f.Campaign.shrunk.Schedule.events
      <= List.length f.Campaign.schedule.Schedule.events);
    Alcotest.(check bool) "shrunk still reproduces" true
      (reproduces ~failing:f.Campaign.oracles f.Campaign.shrunk);
    let path =
      match f.Campaign.shrunk_path with
      | Some p -> p
      | None -> Alcotest.fail "expected a saved reproducer"
    in
    (match Campaign.replay ~path () with
    | Error e -> Alcotest.fail ("replay failed: " ^ e)
    | Ok exec ->
      let replay_failures =
        List.map (fun v -> v.Oracle.oracle) (Oracle.failures exec.Campaign.verdicts)
      in
      Alcotest.(check bool) "replay reproduces one of the original oracles" true
        (List.exists (fun o -> List.mem o replay_failures) f.Campaign.oracles))

(* A node crash plus a storage-fault window against the fully-armed
   deployment: the run must survive every oracle, the drill must be
   accounted (recovery outcome filled, restores balanced against the
   crash), and replay must be judged idempotent. *)
let test_crash_schedule_end_to_end () =
  let s =
    Schedule.make ~workload:"base" ~horizon:24_000. ~settle:20_000.
      [
        Schedule.Storage_faults
          {
            at = 4_000.;
            duration = 3_000.;
            storage =
              { Lla_durable.Journal.Store.no_faults with Lla_durable.Journal.Store.torn_write = 1. };
          };
        Schedule.Node_crash { at = 8_000. };
      ]
  in
  match Campaign.run_schedule s with
  | Error e -> Alcotest.fail ("run_schedule: " ^ e)
  | Ok exec ->
    let failures = Oracle.failures exec.Campaign.verdicts in
    Alcotest.(check int)
      (String.concat "; "
         (List.concat_map (fun v -> List.map (fun m -> v.Oracle.oracle ^ ": " ^ m) v.Oracle.violations) failures))
      0 (List.length failures);
    let o = exec.Campaign.outcome in
    (match o.Oracle.recovery with
    | None -> Alcotest.fail "crash schedule left no recovery outcome"
    | Some r ->
      Alcotest.(check int) "one crash drill" 1 r.Oracle.crashes;
      Alcotest.(check bool) "double replay idempotent" true r.Oracle.idempotent;
      Alcotest.(check bool) "journal armed by default setup" true r.Oracle.journal_enabled;
      Alcotest.(check int) "every actor restored exactly once" o.Oracle.crash_restores
        (r.Oracle.crash_warm + r.Oracle.crash_cold));
    Alcotest.(check bool) "run ends out of safe mode" false o.Oracle.in_safe_mode

(* The campaign runner pinned bit for bit on the default sim engine:
   per generated schedule, the record count and the MD5 of the records'
   JSONL form, the final utility and end time as hex floats, and a pass
   from every oracle. Any change to the deployment wiring, the event
   order or the actors' arithmetic moves one of them. *)
let campaign_pins =
  [
    (42, 74_871, "47fb069f6eedd401181b5886e2d418c3", "0x1.700c071c9ecfp+7", "0x1.1942p+15");
    (43, 79_005, "3f04d9786f14384a085b7c22d430c5fd", "0x1.70b2087303febp+7", "0x1.1942p+15");
    (44, 72_431, "4e75980131f93cbe8a87c26418d4f5ab", "0x1.70e3cd1fe24e3p+7", "0x1.1942p+15");
  ]

let test_campaign_pinned () =
  List.iter
    (fun (seed, n_records, md5, utility, end_time) ->
      let label what = Printf.sprintf "seed %d %s" seed what in
      match Campaign.run_schedule (Campaign.generate ~seed ()) with
      | Error e -> Alcotest.fail (label e)
      | Ok exec ->
        let o = exec.Campaign.outcome in
        let buf = Buffer.create (1 lsl 20) in
        List.iter
          (fun r ->
            Buffer.add_string buf (Lla_obs.Trace.record_to_string r);
            Buffer.add_char buf '\n')
          o.Oracle.records;
        Alcotest.(check int) (label "records") n_records (List.length o.Oracle.records);
        Alcotest.(check string) (label "records md5") md5
          (Digest.to_hex (Digest.string (Buffer.contents buf)));
        Alcotest.(check string) (label "final utility") utility
          (Printf.sprintf "%h" o.Oracle.final_utility);
        Alcotest.(check string) (label "end time") end_time (Printf.sprintf "%h" o.Oracle.end_time);
        List.iter
          (fun v -> Alcotest.(check (list string)) (label v.Oracle.oracle) [] v.Oracle.violations)
          exec.Campaign.verdicts)
    campaign_pins

let test_run_schedule_rejects_bad_indices () =
  let s =
    Schedule.make ~workload:"base" ~horizon:1_000. ~settle:0.
      [ Schedule.Price_poison { at = 10.; resource = 99; value = 1. } ]
  in
  (match Campaign.run_schedule s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-range resource index accepted");
  let s = { (Campaign.generate ~seed:1 ()) with Schedule.workload = "nope" } in
  match Campaign.run_schedule s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown workload accepted"

let () =
  Alcotest.run "lla_chaos"
    [
      ( "schedule",
        [
          Alcotest.test_case "codec round-trip incl. non-finite poison" `Quick
            test_codec_roundtrip;
          Alcotest.test_case "unknown fields rejected" `Quick test_codec_rejects_unknown_fields;
          Alcotest.test_case "garbage rejected" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "split step round-trips" `Quick test_split_step_roundtrip;
          Alcotest.test_case "step codec is strict" `Quick test_step_codec_strictness;
          Alcotest.test_case "make validates and sorts" `Quick test_make_validation;
          Alcotest.test_case "event windows" `Quick test_event_windows;
        ] );
      ( "generator",
        [
          Alcotest.test_case "seeded and deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "generated schedules round-trip" `Quick
            test_generated_schedules_roundtrip;
          Alcotest.test_case "workload names" `Quick test_workload_names;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "clean outcome passes all" `Quick test_oracles_pass_clean_outcome;
          Alcotest.test_case "lockout means dwelling" `Quick test_oracle_lockout;
          Alcotest.test_case "regret and final feasibility" `Quick
            test_oracle_regret_and_feasibility;
          Alcotest.test_case "warm-restore ledger" `Quick test_oracle_warm_restore;
          Alcotest.test_case "crash-recovery hygiene" `Quick test_oracle_recovery;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "healthy runs pass" `Slow test_healthy_campaign_passes;
          Alcotest.test_case "byte-identical summaries" `Slow test_campaign_deterministic;
          Alcotest.test_case "runner pinned on seeds 42-44" `Slow test_campaign_pinned;
          Alcotest.test_case "fragile violation shrinks and replays" `Slow
            test_fragile_violation_shrinks_and_replays;
          Alcotest.test_case "bad schedules rejected before running" `Quick
            test_run_schedule_rejects_bad_indices;
          Alcotest.test_case "node crash + storage faults end to end" `Slow
            test_crash_schedule_end_to_end;
        ] );
    ]
