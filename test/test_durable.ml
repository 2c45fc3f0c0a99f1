(* Lla_durable: CRC-32 known answers, record framing, the
   torn-tail-at-every-byte-offset sweep, segment rotation, the seeded
   faulty store (torn writes, dropped syncs), ENOSPC wedging on the faulty
   and the file store, recovery replay + active-segment truncation, and the
   checkpoint-store integration (idempotent replay, non-finite refusal,
   whole-kernel restore_iterate hygiene). *)

module Journal = Lla_durable.Journal
module Recovery = Lla_durable.Recovery
module Store = Lla_durable.Journal.Store
module Checkpoint = Lla_runtime.Checkpoint
module Kernel = Lla_scale.Kernel
module Generator = Lla_scale.Generator

let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* CRC-32 and record framing                                           *)
(* ------------------------------------------------------------------ *)

let test_crc_known_answers () =
  (* the IEEE 802.3 check value, and the empty-string identity, read
     from the CRC field of the record header *)
  let crc payload =
    let r = Journal.encode_record payload in
    Char.code r.[4] lor (Char.code r.[5] lsl 8) lor (Char.code r.[6] lsl 16)
    lor (Char.code r.[7] lsl 24)
  in
  Alcotest.(check int) "crc32(\"123456789\")" 0xCBF43926 (crc "123456789");
  Alcotest.(check int) "crc32(\"\")" 0 (crc "")

let test_framing_layout () =
  let r = Journal.encode_record "hi" in
  Alcotest.(check int) "8-byte header + payload" 10 (String.length r);
  Alcotest.(check int) "length field LE" 2 (Char.code r.[0]);
  Alcotest.(check int) "length high bytes zero" 0
    (Char.code r.[1] lor Char.code r.[2] lor Char.code r.[3]);
  Alcotest.(check string) "payload verbatim" "hi" (String.sub r 8 2)

let framing_roundtrip =
  QCheck.Test.make ~count:200 ~name:"framed records decode back verbatim"
    QCheck.(list_of_size (Gen.int_range 0 8) (string_of_size (Gen.int_range 0 200)))
    (fun payloads ->
      let raw = String.concat "" (List.map Journal.encode_record payloads) in
      let decoded, scan = Journal.decode raw in
      if decoded <> payloads then QCheck.Test.fail_report "payloads differ";
      if scan.Journal.corrupt_at <> None then QCheck.Test.fail_report "clean stream read corrupt";
      if scan.Journal.good_bytes <> String.length raw then
        QCheck.Test.fail_report "good_bytes under-counts";
      true)

(* The satellite: cut a multi-record stream at EVERY byte offset and
   scan the prefix. Recovery of a torn file must always yield a valid
   record prefix, never raise, and account every surviving byte. *)
let test_torn_tail_every_offset () =
  let payloads = [ "alpha"; ""; "beta-beta"; String.make 64 'x'; "\x00\xff tail" ] in
  let raw = String.concat "" (List.map Journal.encode_record payloads) in
  (* record boundaries: byte offset after each complete record *)
  let boundaries =
    List.rev
      (fst
         (List.fold_left
            (fun (acc, off) p ->
              let off = off + 8 + String.length p in
              (off :: acc, off))
            ([ 0 ], 0) payloads))
  in
  for cut = 0 to String.length raw do
    let decoded, scan = Journal.decode (String.sub raw 0 cut) in
    let expect_records =
      List.length (List.filter (fun b -> b <= cut && b > 0) boundaries)
    in
    if List.length decoded <> expect_records then
      Alcotest.failf "cut %d: %d records decoded, %d complete" cut (List.length decoded)
        expect_records;
    (* the decoded list is a strict prefix of the original payloads *)
    List.iteri
      (fun i p ->
        if p <> List.nth payloads i then Alcotest.failf "cut %d: record %d corrupted" cut i)
      decoded;
    let good = List.nth boundaries expect_records in
    Alcotest.(check int) (Printf.sprintf "cut %d good_bytes" cut) good scan.Journal.good_bytes;
    if cut > good && scan.Journal.corrupt_at = None then
      Alcotest.failf "cut %d: torn tail not reported corrupt" cut;
    if cut = good && scan.Journal.corrupt_at <> None then
      Alcotest.failf "cut %d: clean boundary reported corrupt" cut
  done

let test_scan_rejects_absurd_length () =
  (* a torn length prefix must not make recovery attempt a giant read *)
  let b = Bytes.make 8 '\x00' in
  Bytes.set b 3 '\x7f' (* length = 0x7f000000, way past max_record_bytes *);
  let _, scan = Journal.decode (Bytes.to_string b) in
  Alcotest.(check (option int)) "corrupt at 0" (Some 0) scan.Journal.corrupt_at;
  (* bit-flipped payload: framing is intact, CRC must catch it *)
  let r = Bytes.of_string (Journal.encode_record "payload") in
  Bytes.set r 10 (Char.chr (Char.code (Bytes.get r 10) lxor 0x04));
  let decoded, scan = Journal.decode (Bytes.to_string r) in
  Alcotest.(check int) "flipped record refused" 0 (List.length decoded);
  Alcotest.(check (option string)) "reason is bad crc" (Some "bad crc") scan.Journal.corrupt_reason

(* ------------------------------------------------------------------ *)
(* Faulty store semantics                                              *)
(* ------------------------------------------------------------------ *)

let append_exn store path data =
  match Store.append store path data with
  | Ok () -> ()
  | Error e -> Alcotest.failf "append: %s" e

let sync_exn store path =
  match Store.sync store path with Ok () -> () | Error e -> Alcotest.failf "sync: %s" e

let test_faulty_store_sync_frontier () =
  let s = Store.faulty () in
  append_exn s "f" "abc";
  sync_exn s "f";
  append_exn s "f" "def";
  (* unsynced tail is visible to reads but lost on crash *)
  Alcotest.(check (option string)) "read sees tail" (Some "abcdef") (Store.read s "f");
  Store.crash s;
  Alcotest.(check (option string)) "crash keeps durable prefix" (Some "abc") (Store.read s "f");
  Alcotest.(check int) "no faults fired at zero probabilities" 0 (Store.faults_injected s)

let test_faulty_store_dropped_sync () =
  let s = Store.faulty ~seed:7 () in
  Store.set_faults s { Store.no_faults with Store.drop_sync = 1. };
  append_exn s "f" "abc";
  sync_exn s "f";
  Store.crash s;
  Alcotest.(check (option string)) "dropped sync loses the tail" (Some "") (Store.read s "f");
  Alcotest.(check bool) "fault accounted" true (Store.faults_injected s > 0)

let test_faulty_store_deterministic () =
  let faults = { Store.torn_write = 0.5; bit_flip = 0.3; drop_sync = 0.5; short_read = 0.; fail_write = 0.1 } in
  let run () =
    let s = Store.faulty ~seed:11 () in
    Store.set_faults s faults;
    for i = 0 to 40 do
      (match Store.append s "f" (Printf.sprintf "record-%d" i) with Ok () | Error _ -> ());
      if i mod 3 = 0 then sync_exn s "f";
      if i mod 17 = 0 then Store.crash s
    done;
    (Store.read s "f", Store.faults_injected s)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, same bytes and fault count" true (a = b)

let test_store_faults_validation () =
  let s = Store.faulty () in
  (try
     Store.set_faults s { Store.no_faults with Store.bit_flip = 1.5 };
     Alcotest.fail "probability 1.5 accepted"
   with Invalid_argument _ -> ());
  let file = Store.file ~dir:(Filename.concat (Filename.get_temp_dir_name ()) "lla_durable_nofault") in
  Store.set_faults file { Store.no_faults with Store.torn_write = 1. };
  Alcotest.(check bool) "file store ignores fault config" true
    (Store.active_faults file = Store.no_faults)

(* ------------------------------------------------------------------ *)
(* Journal: rotation, wedging                                           *)
(* ------------------------------------------------------------------ *)

let test_rotation_and_replay () =
  let store = Store.faulty () in
  let j =
    Journal.create ~config:{ Journal.default_config with Journal.max_segment_bytes = 64 } store
  in
  let n = 40 in
  for i = 1 to n do
    Journal.append j (Printf.sprintf "rec-%03d" i)
  done;
  Alcotest.(check bool) "segments rotated" true (Journal.rotations j > 0);
  let got = ref [] in
  let _ = Recovery.replay j ~apply:(fun p -> got := p :: !got; true) in
  let got = List.rev !got in
  (* retain=3 bounds history: we must get a contiguous SUFFIX of the
     appended records, ending at the newest *)
  Alcotest.(check bool) "some records survive" true (got <> []);
  Alcotest.(check string) "newest record last" (Printf.sprintf "rec-%03d" n)
    (List.nth got (List.length got - 1));
  let first = List.hd got in
  let start = int_of_string (String.sub first 4 3) in
  List.iteri
    (fun k p -> Alcotest.(check string) "contiguous suffix" (Printf.sprintf "rec-%03d" (start + k)) p)
    got

(* A full disk, five ways: the faulty store's injected ENOSPC, and a
   file store whose active segment is /dev/full, which fails at the
   first sync's flush or, with a sync cadence no run reaches, once the
   channel's buffer fills, or at the close of a replay that reads the
   segment while records are still buffered. Each wedges the journal
   without a raise, replay still works, and nothing un-wedges it once
   the store accepts writes again. The fifth is replay's cut of a torn
   tail, whose whole-file write goes through a tmp file on /dev/full:
   replay returns its report, keeps the tail and wedges the journal. *)
let test_enospc_wedges_never_raises () =
  (* each returns the store, a way to let it accept writes again, and a
     clean-up *)
  let faulty () =
    let store = Store.faulty () in
    Store.set_faults store { Store.no_faults with Store.fail_write = 1. };
    (store, (fun () -> Store.set_faults store Store.no_faults), ignore)
  in
  let dev_full () =
    let dir = Filename.temp_dir "lla_durable_full" "" in
    let wal = Filename.concat dir "journal.wal" in
    Unix.symlink "/dev/full" wal;
    (Store.file ~dir, (fun () -> Sys.remove wal), fun () -> Sys.rmdir dir)
  in
  let unsynced = { Journal.default_config with Journal.sync_every = 1_000_000 } in
  let inputs =
    ("faulty store", faulty, Journal.default_config, false)
    ::
    (if Sys.file_exists "/dev/full" then
       [
         ("file store on /dev/full", dev_full, Journal.default_config, false);
         ("file store on /dev/full, no sync barrier", dev_full, unsynced, false);
         ("file store on /dev/full, replay before the barrier", dev_full, unsynced, true);
       ]
     else [])
  in
  List.iter
    (fun (label, make, config, replay_early) ->
      let check what = Printf.sprintf "%s: %s" label what in
      let store, disk_recovers, cleanup = make () in
      let j = Journal.create ~config store in
      let payload = String.make 100 'x' in
      let attempts = ref 0 in
      while (not (Journal.wedged j)) && !attempts < 10_000 do
        Journal.append j payload;
        incr attempts;
        if replay_early && !attempts = 1 then ignore (Recovery.replay j ~apply:(fun _ -> true))
      done;
      Alcotest.(check bool) (check "journal wedged") true (Journal.wedged j);
      Alcotest.(check int) (check "failed record not counted") (!attempts - 1) (Journal.appends j);
      (* wedged journal: appends are silent no-ops, replay still works *)
      let accepted = Journal.appends j in
      Journal.append j "also dropped";
      Journal.sync j;
      let r = Recovery.replay j ~apply:(fun _ -> true) in
      Alcotest.(check int) (check "nothing durable to replay") 0 r.Recovery.applied;
      (* the store accepts writes again; the journal stays wedged *)
      disk_recovers ();
      Journal.append j "still dropped";
      Journal.sync j;
      Alcotest.(check bool) (check "stays wedged") true (Journal.wedged j);
      Alcotest.(check int) (check "no append after the failure") accepted (Journal.appends j);
      cleanup ())
    inputs;
  if Sys.file_exists "/dev/full" then begin
    let check what = "torn tail, tmp on /dev/full: " ^ what in
    let dir = Filename.temp_dir "lla_durable_full" "" in
    let j = Journal.create (Store.file ~dir) in
    List.iter (Journal.append j) [ "one"; "two"; "three" ];
    Journal.sync j;
    let wal = Filename.concat dir (Journal.active_path j) in
    Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 wal (fun oc ->
        output_string oc "tor");
    let synced = String.length (In_channel.with_open_bin wal In_channel.input_all) in
    let tmp = wal ^ ".tmp" in
    Unix.symlink "/dev/full" tmp;
    let store = Store.file ~dir in
    let j = Journal.create store in
    let r = Recovery.replay j ~apply:(fun _ -> true) in
    Alcotest.(check int) (check "synced records replayed") 3 r.Recovery.applied;
    Alcotest.(check int) (check "corrupt suffix seen") 1 r.Recovery.corrupt_segments;
    Alcotest.(check int) (check "nothing cut") 0 r.Recovery.truncated_bytes;
    Alcotest.(check bool) (check "journal wedged") true (Journal.wedged j);
    Journal.append j "four";
    Alcotest.(check (option int))
      (check "torn tail kept, nothing appended behind it")
      (Some synced)
      (Option.map String.length (Store.read store (Journal.active_path j)));
    List.iter Sys.remove [ tmp; wal ];
    Sys.rmdir dir
  end

(* Torn active segment at every byte offset, now through the full
   journal + recovery stack: replay never raises, applies exactly the
   complete-record prefix, truncates the tail in place, and the journal
   keeps appending cleanly afterwards. *)
let test_recovery_truncates_torn_tail_every_offset () =
  let payloads = [ "first"; "second-longer"; "third" ] in
  let raw = String.concat "" (List.map Journal.encode_record payloads) in
  for cut = 0 to String.length raw do
    let store = Store.faulty () in
    let j = Journal.create store in
    Result.get_ok (Store.write store (Journal.active_path j) (String.sub raw 0 cut));
    let applied = ref [] in
    let r = Recovery.replay j ~apply:(fun p -> applied := p :: !applied; true) in
    let applied = List.rev !applied in
    (* the applied records are a prefix of the payload list *)
    List.iteri
      (fun i p ->
        if p <> List.nth payloads i then Alcotest.failf "cut %d: record %d corrupted" cut i)
      applied;
    let good_bytes =
      List.fold_left (fun acc p -> acc + 8 + String.length p)
        0
        (List.filteri (fun i _ -> i < List.length applied) payloads)
    in
    Alcotest.(check int)
      (Printf.sprintf "cut %d truncated bytes" cut)
      (cut - good_bytes) r.Recovery.truncated_bytes;
    (match Store.read store (Journal.active_path j) with
    | None -> Alcotest.failf "cut %d: active segment vanished" cut
    | Some contents ->
      Alcotest.(check int)
        (Printf.sprintf "cut %d active segment truncated in place" cut)
        good_bytes (String.length contents));
    (* the frontier is clean: append + replay recovers prefix + new *)
    Journal.append j "appended-after-recovery";
    let again = ref [] in
    let r2 = Recovery.replay j ~apply:(fun p -> again := p :: !again; true) in
    Alcotest.(check (list string))
      (Printf.sprintf "cut %d clean frontier" cut)
      (applied @ [ "appended-after-recovery" ])
      (List.rev !again);
    Alcotest.(check int) (Printf.sprintf "cut %d second replay clean" cut) 0 r2.Recovery.truncated_bytes
  done

(* Rotation reads the active segment's size; after a replay that size
   is what the store holds. A 120-byte cap, three 28-byte records and a
   10-byte torn tail: replay cuts the tail, and a fourth record fits in
   the 84 bytes left (84 + 28 <= 120) without a rotation. *)
let test_replay_resets_segment_size () =
  let config = { Journal.default_config with Journal.max_segment_bytes = 120 } in
  let store = Store.faulty () in
  let j = Journal.create ~config store in
  let record i = Printf.sprintf "record-%013d" i in
  for i = 1 to 3 do
    Journal.append j (record i)
  done;
  Result.get_ok (Store.append store (Journal.active_path j) (String.make 10 '\255'));
  ignore (Store.sync store (Journal.active_path j));
  let j = Journal.create ~config store in
  let r = Recovery.replay j ~apply:(fun _ -> true) in
  Alcotest.(check int) "torn tail cut" 10 r.Recovery.truncated_bytes;
  Journal.append j (record 4);
  Alcotest.(check int) "no rotation under the cap" 0 (Journal.rotations j);
  Alcotest.(check (option int)) "four records in the active segment" (Some 112)
    (Option.map String.length (Store.read store (Journal.active_path j)))

type journal_op = Append of int | Sync | Faults of float * float * float | Crash | Replay of int

let print_journal_op = function
  | Append n -> Printf.sprintf "append %d" n
  | Sync -> "sync"
  | Faults (torn, drop, short) -> Printf.sprintf "faults torn=%g drop=%g short=%g" torn drop short
  | Crash -> "crash"
  | Replay n -> Printf.sprintf "replay, then append %d" n

(* Random appends, syncs, storage faults and crashes on the faulty
   store: after every replay, the next append rotates exactly when the
   active segment the store holds plus the framed record exceed the cap
   (every framed record here fits in an empty segment). Short reads make
   replay see less than the store holds; the test reads the stored
   length with the faults off. *)
let replay_rotation_matches_store =
  let cap = 100 in
  let payload = QCheck.Gen.int_range 0 40 in
  let p = QCheck.Gen.oneofl [ 0.; 0.5; 1. ] in
  let op =
    QCheck.Gen.(
      frequency
        [
          (6, map (fun n -> Append n) payload);
          (2, return Sync);
          (1, map3 (fun t d s -> Faults (t, d, s)) p p p);
          (2, return Crash);
          (2, map (fun n -> Replay n) payload);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"after replay, rotation follows the stored segment size"
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_journal_op))
       ~shrink:QCheck.Shrink.(pair nil list)
       QCheck.Gen.(pair (int_range 1 3) (list_size (int_range 1 40) op)))
    (fun (sync_every, ops) ->
      let store = Store.faulty ~seed:7 () in
      let j =
        Journal.create ~config:{ Journal.max_segment_bytes = cap; sync_every } store
      in
      let append n = Journal.append j (String.make n 'r') in
      List.iter
        (function
          | Append n -> append n
          | Sync -> Journal.sync j
          | Faults (torn_write, drop_sync, short_read) ->
              Store.set_faults store
                { Store.no_faults with Store.torn_write; drop_sync; short_read }
          | Crash -> Store.crash store
          | Replay n ->
              ignore (Recovery.replay j ~apply:(fun _ -> true));
              let faults = Store.active_faults store in
              Store.set_faults store Store.no_faults;
              let stored =
                Option.fold ~none:0 ~some:String.length (Store.read store (Journal.active_path j))
              in
              Store.set_faults store faults;
              let before = Journal.rotations j in
              append n;
              let rotated = Journal.rotations j > before in
              if rotated <> (stored > 0 && stored + 8 + n > cap) then
                QCheck.Test.fail_reportf "stored %d + framed %d, cap %d: rotated %b" stored (8 + n)
                  cap rotated)
        ops;
      true)

(* ------------------------------------------------------------------ *)
(* Checkpoint-store integration                                        *)
(* ------------------------------------------------------------------ *)

let agent_state price = { Checkpoint.price; gamma = 0.5; lat_view = [| 1.; 2. |] }

(* Values with no short decimal form, so the journal record must carry
   every bit of them. *)
let third = 1. /. 3.

let tenth = 0.1 +. 0.2

let controller_state () =
  {
    Checkpoint.mu_view = [| tenth; 1.5; 1e-300 |];
    congested_view = [| true; false; true |];
    lambda = [| third; 0.; 2. |];
    gamma_p = [| 1.; 4. *. third |];
  }

let test_checkpoint_journal_roundtrip () =
  let j = Journal.create (Store.faulty ()) in
  let c = Checkpoint.create ~journal:j ~n_agents:2 ~n_controllers:1 () in
  Alcotest.(check bool) "saved" true (Checkpoint.save_agent c 0 ~now:10. (agent_state 3.5));
  Alcotest.(check bool) "saved" true
    (Checkpoint.save_agent c 1 ~now:(10. +. third)
       { Checkpoint.price = tenth; gamma = 8. *. third; lat_view = [| third; 20. |] });
  Alcotest.(check bool) "saved" true
    (Checkpoint.save_controller c 0 ~now:(12. +. tenth) (controller_state ()));
  let appended = Journal.appends j in
  Alcotest.(check int) "each accepted save journaled" 3 appended;
  (* whole-node crash: RAM gone, journal survives *)
  Checkpoint.clear c;
  Alcotest.(check (option (float 0.))) "slot gone" None
    (Option.map (fun (s : Checkpoint.agent_state) -> s.Checkpoint.price)
       (Checkpoint.restore_agent c 0));
  (match Checkpoint.recover c ~now:20. with
  | None -> Alcotest.fail "store has a journal"
  | Some r ->
    Alcotest.(check int) "all records restored" 3 r.Recovery.applied;
    Alcotest.(check int) "none refused" 0 r.Recovery.refused);
  (match Checkpoint.restore_agent c 0 with
  | Some s -> Alcotest.(check (float 0.)) "price back" 3.5 s.Checkpoint.price
  | None -> Alcotest.fail "agent 0 not restored");
  (match Checkpoint.restore_agent c 1 with
  | None -> Alcotest.fail "agent 1 not restored"
  | Some s ->
    Alcotest.(check (float 0.)) "price bit-exact" tenth s.Checkpoint.price;
    Alcotest.(check (float 0.)) "gamma bit-exact" (8. *. third) s.Checkpoint.gamma;
    Alcotest.(check (array (float 0.))) "lat view bit-exact" [| third; 20. |]
      s.Checkpoint.lat_view);
  (match Checkpoint.restore_controller c 0 with
  | None -> Alcotest.fail "controller 0 not restored"
  | Some s ->
    let orig = controller_state () in
    Alcotest.(check (array (float 0.))) "mu view" orig.Checkpoint.mu_view s.Checkpoint.mu_view;
    Alcotest.(check (array bool)) "congestion view" orig.Checkpoint.congested_view
      s.Checkpoint.congested_view;
    Alcotest.(check (array (float 0.))) "lambda" orig.Checkpoint.lambda s.Checkpoint.lambda;
    Alcotest.(check (array (float 0.))) "gamma_p" orig.Checkpoint.gamma_p s.Checkpoint.gamma_p);
  (* save times ride along through a recovery *)
  Alcotest.(check (option (float 0.))) "agent save time" (Some (10. +. third))
    (Checkpoint.last_agent_save c 1);
  Alcotest.(check (option (float 0.))) "controller save time" (Some (12. +. tenth))
    (Checkpoint.last_controller_save c 0);
  (* idempotence: replaying again restores the same slots and does not
     echo new journal records *)
  (match Checkpoint.recover c ~now:21. with
  | None -> Alcotest.fail "store has a journal"
  | Some r -> Alcotest.(check int) "second replay applies the same" 3 r.Recovery.applied);
  Alcotest.(check int) "replay did not append" appended (Journal.appends j);
  match Checkpoint.restore_agent c 1 with
  | Some s -> Alcotest.(check (float 0.)) "agent 1 intact" tenth s.Checkpoint.price
  | None -> Alcotest.fail "agent 1 lost by double replay"

let test_checkpoint_recovery_refuses_poison () =
  let j = Journal.create (Store.faulty ()) in
  let c = Checkpoint.create ~journal:j ~n_agents:1 ~n_controllers:0 () in
  Alcotest.(check bool) "clean save accepted" true
    (Checkpoint.save_agent c 0 ~now:1. (agent_state 2.0));
  (* a refused live save never reaches the journal *)
  Alcotest.(check bool) "poisoned live save refused" false
    (Checkpoint.save_agent c 0 ~now:1.5 (agent_state infinity));
  Alcotest.(check int) "refused save not journaled" 1 (Journal.appends j);
  (* records land on disk behind the store's back (the live save path
     would have refused them): non-finite state, non-finite save times,
     and malformed lines *)
  let record ~at ~price =
    Printf.sprintf
      "{\"kind\":\"agent\",\"index\":0,\"at\":%s,\"price\":%s,\"gamma\":0.5,\"lat_view\":[1,2]}"
      at price
  in
  let poison =
    [
      record ~at:"2" ~price:"nan";
      record ~at:"2" ~price:"inf";
      record ~at:"nan" ~price:"3";
      record ~at:"inf" ~price:"3";
    ]
  in
  let malformed =
    [
      "not json at all";
      "{\"kind\":\"mystery\",\"index\":0,\"at\":2}";
      "{\"kind\":\"agent\",\"index\":7,\"at\":2,\"price\":1,\"gamma\":1,\"lat_view\":[]}";
      (* indices that int_of_float would turn into slot 0 *)
      "{\"kind\":\"agent\",\"index\":nan,\"at\":2,\"price\":1,\"gamma\":1,\"lat_view\":[1,2]}";
      "{\"kind\":\"agent\",\"index\":1e30,\"at\":2,\"price\":1,\"gamma\":1,\"lat_view\":[1,2]}";
      "{\"kind\":\"agent\",\"index\":0.5,\"at\":2,\"price\":1,\"gamma\":1,\"lat_view\":[1,2]}";
      "{\"kind\":\"agent\",\"index\":0,\"at\":2,\"price\":\"one\",\"gamma\":1,\"lat_view\":[]}";
    ]
  in
  List.iter (Journal.append j) (poison @ malformed);
  Checkpoint.clear c;
  let rejected = Checkpoint.rejected_saves c in
  (match Checkpoint.recover c ~now:3. with
  | None -> Alcotest.fail "store has a journal"
  | Some r ->
    Alcotest.(check int) "clean record applied" 1 r.Recovery.applied;
    Alcotest.(check int) "poison + garbage refused, not raised"
      (List.length poison + List.length malformed)
      r.Recovery.refused);
  Alcotest.(check int) "non-finite records counted as refused saves" (rejected + 4)
    (Checkpoint.rejected_saves c);
  Alcotest.(check (option (float 0.))) "save time from the clean record" (Some 1.)
    (Checkpoint.last_agent_save c 0);
  match Checkpoint.restore_agent c 0 with
  | Some s -> Alcotest.(check (float 0.)) "finite snapshot survives" 2.0 s.Checkpoint.price
  | None -> Alcotest.fail "agent 0 not restored"

(* ------------------------------------------------------------------ *)
(* Kernel whole-node restore hygiene                                   *)
(* ------------------------------------------------------------------ *)

let small_kernel seed =
  let workload =
    Generator.generate ~params:(Generator.sized ~resources:8 ~subtasks:60 ()) ~seed ()
  in
  match Kernel.create ~config:Kernel.scale_config workload with
  | Ok k -> k
  | Error e -> Alcotest.failf "Kernel.create: %s" e

let test_kernel_restore_iterate () =
  let k = small_kernel 5 in
  (match Kernel.solve k ~max_iterations:20_000 with
  | Some _ -> ()
  | None -> Alcotest.fail "did not converge");
  let lat = Array.copy (Kernel.lat_array k) in
  let mu = Array.copy (Kernel.mu_array k) in
  let lambda = Array.copy (Kernel.lambda_array k) in
  Kernel.crash_reset k;
  Alcotest.(check bool) "reset moved the iterate" false (Kernel.lat_array k = lat);
  (match Kernel.restore_iterate k ~lat ~mu ~lambda with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "latencies restored" true (Kernel.lat_array k = lat);
  Kernel.step k;
  Alcotest.(check bool) "restored point is feasible after one tick" true (Kernel.feasible k)

let test_kernel_restore_refusals () =
  let k = small_kernel 6 in
  let lat = Array.copy (Kernel.lat_array k) in
  let mu = Array.copy (Kernel.mu_array k) in
  let lambda = Array.copy (Kernel.lambda_array k) in
  (match Kernel.restore_iterate k ~lat:(Array.sub lat 0 1) ~mu ~lambda with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "length mismatch accepted");
  let poisoned = Array.copy lat in
  poisoned.(0) <- nan;
  (match Kernel.restore_iterate k ~lat:poisoned ~mu ~lambda with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "nan latency accepted");
  let inf_mu = Array.copy mu in
  inf_mu.(0) <- infinity;
  (match Kernel.restore_iterate k ~lat ~mu:inf_mu ~lambda with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "infinite price accepted");
  (* negative prices are clamped, not refused *)
  let neg_mu = Array.map (fun v -> -.v -. 1.) mu in
  (match Kernel.restore_iterate k ~lat ~mu:neg_mu ~lambda with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "prices clamped to >= 0" true
    (Array.for_all (fun v -> v >= 0.) (Kernel.mu_array k))

let () =
  Alcotest.run "lla_durable"
    [
      ( "framing",
        [
          Alcotest.test_case "crc32 known answers" `Quick test_crc_known_answers;
          Alcotest.test_case "record layout" `Quick test_framing_layout;
          qcheck framing_roundtrip;
          Alcotest.test_case "torn tail at every byte offset" `Quick test_torn_tail_every_offset;
          Alcotest.test_case "absurd lengths and bit flips rejected" `Quick
            test_scan_rejects_absurd_length;
        ] );
      ( "store",
        [
          Alcotest.test_case "sync frontier vs crash" `Quick test_faulty_store_sync_frontier;
          Alcotest.test_case "dropped sync loses the tail" `Quick test_faulty_store_dropped_sync;
          Alcotest.test_case "seeded faults deterministic" `Quick test_faulty_store_deterministic;
          Alcotest.test_case "fault config validation" `Quick test_store_faults_validation;
        ] );
      ( "journal",
        [
          Alcotest.test_case "rotation bounds history, replay ordered" `Quick
            test_rotation_and_replay;
          Alcotest.test_case "ENOSPC wedges, never raises" `Quick test_enospc_wedges_never_raises;
          Alcotest.test_case "recovery truncates torn tails at every offset" `Quick
            test_recovery_truncates_torn_tail_every_offset;
          Alcotest.test_case "replay resets the segment size" `Quick
            test_replay_resets_segment_size;
          qcheck replay_rotation_matches_store;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "journal round-trip + idempotent replay" `Quick
            test_checkpoint_journal_roundtrip;
          Alcotest.test_case "recovery refuses poison and garbage" `Quick
            test_checkpoint_recovery_refuses_poison;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "restore_iterate round-trip" `Quick test_kernel_restore_iterate;
          Alcotest.test_case "restore_iterate refuses bad state" `Quick
            test_kernel_restore_refusals;
        ] );
    ]
