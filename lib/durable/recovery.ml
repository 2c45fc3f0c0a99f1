type report = {
  wal_records : int;
  applied : int;
  refused : int;
  corrupt_segments : int;
  truncated_bytes : int;
}

let replay ?obs ?(at = 0.) journal ~apply =
  let store = Journal.store journal in
  let active = Journal.active_path journal in
  let wal_records = ref 0 in
  let applied = ref 0 in
  let refused = ref 0 in
  let corrupt_segments = ref 0 in
  let truncated_bytes = ref 0 in
  List.iter
    (fun path ->
      match Journal.Store.read store path with
      | None -> ()
      | Some contents ->
          let payloads, scan = Journal.decode contents in
          wal_records := !wal_records + List.length payloads;
          if scan.Journal.corrupt_at <> None then incr corrupt_segments;
          (* the active segment keeps taking appends after recovery, so
             its torn tail is cut physically; older segments are
             immutable and just read short *)
          if path = active && Journal.truncate_active journal contents scan.Journal.good_bytes
          then
            truncated_bytes :=
              !truncated_bytes + (scan.Journal.total_bytes - scan.Journal.good_bytes);
          List.iter (fun p -> if apply p then incr applied else incr refused) payloads)
    (Journal.segment_paths journal);
  (match obs with
  | None -> ()
  | Some o ->
      let c name help = Lla_obs.Metrics.counter o.Lla_obs.metrics name ~help in
      Lla_obs.Metrics.incr
        (c "lla_journal_recoveries_total" "Journal recovery replays performed.");
      Lla_obs.Metrics.add
        (c "lla_journal_replayed_total" "Records replayed from the journal at recovery.")
        !wal_records;
      Lla_obs.Metrics.add
        (c "lla_journal_corrupt_total" "Segments found with a corrupt suffix at recovery.")
        !corrupt_segments;
      Lla_obs.Metrics.add
        (c "lla_journal_truncated_bytes_total" "Torn-tail bytes truncated at recovery.")
        !truncated_bytes;
      let note name value =
        Lla_obs.emit o ~at (Lla_obs.Trace.Note { name; value = float_of_int value })
      in
      note "journal.replayed" !wal_records;
      note "journal.refused" !refused;
      note "journal.corrupt" !corrupt_segments;
      note "journal.truncated_bytes" !truncated_bytes);
  {
    wal_records = !wal_records;
    applied = !applied;
    refused = !refused;
    corrupt_segments = !corrupt_segments;
    truncated_bytes = !truncated_bytes;
  }
