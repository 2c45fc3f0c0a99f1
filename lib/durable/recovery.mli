(** Crash recovery: replay a {!Journal} into live state.

    [replay] walks the journal's surviving segments in order — rotated
    segments oldest to newest, then the active segment — decoding each
    one with {!Journal.decode}. Within a segment replay stops at the
    first bad CRC (everything past a corruption is suspect); a torn tail
    on the {e active} segment is additionally truncated in place
    ({!Journal.truncate_active}) so the journal can keep appending from
    a clean frontier, and rotation counts the active segment from what
    the store holds after the replay. Every decoded payload is handed to the caller's
    [apply] callback, which owns the semantic checks — in practice
    {!Lla_runtime.Checkpoint}'s save path, so non-finite refusal
    applies to disk state exactly as to live state.

    Replay is a total function of the stored bytes: it never raises on
    corruption, and replaying the same journal twice yields the same
    report (per-slot records are last-write-wins, so re-applying is
    idempotent — the oracle checks this). Nor does reading raise over a
    failed append: a real write failure wedges a file-backed journal as
    the faulty store's ENOSPC does, and the store keeps that failure as
    the path's [Error] instead of raising it when replay reads the
    segment back. Nor does the cut of a torn tail raise: when a file
    store on a full disk fails that whole-file write, replay leaves the
    tail in place, wedges the journal and still returns its report.

    With [?obs], the recovery report additionally lands as trace
    [Note] events ([journal.replayed], [journal.refused],
    [journal.corrupt], [journal.truncated_bytes]) and bumps the
    [lla_journal_recoveries_total] / [lla_journal_replayed_total]
    counters; without it, recovery touches nothing observable. *)

type report = {
  wal_records : int;  (** records decoded from WAL segments. *)
  applied : int;  (** records the [apply] callback accepted. *)
  refused : int;  (** records the [apply] callback rejected. *)
  corrupt_segments : int;  (** segments with a corrupt suffix. *)
  truncated_bytes : int;
      (** torn-tail bytes cut from the active segment (0 when the cut
          failed and wedged the journal). *)
}

val replay : ?obs:Lla_obs.t -> ?at:float -> Journal.t -> apply:(string -> bool) -> report
(** [replay journal ~apply] restores every surviving record through
    [apply] (which returns [true] when the record was accepted) and
    reports what happened. [at] stamps the trace events (default 0). *)
