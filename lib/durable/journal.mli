(** Append-only write-ahead journal with per-record CRCs.

    The durability tier's write path: callers append opaque payload
    records (one checkpoint slot per record, in practice the
    {!Lla_runtime.Checkpoint} JSONL codec's lines), and the journal
    frames each one as [length | crc32 | payload] on an append-only
    segment. Segments rotate at a size cap with the {!Lla_obs.Rotate}
    shifting idiom ([journal.wal] active, [journal.wal.1] the most
    recent rotated, up to [journal.wal.3]).

    Two storage backends share the {!Store} interface: a real
    file-per-path backend ({!Store.file}) for actual durability, and an
    in-memory {!Store.faulty} backend that models the page cache /
    durable-media split and injects seeded, schedulable storage faults
    in {!Lla_transport.Transport}'s style — torn writes at arbitrary
    byte offsets, bit flips, dropped syncs, short reads and
    ENOSPC-style write failures. With every fault probability at zero
    the faulty store draws no randomness, so a zero-fault run is
    bit-for-bit a faultless one.

    Failure discipline: a write failure {e wedges} the journal — further
    appends become no-ops and the system degrades to cold-restart
    recovery — rather than raising into the control plane. That holds
    for the faulty store's injected ENOSPC and for a real failed write
    or flush on a file store alike. Nothing un-wedges a journal: it
    stays wedged for the life of the process, also once the store
    accepts writes again. Never a crash.

    With [?obs], journal activity lands in the [lla_journal_*] metrics
    family (appends, bytes, syncs, rotations, wedges);
    without it the journal touches nothing observable (the standing
    golden-trace guarantee). *)

(** {1 Record framing} *)

val encode_record : string -> string
(** [length(u32 LE) | crc32(u32 LE) | payload], where the CRC is the
    IEEE 802.3 reflected CRC-32 (the zlib/PNG polynomial) of the
    payload. *)

type entry = { offset : int; length : int; crc : int }
(** One valid record located by {!decode}: byte offset of its header,
    payload length, stored CRC. *)

type scan = {
  entries : entry list;  (** valid records, in file order. *)
  good_bytes : int;  (** recoverable prefix length in bytes. *)
  total_bytes : int;
  corrupt_at : int option;  (** first corrupt byte offset, if any. *)
  corrupt_reason : string option;  (** ["short header"], ["bad crc"], ... *)
}

val decode : string -> string list * scan
(** Walk a segment's raw contents record by record, stopping at the
    first corruption (short header, a length over 16 MiB, truncated
    payload or CRC mismatch), and decode the payloads of the valid
    prefix. Total function: never raises, any byte string yields a valid
    prefix, and a torn length prefix cannot make recovery attempt a
    gigabyte read. *)

(** {1 Storage backends} *)
module Store : sig
  type faults = {
    torn_write : float;
        (** probability that, at {!crash} time, a prefix of the unsynced
            tail survives cut at a uniformly random byte offset (instead
            of the tail vanishing cleanly). *)
    bit_flip : float;  (** probability an append lands with one bit flipped. *)
    drop_sync : float;  (** probability a sync barrier is silently dropped. *)
    short_read : float;  (** probability a read returns only a prefix. *)
    fail_write : float;  (** probability an append fails ENOSPC-style. *)
  }

  val no_faults : faults

  type t

  val file : dir:string -> t
  (** Real files under [dir] (created if missing). Appends go through
      buffered channels; {!sync} flushes and [fsync]s. Atomic whole-file
      writes use the [tmp]+[rename] idiom. {!crash} is a no-op (real
      durability is the point). *)

  val faulty : ?seed:int -> unit -> t
  (** In-memory model of a crash-prone disk: each path holds a durable
      prefix plus an unsynced tail; {!sync} advances the durable
      frontier (unless dropped), {!crash} discards the unsynced tail —
      torn at a random byte offset with probability [torn_write] —
      without touching durable bytes. It starts with {!no_faults};
      {!set_faults} sets the probabilities. Faults draw from a private
      seeded stream (default seed 0); zero probabilities draw nothing. *)

  val set_faults : t -> faults -> unit
  (** Swap the live fault probabilities (schedulable storage-fault
      windows). No-op on a file store.
      @raise Invalid_argument on a probability outside [\[0,1]]. *)

  val active_faults : t -> faults
  (** Current probabilities ({!no_faults} on a file store). *)

  val crash : t -> unit
  (** Model a whole-process crash: unsynced bytes are lost (modulo a
      torn surviving prefix). No-op on a file store. *)

  val faults_injected : t -> int
  (** Faults actually fired so far (0 on a file store). *)

  (** {2 Path operations (used by {!Journal} and {!Recovery})} *)

  val append : t -> string -> string -> (unit, string) result
  (** [append t path data]: [Error] on an injected write failure, or on
      a file store when opening or writing the file fails. *)

  val sync : t -> string -> (unit, string) result
  (** Sync barrier on [path]: [Error] when a file store's flush fails.
      After an append or sync to a file fails, every later append or
      sync to that path answers the same [Error], and no store
      operation raises it. *)

  val read : t -> string -> string option
  (** Whole-file contents; [None] when the path does not exist. *)

  val write : t -> string -> string -> (unit, string) result
  (** Atomic whole-file replace: [Error] when a file store fails to
      open, write, flush, close or rename the [tmp] file, and then the
      file keeps its old contents. *)
end

(** {1 The journal} *)

type config = {
  max_segment_bytes : int;  (** rotation threshold (default 1 MiB). *)
  sync_every : int;  (** appends between implicit sync barriers (default 1). *)
}

val default_config : config

type t

val create : ?obs:Lla_obs.t -> ?config:config -> Store.t -> t
(** A journal writing segments [journal.wal\[.k\]] (under {!Store.file},
    in the store's directory), keeping three rotated segments.
    @raise Invalid_argument on a non-positive size cap or sync cadence. *)

val append : t -> string -> unit
(** Frame and append one payload record to the active segment, rotating
    at the size cap and syncing every [sync_every] appends. On a wedged
    journal (a previous write failure) this is a no-op. *)

val sync : t -> unit
(** Explicit sync barrier on the active segment; a failed barrier wedges
    the journal. *)

val truncate_active : t -> string -> int -> bool
(** [truncate_active t contents good_bytes]: [contents] is the active
    segment as {!Recovery} read it and [good_bytes] the length of its
    valid records. A longer segment (a torn tail) is replaced by that
    prefix; the store is written only then. Either way the segment size
    that rotation reads restarts at the segment's stored length (taken
    from the store, not from [contents], which a [short_read] fault can
    shorten), so bytes a cut or a crash dropped do not count toward
    [max_segment_bytes].
    Answers whether it cut. When the store fails the write, the segment
    keeps its torn tail and the journal wedges, so no later append lands
    behind the corrupt frame where replay would never reach it; the
    answer is [false]. *)

val wedged : t -> bool

val appends : t -> int
(** Records accepted (excludes appends dropped while wedged, and the
    record whose write or sync barrier wedged the journal). *)

val bytes_written : t -> int
(** Encoded bytes appended to segments (framing included). *)

val rotations : t -> int

val store : t -> Store.t

val segment_paths : t -> string list
(** Replay order: oldest rotated segment, ..., active segment. Only
    paths that currently exist. *)

val active_path : t -> string
