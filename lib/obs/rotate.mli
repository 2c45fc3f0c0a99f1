(** Bounded, rotating JSONL trace sink.

    A {!Trace.attach}-compatible sink that appends one JSONL line per
    record to a file and {b rotates} it when the active segment exceeds
    a byte or record cap: the segment is closed and renamed [path.1],
    existing [path.k] shift to [path.(k+1)], and segments beyond the
    retention count are deleted. Total disk usage is therefore bounded
    by roughly [(retain + 1) * max_bytes] no matter how long the run —
    the property a multi-hour soak needs so tracing cannot fill the
    disk. Plain single-file streaming (the [lla_cli trace] default)
    does not go through this module and is unchanged. *)

type t

val create : ?max_bytes:int -> ?max_records:int -> ?retain:int -> path:string -> unit -> t
(** Opens [path] for writing (truncating an existing file). A segment
    rotates after the record that pushes it past [max_bytes] (default
    [64 * 1024 * 1024]) or up to [max_records] records (default: no
    record cap), so a segment may overshoot the byte cap by at most one
    record. [retain] (default 3) rotated segments are kept besides the
    active file; [retain = 0] means rotation simply truncates.
    @raise Invalid_argument on non-positive caps or negative [retain];
    @raise Sys_error when the file cannot be opened. *)

val sink : t -> Trace.record -> unit
(** The sink to pass to {!Trace.attach}. Writes are line-buffered by the
    channel; call {!close} before reading the files. *)

val close : t -> unit
(** Flushes and closes the active segment. Further {!sink} calls are
    silently dropped. *)

val records_written : t -> int
(** Total records across all segments, including deleted ones. *)

val rotations : t -> int

val segments : t -> string list
(** Existing segment paths, newest first, starting with the active
    file. *)
