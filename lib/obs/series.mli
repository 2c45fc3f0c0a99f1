(** Time-series extraction from trace streams.

    Each function projects a {!Trace.record} list — the live ring, a
    collecting sink, or a JSONL dump loaded with {!load_jsonl} — onto
    [(time, value)] samples for {!Analyze}. Pure; stream order is
    preserved. *)

val utility : Trace.record list -> (float * float) list
(** The global objective over time. Synchronous-solver streams use the
    [Iteration] events directly. Distributed streams (no global
    iteration) rebuild it from [Allocation_solved]: the running sum of
    each task's latest local utility, sampled on every solve once all
    tasks that ever report have reported at least once (before that the
    sum would mix in unsolved tasks). *)

val prices : Trace.record list -> (int * (float * float) list) list
(** Per-resource [mu] trajectory from [Price_updated], resources in
    first-appearance order. *)

val congestion : Trace.record list -> (int * (float * float) list) list
(** Per-resource [share_sum / capacity] trajectory (Eq. 3 load factor;
    [> 1] means the constraint is violated at that instant). *)

val load_jsonl : string -> (Trace.record list, string) result
(** Read a [write_jsonl] dump back; blank lines are skipped; [Error]
    carries [file:line: reason] for the first bad line. *)
