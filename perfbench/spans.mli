(** The benchmark's own spans, kept in memory.

    A span is opened around one call into a layer; it records its name,
    start and stop on an injected clock, and the span that was open when
    it began (its parent). Self times per layer come from the profiler
    ({!Ledger}); the spans give the parent tree written to JSONL, the
    soak's window marks and the root's wall. *)

type span = { id : int; parent : int; name : string; start : float; stop : float }
(** [parent = -1] for a root. Times are seconds on the recorder's clock. *)

type t

val create : clock:(unit -> float) -> t

val with_span : t -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span nested under the currently open one. The
    span is closed even when the thunk raises. *)

val mark : t -> string -> start:float -> stop:float -> unit
(** Record an interval measured by the caller (for work delimited by
    callbacks rather than by one call) as a closed child of the
    innermost open span. *)

val spans : t -> span list
(** Closed spans in opening order. *)

val to_json_line : span -> string
(** One JSON object: [{"id":..,"parent":..,"name":..,"start_s":..,"dur_s":..}]. *)
