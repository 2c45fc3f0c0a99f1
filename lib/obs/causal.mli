(** Causal span-chain reconstruction.

    The runtime emits one {!Trace.Span} record per unit of
    causally-connected control-plane work (see {!Span} for the context
    carried on messages). This module turns a flat record stream back
    into spans and derives the metric the paper's control loop is judged
    by: the end-to-end {e control-reaction latency} from a price change
    at a resource agent to the next allocation applied at a task
    controller that consumed it.

    Pure functions over {!Trace.record} lists — usable on the live ring,
    a [memory_sink] stream, or a stream loaded back from JSONL
    ({!Series.load_jsonl}). *)

type span = { id : int; parent : int; trace : int; kind : string; actor : string; at : float }
(** One span record lifted out of the stream; [parent = -1] for roots,
    [kind] as documented on {!Trace.Span}. *)

val spans : Trace.record list -> span list
(** Every span in the stream, in stream order. *)

val control_latencies : Trace.record list -> float list
(** For each [alloc] span that consumed a fresh price (its parent chain
    reaches a [price] span through [msg] deliveries only), the reaction
    latency [alloc.at - price.at], in stream order. Alloc spans whose
    chain hits another [alloc] first re-solved without new price input
    and are excluded — the same rule the online
    [lla_control_latency_ms] histogram applies, so the two views agree
    on the same stream. *)
