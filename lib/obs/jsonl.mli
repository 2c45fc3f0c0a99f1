(** Minimal JSON values for the observability layer's line-oriented codecs.

    Zero-dependency by design: the trace sinks and the checkpoint codec
    must not pull a JSON library into the hot control plane. One
    deliberate deviation from RFC 8259: non-finite numbers are printed as
    the bare tokens [nan], [inf] and [-inf], and the parser accepts them
    back — the codecs that refuse non-finite state (see
    {!Lla_runtime.Checkpoint}) need to round-trip the poisoned values they
    reject so the refusal path itself is testable. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no spaces outside strings), suitable
    for JSONL. Integral floats print without a fractional part; other
    finite floats print with 17 significant digits (lossless
    round-trip). *)

val parse : string -> (t, string) result
(** Parse one JSON value; trailing non-whitespace is an error. Accepts the
    non-finite tokens written by {!to_string}. *)

val member : string -> t -> t option
(** [member key (Obj _)] is the value bound to [key], if any; [None] on
    non-objects. *)

val num : t -> float option

val str : t -> string option

val bool : t -> bool option

val arr : t -> t list option

val floats : float array -> t
(** A JSON array of the numbers, in order. *)

val array_field : (t -> 'a option) -> string -> t -> 'a array option
(** [array_field elem key json]: the array bound to [key], each item read
    by [elem]; [None] when [key] is absent or not an array, or when any
    item does not read. *)
