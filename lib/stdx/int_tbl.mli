(** Hash tables keyed by [int], hashed by a multiply-and-fold mix instead
    of the polymorphic C hash. A hit allocates nothing. *)

val hash : int -> int
(** The key mix: non-negative, and strided keys spread over the buckets. *)

include Hashtbl.S with type key = int
