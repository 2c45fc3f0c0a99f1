(** Deterministic pseudo-random numbers (splitmix64 / xoshiro256++).

    Every stochastic component of the repository draws from an explicit
    [Rng.t] so experiments are reproducible bit-for-bit. Streams can be
    {!split} to give independent generators to independent components. *)

type t

val create : seed:int -> t
(** Generator seeded deterministically from [seed] via splitmix64. *)

val split : t -> t
(** A new generator statistically independent of the parent. Advances the
    parent. *)

val int64 : t -> int64
(** Next raw 64-bit output (xoshiro256++). *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform in [\[lo, hi)]. Requires [lo <= hi]. *)

val int : t -> bound:int -> int
(** Uniform in [\[0, bound)]. Requires [bound > 0]. *)

val bool : t -> bool

val exponential : t -> rate:float -> float
(** Exponentially distributed with the given [rate] (mean [1/rate]).
    Requires [rate > 0]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Requires a non-empty array. *)
