(** Order statistics and failure accounting for the benchmark.

    Every function copies before sorting, so callers may pass live
    sample buffers. *)

val median : float array -> float
(** Midpoint of the sorted samples (mean of the two middle ones for an
    even count). @raise Invalid_argument on an empty array. *)

val quartiles : float array -> float * float * float
(** First quartile, median and third quartile by the exclusive method
    (positions [k (n + 1) / 4], linearly interpolated) — the values
    Python's [statistics.quantiles(xs, n=4)] returns. @raise
    Invalid_argument with fewer than two samples. *)

val iqr_share : float array -> float
(** [(q3 - q1) / median]: the run-to-run spread the benchmark's bounds
    are judged against. [infinity] when the median is 0. *)

val min_beyond : int
(** Samples a percentile must have strictly beyond its rank (10). *)

val percentile : float array -> p:float -> (float, string) result
(** Nearest-rank [p]-th percentile ([0 < p < 100]): the sample at rank
    [ceil (p n / 100)]. [Error] when fewer than {!min_beyond} samples lie
    beyond that rank, so a p99 needs at least 1000 samples and a p50 at
    least 20 — a tail read off a handful of samples is noise. *)

val part_size : int
(** Fewest samples in a part (1000): the fewest that carry a p99 by the
    ten-beyond rule. *)

val max_parts : int
(** Most parts a run is split into (5). *)

val parts : int -> (int * int) list
(** [parts n] splits indices [0, n) into [min max_parts (n / part_size)]
    (at least one) contiguous ranges [(lo, len)] whose lengths differ by
    at most one. *)

val part_percentiles : float array -> p:float -> (float array, string) result
(** Each part's {!percentile}; [Error] when a part is too short for it.
    Interference on a shared host comes in bursts lasting seconds, so
    callers take the median over parts — the typical part — rather than
    pooling every sample, which one burst can drag. *)

val part_rates : float array -> per_sample:(int -> float) -> (float array, string) result
(** Work per second of each part: [walls] holds the wall seconds of
    consecutive operations or batches, [per_sample i] the work in sample
    [i]. [Error] on fewer than {!part_size} samples. *)

type tally = { attempted : int; failed : int }
(** Operations a run attempted and how many of them failed. *)

val tally : unit -> tally

val record : tally -> ok:bool -> tally

val failed_share : tally -> float
(** [failed / attempted]. @raise Invalid_argument when nothing was
    attempted or the counts are inconsistent. *)

val ok_share : tally -> float
(** [1 - failed_share]. *)
