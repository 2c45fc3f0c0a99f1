(** Metrics registry: named counters, gauges and histograms with O(1)
    hot-path updates.

    A metric instance is identified by its name plus, for a counter, its
    (sorted) label set; registering the same identity twice returns the {e same} instance,
    so independent components can share a counter without coordination.
    Updates touch only the instance record — no table lookups — which is
    what lets the runtime replace its ad-hoc [mutable int] counters with
    registry-backed ones at identical cost.

    {!expose} renders the whole registry in the Prometheus text
    exposition format (families in registration order, instances in label
    order; histograms with cumulative [_bucket{le=...}], [_sum] and
    [_count] series). *)

type t
(** A registry. *)

type counter

type gauge

type histogram

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Find-or-create. @raise Invalid_argument when the name is already
    registered as a different metric kind. *)

val gauge : t -> ?help:string -> string -> gauge

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are the upper bounds of the cumulative buckets (an implicit
    [+Inf] bucket is always appended); they must be strictly increasing.
    Default: 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500 and 1000. @raise Invalid_argument on an empty or
    non-increasing layout, or when a second registration of the same
    identity passes a different layout. *)

(** {2 Hot-path updates (O(1); histogram observe is O(buckets))} *)

val incr : counter -> unit

val add : counter -> int -> unit
(** @raise Invalid_argument on a negative increment (counters are
    monotone). *)

val set : gauge -> float -> unit
(** Plain write; leaves the gauge's last-writer stamp untouched (see
    {!set_at}). *)

val set_at : gauge -> at:float -> float -> unit
(** Write plus a last-writer stamp. {!merge} resolves gauges registered
    by several shards in favour of the highest [(at, shard)] writer, so
    any gauge that can be written from more than one shard should be set
    through [set_at] with the engine clock. Stamps start at [-inf] (a
    never-stamped gauge always loses to a stamped one). *)

val observe : histogram -> float -> unit

(** {2 Reads} *)

val value : counter -> int

val gauge_value : gauge -> float

val histogram_count : histogram -> int

val histogram_sum : histogram -> float

val bucket_counts : histogram -> (float * int) list
(** Cumulative counts per upper bound, ending with [(infinity, count)]. *)

val quantile : histogram -> q:float -> float option
(** Bucket-interpolated quantile estimate (the Prometheus
    [histogram_quantile] rule): locate the cumulative bucket containing
    rank [q * count] and interpolate linearly between its bounds,
    treating observations as uniform within a bucket. Empty buckets are
    skipped, so [q = 0.] reports the lower edge of the first populated
    bucket rather than the upper edge of an empty one. Ranks landing in
    the open [+Inf] bucket — including every rank when all observations
    exceeded the highest bound, and [nan] observations, which {!observe}
    routes there — report the highest finite bound (there is no upper
    edge to interpolate towards). [None] when the histogram is empty,
    [q] is [nan], or [q] is outside [0, 1]; never raises and never
    divides by an empty bucket. *)

val summary : ?name:string -> histogram -> string
(** One-line [count/sum/mean/p50/p90/p99] digest via {!quantile},
    prefixed with [name] when given; ["<name>: no observations"] on an
    empty histogram. Quantiles come from bucket counts and are always
    finite, but [sum] (and therefore [mean]) accumulates raw observed
    values — a [nan]/[inf] observation deliberately poisons them, making
    the corruption visible in the digest instead of averaging it away. *)

val find_counter : t -> ?labels:(string * string) list -> string -> counter option
(** Lookup without creating (tests, expositions of foreign components). *)

val find_gauge : t -> string -> gauge option

val find_histogram : t -> string -> histogram option

val merge : t list -> t
(** Snapshot-merge per-shard registries into one fresh registry (the
    barrier-time merge behind [Lla_runtime.Distributed.merged_metrics]
    on a domains engine, where each shard owns its registry outright so
    no counter is shared on the parallel hot path): counters with the same
    identity sum, histograms add bucket-wise (their layouts must match),
    and gauges resolve last-writer-wins by [(stamp, shard)] — the shard
    index is the position in the input list, so ties between never-
    stamped copies go to the highest shard, deterministically. Family
    order follows the first list element (shard 0), with families only
    later shards registered appended after. The inputs are not modified
    and must be at rest (merge at a barrier, not mid-phase).
    @raise Invalid_argument when the same name is registered with
    different kinds, or a histogram identity with different layouts,
    across shards. *)

val expose : t -> string
(** Prometheus text exposition of every registered metric. Label values
    are escaped per the text format (backslash, double quote, newline);
    [# HELP] text escapes backslash and newline. *)
