(** Convergence analytics over trace streams.

    Pure reductions of {!Series} projections: settling time against the
    offline optimum, oscillation amplitude/period of the converged
    tail, per-resource congestion episodes and price-trajectory
    dispersion, and a control-reaction-latency digest from the
    {!Causal} span tree. {!analyze} bundles the lot into a {!report}
    and {!render} pretty-prints it (the body of [lla_cli analyze]). *)

val default_tolerance : float
(** [0.015] — the 1.5%-of-optimum band the experiment suite uses. *)

val settling_time :
  ?tolerance:float -> target:float -> (float * float) list -> float option
(** Earliest sample time from which the {e entire} suffix of the series
    stays within [tolerance * |target|] of [target] (entering the band
    and leaving again does not count). [None] when the series never
    settles, is empty, or [target] is non-finite. *)

type oscillation = { amplitude : float; period : float option }
(** [amplitude] is half the peak-to-peak range of the second half of
    the series; [period] the mean spacing of its local maxima (needs at
    least two). A report has none when the tail has fewer than two
    samples or no finite values. *)

val episodes : (float * float) list -> (float * float) list
(** Maximal [(start, stop)] intervals of consecutive samples with value
    strictly above [1.], the Eq. 3 load-factor boundary of
    {!Series.congestion}. An episode still open at stream
    end closes at its last sample. *)

type latency = { count : int; mean : float; p50 : float; p90 : float; p99 : float; max : float }

type resource_report = {
  resource : int;
  final_price : float;
  price_dispersion : float;
      (** population standard deviation of the second half of the
          price series: how much it still wanders after its transient. *)
  overload : (float * float) list;
}

type report = {
  records : int;
  span_count : int;
  tolerance : float;
  optimum : float option;
  final_utility : float option;
  settling : float option;
  utility_oscillation : oscillation option;
  resources : resource_report list;
  control_latency : latency option;
}

val analyze : ?tolerance:float -> ?optimum:float -> Trace.record list -> report
(** Full sweep. Settling is measured against [optimum] when given,
    else against the trajectory's own final value. [control_latency]
    quantiles come from a {!Metrics} histogram fed with the
    {!Causal.control_latencies} samples, so offline reports and the
    online [lla_control_latency_ms] series quote the same
    bucket-interpolated estimator; [None] when the stream has no
    qualifying spans. *)

val render : report -> string
(** Human-readable multi-line report. *)
