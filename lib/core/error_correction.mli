(** Online model error correction (paper §6.3).

    The share model's latency prediction can be wrong — notably, job
    releases of subtasks sharing a resource are not synchronized, so the
    worst-case model over-predicts. The corrector maintains, per subtask,
    an additive error: it collects measured job latencies, periodically
    takes a high percentile of the window, compares it with the model's
    prediction at the current share, and exponentially smooths the
    difference. The smoothed error becomes the {!Solver.set_offset}
    offset: [corrected_prediction = model_prediction + error]. *)

type t

val create :
  ?obs:Lla_obs.t -> ?name:string -> ?percentile:float -> unit -> t
(** Default [percentile = 95] (the paper uses "greater than 90th
    percentile" samples), over a window of 256 measured latencies per
    correction round; a new error sample enters the smoothed offset with
    weight 0.3.
    When [obs] is supplied the corrector emits
    {!Lla_obs.Trace.Correction_applied} on every completed round and
    [Guard_fired] for every skipped non-finite sample/prediction, tagged
    with [name] (default ["corrector"]). *)

val observe : ?at:float -> t -> measured_latency:float -> unit
(** Record one measured job latency (ms). A non-finite measurement is
    skipped (and counted in {!skipped_samples}) — one admitted NaN would
    poison the smoothed offset forever. [at] stamps the trace record when
    [obs] is active (default 0). *)

val sample_count : t -> int
(** Measurements accumulated since the last {!correct}. *)

val skipped_samples : t -> int
(** Non-finite measurements (and correction rounds with a non-finite
    prediction) discarded by the guards. *)

val correct : ?at:float -> t -> predicted:float -> float option
(** Fold the window into the smoothed error given the model's current
    uncorrected prediction: error sample = percentile(window) - predicted.
    Returns the new offset and clears the window; [None] (and keeps state)
    when no measurement arrived since the last round, or when [predicted]
    is non-finite (counted in {!skipped_samples}; window kept). *)

val offset : t -> float
(** Current smoothed additive error (0 until the first correction). *)

val corrections : t -> int
(** Number of completed correction rounds. *)
