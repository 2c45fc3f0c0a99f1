(** Figure 8 reproduction: the prototype system experiment with online
    model error correction. The 4-task workload runs on a simulated
    3-CPU cluster under a Surplus-Fair scheduler; the optimizer enacts
    shares periodically; at a configurable instant error correction turns
    on. The paper's shape: fast subtask shares drop from 0.26 to the
    rate-stability minimum 0.20 (-23%), slow subtask shares rise from
    0.19 to 0.25 (+32%), and the error value keeps fluctuating but its
    mean stabilizes. *)

type result = {
  fast_share_series : Lla_stdx.Series.t;
  slow_share_series : Lla_stdx.Series.t;
  fast_error_series : Lla_stdx.Series.t;
  shares : (string * float * float) list;
      (** label ("fast-before", ...), paper value, measured value. *)
  fast_change_percent : float;
  slow_change_percent : float;
  deadline_misses : int;  (** across all tasks, full run. *)
  completions : int;
  measured_utility : Lla_stdx.Series.t;
}

val run :
  ?duration:float ->
  ?enable_correction_at:float ->
  unit ->
  result
(** Defaults: 120 s simulated, correction enabled at 60 s. The cluster
    runs an SFS scheduler with a 1 ms quantum. *)

val report : result -> string
