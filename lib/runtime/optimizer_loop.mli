(** The online optimizer actor (paper §6): runs LLA rounds periodically on
    the cluster's engine, enacts the resulting shares on the schedulers,
    and (optionally, from a configurable instant — Fig. 8 enables it at
    t=277s) applies online model error correction from measured job
    latencies. *)

open Lla_model

type config = {
  iterations_per_round : int;
  error_correction : [ `Disabled | `Enabled_at of float ];
      (** absolute engine time (ms) at which correction turns on. *)
  correction_per_task_percentiles : bool;
      (** when true, each subtask samples at the percentile derived from
          its task's [latency_percentile] via
          {!Lla_model.Percentile_map.for_task} (paper §2.1) instead of
          the flat 95th percentile. *)
  enact_threshold : float;
      (** relative share change below which a new allocation is not pushed
          to the scheduler (the paper enacts "only when significant
          changes occur", §4.4). 0 = always enact. *)
  track_arrival_rates : bool;
      (** when true, each round feeds {!Dispatcher.measured_rate} into
          {!Lla.Solver.set_arrival_rate}, so the optimizer's rate-stability
          bounds follow the *observed* workload rather than the static
          specification — the paper's workload-variation adaptivity. *)
}

(** The optimizer runs a {!Lla.Solver} with its default config for 2000
    warmup iterations before the first enactment ("the optimizer runs
    continuously until the utility improvement ... is below 1%"), then a
    round every {!period}. Error correction skips a subtask with fewer
    than 8 samples. *)

val period : float
(** 1000: ms between optimization rounds. *)

val default_config : config
(** 50 iterations/round, correction disabled, flat percentiles,
    threshold 0 (always enact), rate tracking off. *)

type t

val create :
  ?obs:Lla_obs.t ->
  ?config:config ->
  cluster:Cluster.t ->
  dispatcher:Dispatcher.t ->
  unit ->
  t
(** Registers a subtask-latency observer on the dispatcher (for the
    correctors) and prepares a solver over the cluster's workload. [obs]
    is forwarded to the solver and to the per-subtask correctors (each
    named after its subtask), so solver iterations and correction rounds
    land in the shared trace, where a streaming {!Lla_obs.Monitor}
    attached with {!Lla_obs.Monitor.attach} follows every solver
    iteration live. *)

val start : t -> unit
(** Run warmup, enact, and schedule the periodic rounds on the
    cluster's scheduling core. *)

val solver : t -> Lla.Solver.t

val share_trace : t -> Ids.Subtask_id.t -> Lla_stdx.Series.t
(** Enacted share over time (x = engine ms). *)

val offset_trace : t -> Ids.Subtask_id.t -> Lla_stdx.Series.t
(** Error-correction offset over time. *)

val offset : t -> Ids.Subtask_id.t -> float

val enactments : t -> int
(** Number of share updates actually pushed to schedulers. *)

val skipped_enactments : t -> int
(** Updates suppressed by [enact_threshold]. *)
