(** Whole-system emulation: cluster + dispatcher + optimizer actor, with
    measurement. This is the stand-in for the paper's §6 prototype (see
    DESIGN.md for the substitution argument). *)

open Lla_model

type config = {
  scheduler : Lla_sched.Scheduler.kind;
  optimizer : Optimizer_loop.config;
  work_model : Dispatcher.work_model;
}

val default_config : config

type t

val create : ?config:config -> Workload.t -> t

val run : t -> until:float -> unit
(** Start the dispatcher and optimizer and run the engine to the horizon
    (ms). May be called repeatedly with growing horizons. *)

val cluster : t -> Cluster.t

val dispatcher : t -> Dispatcher.t

val optimizer : t -> Optimizer_loop.t

val measured_task_latency : t -> Ids.Task_id.t -> p:float -> float option
(** Percentile of the task's end-to-end latencies over a sliding window
    of the last 512. *)

val task_latency_stats : t -> Ids.Task_id.t -> Lla_stdx.Stats.summary
(** All-time statistics of the task's measured end-to-end latencies. *)

val deadline_misses : t -> Ids.Task_id.t -> int
(** Completions whose end-to-end latency exceeded the critical time. *)

val measured_utility_series : t -> Lla_stdx.Series.t
(** Total utility evaluated on each task's windowed latency percentile,
    sampled once per optimizer period. *)
