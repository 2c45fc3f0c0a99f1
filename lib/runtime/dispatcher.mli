(** Job dispatching (§2's execution semantics): triggering events release
    job sets; a subtask's job becomes eligible when all its predecessors'
    jobs in the same job set complete; end-to-end latency is the interval
    from the task release to the completion of the last end subtask.

    Job sets may overlap (the paper's generalization for bursty arrivals):
    a new release does not wait for the previous one — overlapping jobs of
    the same subtask queue FIFO at its resource. *)

open Lla_model

(** How actual job service time relates to the specified WCET. *)
type work_model =
  | Wcet  (** every job costs exactly the WCET. *)
  | Uniform_fraction of { lo : float }
      (** cost is [WCET * uniform(lo, 1)] — realistic variation below the
          worst case, one of the model-error sources §6.3 corrects for. *)

type t

val create :
  ?work_model:work_model ->
  cluster:Cluster.t ->
  unit ->
  t
(** Default [Wcet]; execution-time draws use seed 1. *)

val on_subtask_completion : t -> (Ids.Subtask_id.t -> latency:float -> now:float -> unit) -> unit
(** Register an observer of per-job subtask latencies (eligibility to
    completion, ms). Multiple observers are allowed. *)

val on_task_completion : t -> (Ids.Task_id.t -> latency:float -> now:float -> unit) -> unit
(** Observer of end-to-end job-set latencies. *)

val start : t -> unit
(** Begin releasing job sets: each trigger arrival schedules the next, so
    releases continue for as long as the caller runs the engine
    ([Engine.run_until] bounds the simulation). Idempotent per dispatcher
    — calling twice would double the arrival streams, so it raises. *)

val releases : t -> int
(** Job sets released so far. *)

val measured_rate : t -> Ids.Task_id.t -> float option
(** Arrival rate (jobs per ms) measured over the task's most recent
    releases (a sliding window of 32); [None] before the second release.
    This is the runtime's view of the trigger — the paper's "arrival
    patterns ... measured at runtime" (§2). *)

val completions : t -> int
(** Job sets fully completed so far. *)

val in_flight : t -> int
