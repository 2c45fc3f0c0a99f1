(** The synchronous LLA engine (paper §4): iterate latency allocation and
    price computation, record trajectories, detect convergence.

    This is the engine used by the paper's simulation experiments (§5). An
    "iteration" here is exactly the paper's: one latency allocation by each
    task controller followed by one price computation at each resource and
    path. The message-passing deployment of the same mathematics lives in
    [Lla_runtime]. *)

open Lla_model

type config = {
  step_policy : Step_size.policy;
  record_shares : bool;  (** also record per-resource share-sum series (Fig. 7). *)
}
(** Every solver starts its prices at {!mu0} and {!lambda0}, runs 2
    Gauss–Seidel sweeps per allocation (non-linear utilities), counts as
    converged once the utility's relative spread stays under 1% over
    {!convergence_window} iterations (the paper's prototype stops at
    "utility improvement below 1%"), and allows {!feasibility_tolerance}
    relative slack on Eq. 3 and 4. {!Lla_scale.Kernel} and
    [Lla_runtime.Distributed] read the same values. *)

val mu0 : float
(** Initial resource price, 1. *)

val lambda0 : float
(** Initial path price, 0. *)

val convergence_window : int
(** Iterations convergence is judged over, 50. *)

val feasibility_tolerance : float
(** Relative slack on Eq. 3 and 4, 0.005. *)

val default_config : config
(** Adaptive steps from 1.0 (the paper's best, §5.2). *)

type t

val create : ?obs:Lla_obs.t -> ?config:config -> Workload.t -> t
(** [obs] opts the solver into the observability layer: every step emits
    one {!Lla_obs.Trace.Iteration} record plus per-resource/per-path price
    records (via {!Price_update.update}) stamped with the iteration
    number, and maintains [lla_solver_*] registry metrics. Omitting it
    (the default) skips all emission — the trajectory is identical either
    way. *)

val problem : t -> Problem.t

val iteration : t -> int

val step : t -> unit
(** One LLA iteration. *)

val run : t -> iterations:int -> unit

val run_until_converged : t -> max_iterations:int -> int option
(** Steps until the utility series settles
    ({!Lla_stdx.Series.converged_at}: 1% over 50 iterations) with the
    allocation still over that window and the point feasible, or the
    budget runs out; returns the convergence
    iteration. *)

val latency : t -> Ids.Subtask_id.t -> float

val latencies : t -> (Ids.Subtask_id.t * float) list

val share : t -> Ids.Subtask_id.t -> float
(** Share implied by the current latency (with error-correction offset). *)

val shares : t -> (Ids.Subtask_id.t * float) list

val utility : t -> float
(** Current total utility (Eq. 2). *)

val utility_series : t -> Lla_stdx.Series.t

val movement_series : t -> Lla_stdx.Series.t
(** Max relative latency change per iteration (the second convergence
    signal; also what {!Lla_scale.Kernel} reports as [movement]). *)

val share_series : t -> (Ids.Resource_id.t * Lla_stdx.Series.t) list
(** Per-resource share-sum trajectories; empty unless
    [config.record_shares]. *)

val critical_paths : t -> (Task.t * Ids.Subtask_id.t list * float) list
(** Per task: the critical path under the current latencies and its
    latency. *)

val feasible : t -> bool
(** Both constraint families satisfied within 0.5% at the current
    latencies. *)

val violations : t -> string list

val set_offset : t -> Ids.Subtask_id.t -> float -> unit
(** Install a model-error-correction offset (§6.3) for a subtask. *)

val set_capacity : t -> Ids.Resource_id.t -> float -> unit
(** Change a resource's availability [B_r] while the solver keeps running
    — the "resource variations" the algorithm adapts to (§1): a partial
    failure shrinks [B_r], recovered capacity raises it. Subsequent
    iterations re-optimize against the new constraint; the workload model
    itself is not modified. @raise Invalid_argument outside [\[0, 1\]]. *)

val capacity : t -> Ids.Resource_id.t -> float

val set_arrival_rate : t -> Ids.Task_id.t -> float -> unit
(** Update a task's arrival rate (jobs per ms) from runtime measurement
    (§2: "arrival patterns ... measured at runtime"). Recomputes the
    rate-stability latency bound of each of the task's subtasks: a higher
    rate raises the minimum share needed to keep queues bounded, a lower
    rate releases it. [0] removes the bound. @raise Invalid_argument on a
    negative rate. *)

val offset : t -> Ids.Subtask_id.t -> float

val lat_array : t -> float array
(** The raw latency vector (indexed like [Problem.subtasks]); exposed for
    tests and benchmarks. Callers must not mutate it. *)

val mu_array : t -> float array

val lambda_array : t -> float array
