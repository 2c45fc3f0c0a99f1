(** Figure 6 reproduction: scalability in the number of tasks. The paper
    duplicates the base workload to 6 and 12 tasks (over-provisioning
    critical times to preserve schedulability) and shows that convergence
    speed does not depend on the task count while total utility grows
    linearly with it. *)

type point = {
  n_tasks : int;
  critical_time_factor : float;
  converged_at : int option;
  utility : float;
  utility_per_task_normalized : float;
      (** utility / n_tasks / critical-time factor — constant when the
          growth is linear. *)
  series : Lla_stdx.Series.t;
}

type result = { points : point list }

val run : ?iterations:int -> unit -> result
(** Default 2000 iterations; 1, 2 and 4 copies (3, 6 and 12 tasks). *)

val report : result -> string
