(** Latency-percentile composition (paper §2.1).

    Utilities may be computed from a percentile of end-to-end latencies
    rather than the worst case. Percentiles do not add along a path: if
    each of two subtasks independently meets a latency bound with
    probability [p/100], the path meets the sum of the bounds only with
    probability [(p/100)^2]. Hence for a task targeting its [p]-th
    end-to-end percentile over a path of [n] subtasks, each subtask's
    latency model must target the

    {[ p^(1/n) * 100^((n-1)/n) ]}

    percentile (the paper's formula), so the per-subtask bounds compose to
    the requested end-to-end percentile. *)

open Ids

val for_task : Task.t -> float Subtask_id.Map.t
(** Per-subtask sampling percentile for the task's configured
    [latency_percentile]. When path lengths differ, a subtask uses the
    longest path through it (the conservative choice the paper's "separate
    latency functions" remark motivates). *)
