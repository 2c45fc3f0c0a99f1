(** The paper's prototype workload (§6.2, Figure 8).

    Four tasks, each a linear chain of three subtasks across three CPU
    resources (every CPU serves one subtask of every task):

    - tasks 1, 2 ("fast"): WCET 5 ms per subtask, released 40/s, critical
      time 105 ms;
    - tasks 3, 4 ("slow"): WCET 13 ms per subtask, released 10/s,
      critical time 800 ms.

    Utility is [f(lat) = -lat] for every task; CPUs run a
    proportional-share scheduler with 5 ms lag; availability is 0.9 (0.1
    is reserved for the Metronome garbage collector). Minimum
    rate-stability shares are 0.2 (fast) and 0.13 (slow), i.e. 66% load
    per CPU. *)

open Lla_model

val workload : unit -> Workload.t

val workload_with_rate_change : switch_at:float -> fast_period_after:float -> unit -> Workload.t
(** Same system, but the fast tasks switch their release period at the
    absolute time [switch_at] (ms) — e.g. [fast_period_after = 16.7] turns
    40/s into 60/s, raising the fast rate-stability floor from 0.2 to 0.3.
    Drives the workload-variation experiment. *)

val fast_task_ids : Ids.Task_id.t list

val slow_task_ids : Ids.Task_id.t list

val fast_min_share : float
(** 0.2 = 40/s * 5 ms. *)

val slow_min_share : float
(** 0.13 = 10/s * 13 ms. *)

val reported_shares : (string * float) list
(** Figure 8's share levels: fast subtasks 0.26 before / 0.20 after error
    correction; slow subtasks 0.19 before / 0.25 after. *)
