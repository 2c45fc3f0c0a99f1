(** The paper's simulation workload (§5.1, Fig. 4 and Table 1).

    Three tasks on eight resources, each mirroring one distributed
    application archetype:

    - Task 1 — push (publish/subscribe, multicast): a producer ([T11])
      pushes through a hub ([T12]) to five consumers ([T13]..[T17]).
    - Task 2 — complex pull (sensor aggregation): a requester ([T21])
      queries two branches ([T22]->[T24] and [T23]->[T25]), aggregates
      ([T26]) and forwards the result ([T27] -> [T28]).
    - Task 3 — simple pull (client/server): a six-stage chain
      ([T31] -> ... -> [T36]).

    The graph shapes are reverse-engineered from Table 1: the reported
    per-subtask latencies identify the critical paths exactly
    (44.9 = T11+T12+T15; 75.6 = T21+T22+T24+T26+T27+T28;
    52.8 = the whole chain) — see DESIGN.md.

    All tasks are triggered every 100 ms; critical times are 45, 76 and
    53 ms; execution times follow Table 1; utilities are the paper's
    linear [f(x) = 2*C - x]. Resource availabilities are set to the share
    sums implied by the reported optimum, realizing the paper's "all
    resources close to congestion". *)

open Lla_model

val base : ?variant:Utility.variant -> unit -> Workload.t
(** The 3-task workload. Default variant: [Path_weighted] (§5.2). *)

val scaled : ?critical_time_factor:float -> copies:int -> unit -> Workload.t
(** §5.3: [copies] identical copies of each base task (same subtask
    graphs, parameters and resource mapping; [Path_weighted] utility). Critical times are scaled by
    [critical_time_factor] (default [1.25 * copies]) to keep the workload
    schedulable as contention grows. [scaled ~copies:1] with factor 1 is
    {!base}. *)

val unschedulable_six : unit -> Workload.t
(** §5.4: the 6-task workload with the *original* critical times — more
    demand than the resources can serve within the deadlines. *)

val reported_latencies : (string * float) list
(** Table 1's reported optimal subtask latencies, ms (["T11"], ...). *)

val reported_critical_paths : (string * float) list
(** Table 1's reported per-task critical paths: 44.9, 75.6, 52.8 ms. *)

val critical_times : (string * float) list
(** 45, 76, 53 ms. *)
