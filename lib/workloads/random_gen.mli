(** Random workload generation for property tests and ablation studies.

    Workloads are *schedulable by construction*: a witness latency
    assignment is drawn first, critical times are set above the witness
    path latencies, and resource availabilities above the witness share
    sums. {!make_unschedulable} then breaks the witness by shrinking
    either capacities or critical times. *)

open Lla_model

val generate : seed:int -> unit -> Workload.t
(** Four tasks of 3–7 subtasks — chains, fan-outs and diamonds — on
    eight resources. Deterministic in [seed]. *)

val make_unschedulable : ?severity:float -> seed:int -> Workload.t -> Workload.t
(** Shrinks every critical time by [severity] (default 2.5) — the
    resulting demand cannot be met, mirroring the paper's §5.4 experiment.
    [seed] picks which tasks shrink first when severity is mild. *)
