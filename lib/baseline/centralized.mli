(** Centralized reference optimizer: the same dual problem LLA solves, but
    run to high precision with diminishing step sizes in one place —
    no distribution, no adaptivity. Used as the "optimal" yardstick for
    LLA's converged utility and as a correctness oracle in tests (the
    program is convex, so both must land on the same optimum). *)

open Lla_model

type result = {
  latencies : float Ids.Subtask_id.Map.t;
  utility : float;
  iterations : int;
  kkt_worst : float;  (** worst KKT residual at the returned point. *)
}

val solve : ?iterations:int -> Workload.t -> result
(** Dual ascent with step [2 / sqrt(k)] (default [iterations = 20000]).
    Deterministic. *)

val assignment : result -> Ids.Subtask_id.t -> float
