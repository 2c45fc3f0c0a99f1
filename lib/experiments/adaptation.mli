(** Online adaptation experiment (beyond the paper's figures, backing its
    §1 claim that LLA "adapts to both workload and resource variations").

    The solver converges on the base workload; at a configured iteration a
    resource loses part of its capacity (a partial failure); later the
    capacity returns. The optimizer is never restarted — prices re-adjust
    and the allocation re-converges each time. *)

type phase = {
  phase_name : string;
  start_iteration : int;
  capacity : float;  (** availability of the perturbed resource. *)
  reconverged_at : int option;  (** iteration (global) when utility settled again. *)
  utility : float;  (** utility at the end of the phase. *)
  feasible : bool;
}

type result = {
  resource : string;  (** which resource is perturbed. *)
  phases : phase list;
  series : Lla_stdx.Series.t;  (** full utility trajectory. *)
}

val run : ?iterations_per_phase:int -> unit -> result
(** Defaults: 1500 iterations per phase; the perturbed resource (r4, the
    busiest) loses a quarter of its availability in phase two. *)

val report : result -> string
