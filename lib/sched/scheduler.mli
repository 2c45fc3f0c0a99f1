(** Proportional-share scheduler simulations.

    A scheduler serves one resource of [capacity] in [0, 1] (fraction of a
    unit-speed resource left after static reservations, e.g. the paper's
    0.1 garbage-collector share). Work is expressed in ms of unit-speed
    service: a job of [work] w served at rate [r] finishes after [w / r]
    ms. Jobs belong to *classes* (one per subtask); each class has a share
    set by the optimizer, and jobs within a class are served FIFO.

    Three disciplines:

    - {!Fluid}: idealized Generalized Processor Sharing. Every backlogged
      class is served simultaneously at rate
      [capacity * share / sum of backlogged shares] (work-conserving) or
      exactly [share] (non-work-conserving).
    - {!Sfq}: start-time fair queueing — quantum-based packetized
      approximation with virtual start tags; this introduces the
      scheduling lag the paper's share model (Eq. 10) accounts for.
    - {!Sfs}: surplus-based fair sharing in the spirit of Surplus Fair
      Scheduling (Chandra et al., OSDI 2000), the discipline of the
      paper's modified Linux kernel: quanta go to the backlogged class
      with the least surplus service relative to its entitlement.

    A class whose share is zero is starved while others are backlogged —
    shares are the isolation mechanism, so the optimizer must keep every
    live class strictly positive. *)

type kind =
  | Fluid of { work_conserving : bool }
  | Sfq of { quantum : float }
  | Sfs of { quantum : float }

type t

val create : kind -> Lla_sim.Engine.t -> capacity:float -> t
(** @raise Invalid_argument when capacity is outside (0, 1] or a quantum
    is non-positive. *)

val kind_name : kind -> string

val set_share : t -> class_id:int -> share:float -> unit
(** Install or update a class share (>= 0). Takes effect immediately,
    including for jobs in service. *)

val share : t -> class_id:int -> float
(** 0 for classes never seen. *)

val submit : t -> class_id:int -> work:float -> on_complete:(float -> unit) -> unit
(** Enqueue a job; [on_complete] fires with the completion time. *)

val backlog : t -> class_id:int -> int
(** Jobs queued or in service for the class. *)

val total_backlog : t -> int

val served : t -> class_id:int -> float
(** Cumulative unit-speed service received by the class (ms). *)

val busy_time : t -> float
(** Total time the resource spent serving anything (work-conservation
    accounting; for {!Fluid} this is the integral of utilization). *)
