(** Step-size policies for the price updates (paper §4.3 and §5.2).

    Fixed policies use a constant [gamma] for every resource and path.
    The adaptive policy implements the paper's heuristic: start from an
    initial value; while a resource is congested, double its step size
    (and those of all paths traversing it) each iteration; as soon as the
    resource becomes uncongested, revert to the initial value. *)

type policy =
  | Fixed of float
  | Adaptive of { initial : float; cap : float }
  | Split of { resource : policy; path : policy }
      (** Distinct policies for the two price families; components are
          never themselves [Split]. *)

val fixed : float -> policy
(** @raise Invalid_argument on a non-positive value. *)

val adaptive : ?cap:float -> initial:float -> unit -> policy
(** The step doubles per congested iteration (the paper's rule) up to
    [cap] (default [4 * initial]). The cap is our addition: unbounded
    doubling lets prices overshoot so far during sustained congestion
    that the system never settles; a small cap preserves the speed-up
    while keeping the oscillation bounded (see the fig5 ablation in the
    benchmark harness). *)

val split : resource:policy -> path:policy -> policy
(** Separate step policies for resource prices (Eq. 8) and path prices
    (Eq. 9). The two families need different treatment at scale: the
    equilibrium price of a hot resource grows with the square of its
    member count, so Eq. 8 wants a practically unbounded adaptive cap to
    discover that magnitude geometrically — but a path's step doubles on
    *any* congested traversed resource, so during a long price-discovery
    streak the same unbounded cap drives every path price into violent
    oscillation (path slacks are O(1), prices stay small). Escalate
    resources, keep paths on the paper's small cap. An adaptive
    component's congestion trigger is unchanged: resource steps react to
    that resource's congestion, path steps to any traversed resource's.
    @raise Invalid_argument if either component is itself [Split]. *)

val components : policy -> policy * policy
(** [(resource, path)] components of a policy: the two halves of a
    [Split], or the policy itself twice. Neither result is a [Split]. *)

(** {1 The per-entity rule}

    One resource's or one path's step under a non-[Split] policy (one of
    the {!components}). {!observe} applies it to every entity, and the
    distributed runtime's agents and controllers apply it to their own.
    Both raise [Invalid_argument] on a [Split]. *)

val initial : policy -> float
(** The step an entity starts from, and returns to after a reset. *)

val adapt : policy -> float -> congested:bool -> float
(** The next step after one that saw [congested]: a fixed step stays; an
    adaptive one multiplies up to its cap while congested and reverts to
    its initial value otherwise. *)

type t

val create : Problem.t -> policy -> t

val resource_gamma : t -> int -> float
(** Current step size of resource index [r]. *)

val path_gamma : t -> int -> float
(** Current step size of global path index [p]. *)

val observe :
  t -> congested_resources:bool array -> unit
(** Feed the congestion outcome of the last iteration: adaptive step sizes
    are multiplied for congested resources and their paths and reset for
    the rest; fixed policies ignore the call. *)
