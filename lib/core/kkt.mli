(** Karush–Kuhn–Tucker residuals: how close an (latency, price) pair is to
    the optimum of the concave program (Eq. 2–4). Because the problem is
    convex with strictly concave objective in the shares, vanishing
    residuals certify global optimality — the property the tests check at
    convergence. *)

type residuals = {
  stationarity : float;
      (** max over subtasks of the Lagrangian-gradient residual, with the
          appropriate sign relaxation at active latency bounds. *)
  primal_resource : float;  (** max relative over-capacity on Eq. 3. *)
  primal_path : float;  (** max relative critical-time overrun on Eq. 4. *)
  complementary_resource : float;
      (** max over resources of [mu_r * relative slack]. *)
  complementary_path : float;  (** max over paths of [lambda_p * relative slack]. *)
}

val residuals :
  Problem.t ->
  lat:float array ->
  mu:float array ->
  lambda:float array ->
  offsets:float array ->
  residuals

val of_solver : Solver.t -> residuals

val worst : residuals -> float
(** The largest of the five components. *)
