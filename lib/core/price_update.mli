(** Price computation (paper §4.3): gradient projection on the dual.

    Resource prices (Eq. 8):
    [mu_r <- max(0, mu_r - gamma_r * (B_r - sum_{s in S_r} share_s(lat_s)))]

    Path prices (Eq. 9):
    [lambda_p <- max(0, lambda_p - gamma_p * (1 - sum_{s in p} lat_s / C_i))]

    A resource is congested when its share sum exceeds [B_r]; a path is
    congested when its latency exceeds its critical time. The congestion
    flags drive the adaptive step-size heuristic and the schedulability
    probe. *)

type congestion = {
  resources : bool array;  (** indexed by resource. *)
  paths : bool array;  (** indexed by global path index. *)
  share_sums : float array;  (** share sum per resource at this iteration. *)
  path_latencies : float array;  (** latency per path at this iteration. *)
  guards : int;
      (** non-finite observations (share sums, path latencies) or already
          poisoned multipliers encountered — and neutralized — during this
          step. A guarded multiplier keeps its last finite value (an
          already non-finite one is healed to 0); NaN/∞ never propagates
          into [mu] or [lambda]. *)
}

val resource_step : mu:float -> gamma:float -> capacity:float -> used:float -> float
(** Eq. 8 for one resource: [max 0 (mu - gamma (capacity - used))].
    Plain arithmetic with no guard; {!update_resource} and the
    distributed runtime's price agents both step through it. *)

val path_step : lambda:float -> gamma:float -> latency:float -> critical_time:float -> float
(** Eq. 9 for one path: [max 0 (lambda - gamma (1 - latency / critical_time))].
    Plain arithmetic with no guard; {!update_path} and the distributed
    runtime's task controllers both step through it. *)

val update_resource :
  Problem.t -> int -> lat:float array -> offsets:float array -> gamma:float -> mu:float array ->
  float
(** Update [mu.(r)] in place; returns the share sum observed. A
    non-finite share sum leaves the price untouched; a non-finite incoming
    [mu.(r)] is healed to 0 before the update. *)

val update_path : Problem.t -> int -> lat:float array -> gamma:float -> lambda:float array -> float
(** Update [lambda.(p)] in place; returns the path latency observed. Same
    finite-value guards as {!update_resource}. *)

val heal_resource_price : mu_cap:float -> mu0:float -> float -> float
(** The price-healing rule of safe-mode entry, shared by the distributed
    runtime and the scale kernel: [mu0] when [mu] is non-finite or above
    [min mu_cap (1000 * max 1 mu0)], else [mu]. [mu_cap] is the safe-mode
    watchdog's divergence threshold; healing sets in far below it, since
    a finite runaway price decays by only about one step per round and
    would outlast the safe-mode dwell. *)

val update :
  ?obs:Lla_obs.t ->
  ?at:float ->
  Problem.t ->
  lat:float array ->
  offsets:float array ->
  steps:Step_size.t ->
  mu:float array ->
  lambda:float array ->
  congestion
(** One full price-computation step across all resources and paths. When
    [obs] is supplied, emits one {!Lla_obs.Trace.Price_updated} per
    resource and one {!Lla_obs.Trace.Path_price_updated} per path (plus
    [Guard_fired] for each guarded component), stamped [at] (default 0 —
    the synchronous solver passes its iteration number). Pure bookkeeping:
    the numerical result is identical with and without [obs]. *)
