module P = Lla.Problem

type price_init =
  | Cold
  | Clearing

type config = {
  step_policy : Lla.Step_size.policy;
  price_init : price_init;
  movement_tolerance : float;
}

let default_config =
  { step_policy = Lla.Step_size.adaptive ~initial:1.0 (); price_init = Cold; movement_tolerance = 0.01 }

(* At planet scale the two price families need opposite step treatment.
   The equilibrium price of a hot resource grows with the square of its
   member count (mu* ~ (sum_i sqrt(w_i p_i) / B_r)^2, easily 1e6+ for
   thousands of subtasks per resource), so the solver default's 4x step
   cap leaves Eq. 8 crawling additively toward a far-away optimum:
   resource steps want a practically unbounded cap to discover that
   magnitude geometrically. But a path's step doubles while ANY traversed
   resource is congested, and price discovery on hot resources produces
   long congested streaks — under the same unbounded cap gamma_p
   reaches 1e9 and Eq. 9 oscillates violently. Hence Split: escalate
   resources hard, paths gently (cap 64 — enough for a deadline-tight
   path's lambda to climb during the congestion streaks it rides on;
   the paper's default cap of 4 leaves it crawling additively forever).

   The clearing start (see [clear_prices] below) hands both families
   those magnitudes up front, so the escalation has little left to
   discover.

   The movement tolerance is the neighborhood-convergence knob.
   Movement is relative — the largest |change| / latency of a tick, in
   Solver and Kernel alike — so a tolerance of 1.0 admits a tick that
   doubles or halves a latency. From the cold start, dual ascent with
   capped step escalation does not reach a fixpoint on a scenario whose
   active constraints have O(1e6) equilibrium prices: it settles into a
   small periodic cycle around the optimum (measured on the seeded
   1e5-subtask scenario: period 10, movement 0.03-0.59, worst transient
   constraint excess ~5%, recurring fully-feasible ticks every period).
   [solve] requires movement <= tolerance for a whole window AND Eq. 3/4
   feasibility at the stopping tick, so a tolerance above the cycle's
   movement makes it stop at a feasible snapshot of the terminal cycle:
   the standard best-feasible-iterate readout for subgradient methods.
   From the clearing start every measured scenario stops at tick 51,
   the window minimum, under the default 0.01 as well; the wide value
   stays until a duality-gap certificate replaces the movement rule.
   The feasibility tolerance stays at the default, so the returned
   assignment meets Eq. 3/4 as tightly as the solver's answers do. *)
let scale_config =
  {
    step_policy =
      Lla.Step_size.split
        ~resource:(Lla.Step_size.adaptive ~initial:1.0 ~cap:1e9 ())
        ~path:(Lla.Step_size.adaptive ~initial:1.0 ~cap:64. ());
    price_init = Clearing;
    movement_tolerance = 1.0;
  }

(* Per-tick meters (PR 9): registered in the [?obs] registry and bumped
   by the tick thunk itself — integer counter adds, so the zero-alloc
   discipline below survives. Gauges box their float on [set], so they
   are written only by [publish_metrics] (call it at a health cadence,
   never per tick). *)
type kmeters = {
  k_ticks : Lla_obs.Metrics.counter;
  k_sub : Lla_obs.Metrics.counter;
  k_res : Lla_obs.Metrics.counter;
  k_path : Lla_obs.Metrics.counter;
  k_guards : Lla_obs.Metrics.counter;
  mutable k_guards_seen : int;  (* cumulative guards already exported *)
  k_util : Lla_obs.Metrics.gauge;
  k_move : Lla_obs.Metrics.gauge;
  k_active : Lla_obs.Metrics.gauge;
}

(* Allocation discipline for the tick: everything the three passes touch
   is a flat [float array] / [int array] cell or an immediate record
   field, so one tick allocates nothing. In particular:
   - running float accumulators live in [scratch] (a local [ref] would
     allocate its cell; float-array stores are unboxed);
   - [Float.is_finite] / [Float.max] / [Float.min] are hand-inlined —
     a non-inlined call boxes its float arguments. The inlined forms
     reproduce the stdlib semantics on every value the tick can see
     (finiteness via [x -. x = 0.]; NaN propagates through the clamp
     because every comparison with NaN is false; the projection
     [if 0. >= v then 0. else v] maps -0. to +0. like [Float.max 0. v]). *)
type t = {
  problem : P.t;
  config : config;
  n_sub : int;
  n_res : int;
  n_path : int;
  (* subtask state + compacted coefficients, indexed by slot: subtasks
     are numbered resource-major (see of_problem), and [idx] maps a
     problem index to its slot at the between-tick API *)
  idx : int array;
  lat : float array;
  sub_res : int array;  (* subtask -> resource index *)
  work : float array;  (* (c + l) of the reciprocal share = Share.lat_min *)
  lo_b : float array;  (* effective latency bounds at offset 0 *)
  hi_b : float array;
  press0 : float array;  (* |utility slope| * aggregation weight *)
  sp_off : int array;  (* slot -> global path ids (CSR) *)
  sp_idx : int array;
  (* resource state *)
  mu : float array;
  cap : float array;  (* capacities, snapshot at construction *)
  share_sum : float array;  (* cache: share sum as of the last tick *)
  congested : bool array;
  gamma_r : float array;
  rs_off : int array;  (* resource r owns slots rs_off.(r) .. rs_off.(r+1)-1 *)
  rp_off : int array;  (* resource -> distinct path ids (CSR) *)
  rp_idx : int array;
  (* path state *)
  lambda : float array;
  gamma_p : float array;
  path_lat : float array;  (* cache: path latency as of the last tick *)
  crit : float array;
  ps_off : int array;  (* path -> member slots (CSR) *)
  ps_idx : int array;
  path_hot : int array;  (* # traversed resources currently congested *)
  (* churn support: per-task activation; a re-admitted task block gets
     back the coefficients retirement clobbers bit-for-bit (see
     retire_task / admit_task below), recomputed from the problem's
     immutable fields except the upper bounds, whose stability part
     reads a mutable field and is therefore kept as constructed *)
  n_task : int;
  active : bool array;
  mutable n_inactive : int;
  mutable frozen : bool;  (* safe-mode dwell: hold the allocation *)
  hi0 : float array;
  (* step policy, unpacked per price family (identical unless Split) *)
  adaptive_r : bool;
  g_init_r : float;
  g_mult_r : float;
  g_cap_r : float;
  adaptive_p : bool;
  g_init_p : float;
  g_mult_p : float;
  g_cap_p : float;
  (* dirty-set queues. An id is in the queue for tick [k] iff its mark
     equals [k]; resources and paths use two buffers (the current tick's
     queue is scanned while the next tick's fills), subtasks one (their
     queue is drained before any push for the next tick happens). The
     [*_dirty] stamps are finer than queue membership: they record that
     the cached sum itself must be recomputed this tick, not merely that
     the price update must run. *)
  sub_q : int array;
  mutable sub_count : int;
  sub_mark : int array;
  mutable res_q : int array;
  mutable res_count : int;
  mutable res_q2 : int array;
  mutable res_count2 : int;
  res_mark : int array;
  res_dirty : int array;
  mutable path_q : int array;
  mutable path_count : int;
  mutable path_q2 : int array;
  mutable path_count2 : int;
  path_mark : int array;
  path_dirty : int array;
  (* tick bookkeeping *)
  mutable tick : int;
  mutable guards : int;
  scratch : float array;  (* 0: running sum, 1: movement of the last tick *)
  mutable touch_sub : int;
  mutable touch_res : int;
  mutable touch_path : int;
  mutable cum_sub : int;
  mutable cum_res : int;
  mutable cum_path : int;
  (* profiling thunks, preallocated so a profiled tick allocates no
     closures either *)
  mutable th_tick : unit -> unit;
  mutable th_prof : unit -> unit;
  mutable km : kmeters option;  (* Some iff built with [?obs] *)
}

(* ------------------------------------------------------------------ *)
(* The three passes of one tick                                        *)
(* ------------------------------------------------------------------ *)

(* The passes use unchecked array access: every index they dereference is
   a CSR entry, a slot of a resource's range or a queue element, and all
   are validated by construction — [of_problem] only stores ids below
   the family's length, the resource ranges partition the slots, and
   queue counts never exceed the family's length because the mark arrays
   dedup every push. Bounds checks would cost ~30% of the tick on these
   loops and can never fire. *)
(* Primitive externals, not [let]-aliases of [Array.unsafe_get]: a [let]
   rebinding eta-expands the primitive into a generic function, and every
   float access then goes through [caml_apply] with a boxed result —
   measurably slower than the checked access, and it allocates. Declared
   as externals, each fully-applied use site compiles to the unboxed
   flat-float-array instruction. *)
external ug : 'a array -> int -> 'a = "%array_unsafe_get"

external us : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Closed-form allocation (Allocation.closed_form at offset 0) for every
   queued subtask; queues the resources and paths whose sums changed. *)
let alloc_pass t =
  let tick = t.tick in
  let sc = t.scratch and sub_q = t.sub_q in
  let res_q = t.res_q and path_q = t.path_q in
  let n = t.sub_count in
  let guards = ref t.guards in
  let res_count = ref t.res_count and path_count = ref t.path_count in
  us sc 1 0.;
  (* safe-mode dwell: every latency is held at the clamped fallback, so
     the pass reduces to draining the queue. The price passes keep
     running on the frozen (feasible) allocation, which lets mu/lambda
     integrate their now-nonnegative slack back toward rest. *)
  if not t.frozen then
  for k = 0 to n - 1 do
    let i = ug sub_q k in
    let mu_r = ug t.mu (ug t.sub_res i) in
    let start = ug t.sp_off i in
    let stop = ug t.sp_off (i + 1) - 1 in
    us sc 0 0.;
    for e = start to stop do
      us sc 0 (ug sc 0 +. ug t.lambda (ug t.sp_idx e))
    done;
    let pressure = ug t.press0 i +. ug sc 0 in
    let lo = ug t.lo_b i and hi = ug t.hi_b i in
    let cand =
      if mu_r <= 0. then if pressure > 0. then lo else hi
      else if pressure <= 0. then hi
      else begin
        let x = sqrt (mu_r *. ug t.work i /. pressure) in
        let a = if lo >= x then lo else x in
        if hi <= a then hi else a
      end
    in
    let old = ug t.lat i in
    let lat' =
      if cand -. cand = 0. then cand
      else begin
        (* Allocation.sanitize: keep the last finite latency, else the
           conservative upper bound. *)
        incr guards;
        if old -. old = 0. then old else hi
      end
    in
    if lat' <> old then begin
      us t.lat i lat';
      let denom = if lat' >= 1e-9 then lat' else 1e-9 in
      let m = Float.abs (lat' -. old) /. denom in
      if m > ug sc 1 then us sc 1 m;
      (* the share on i's resource and the latency of i's paths moved *)
      let r = ug t.sub_res i in
      us t.res_dirty r tick;
      if ug t.res_mark r <> tick then begin
        us t.res_mark r tick;
        us res_q !res_count r;
        incr res_count
      end;
      for e = start to stop do
        let p = ug t.sp_idx e in
        us t.path_dirty p tick;
        if ug t.path_mark p <> tick then begin
          us t.path_mark p tick;
          us path_q !path_count p;
          incr path_count
        end
      done
    end
  done;
  t.guards <- !guards;
  t.res_count <- !res_count;
  t.path_count <- !path_count;
  t.touch_sub <- n;
  t.sub_count <- 0

(* Eq. 8 (Price_update.update_resource) for every queued resource:
   recompute the share sum iff some member latency moved, integrate the
   slack into mu, maintain the congestion flags / hot-path counters /
   adaptive step, and queue dependents. The step and its adaptation are
   [Price_update.resource_step] and [Step_size.adapt] written out in
   place: a call across modules boxes its float arguments (DESIGN §11). *)
let resource_pass t =
  let tick = t.tick in
  let next = tick + 1 in
  let sc = t.scratch and sub_q = t.sub_q in
  let res_q = t.res_q and res_q2 = t.res_q2 and path_q = t.path_q in
  let n = t.res_count in
  let guards = ref t.guards in
  let sub_count = ref t.sub_count and res_count2 = ref t.res_count2 in
  let path_count = ref t.path_count in
  for k = 0 to n - 1 do
    let r = ug res_q k in
    let mu_in = ug t.mu r and gamma_in = ug t.gamma_r r and guards_in = !guards in
    if not (ug t.mu r -. ug t.mu r = 0.) then begin
      incr guards;
      us t.mu r 0.
    end;
    let rs_start = ug t.rs_off r in
    let rs_stop = ug t.rs_off (r + 1) - 1 in
    let used =
      if ug t.res_dirty r = tick then begin
        us sc 0 0.;
        for i = rs_start to rs_stop do
          let w = ug t.work i in
          let l = ug t.lat i in
          (* effective_share at offset 0: w / max lat_min lat *)
          let arg = if w >= l then w else l in
          us sc 0 (ug sc 0 +. (w /. arg))
        done;
        let s = ug sc 0 in
        us t.share_sum r s;
        s
      end
      else ug t.share_sum r
    in
    if used -. used = 0. then begin
      let old_mu = ug t.mu r in
      let v = old_mu -. (ug t.gamma_r r *. (ug t.cap r -. used)) in
      let mu' = if 0. >= v then 0. else v in
      if mu' -. mu' = 0. && mu' <> old_mu then begin
        us t.mu r mu';
        (* a changed price re-solves every subtask on r next tick *)
        for i = rs_start to rs_stop do
          if ug t.sub_mark i <> next then begin
            us t.sub_mark i next;
            us sub_q !sub_count i;
            incr sub_count
          end
        done
      end
    end
    else incr guards;
    (* NaN compares false, so a guarded resource reads uncongested,
       exactly like Price_update. *)
    let now = used > ug t.cap r +. 1e-12 in
    let d = if now = ug t.congested r then 0 else if now then 1 else -1 in
    if d <> 0 then us t.congested r now;
    (* every path through a congested resource updates this very tick:
       its step size doubles even when its latency is unchanged. A flip
       either way moves the paths' hot counts, an input of their step, so
       it pushes them too. *)
    if now || d <> 0 then
      for e = ug t.rp_off r to ug t.rp_off (r + 1) - 1 do
        let p = ug t.rp_idx e in
        if d <> 0 then us t.path_hot p (ug t.path_hot p + d);
        if ug t.path_mark p <> tick then begin
          us t.path_mark p tick;
          us path_q !path_count p;
          incr path_count
        end
      done;
    if t.adaptive_r then
      us t.gamma_r r
        (if now then
           let g = ug t.gamma_r r *. t.g_mult_r in
           if t.g_cap_r <= g then t.g_cap_r else g
         else t.g_init_r);
    (* A live price stays queued while its update does something. An
       update that moved neither mu nor gamma, found r uncongested with
       its flag unchanged and fired no guard is the identity on its
       inputs (mu, gamma, B_r, the share sum and the flag), and so is the
       next one until a writer of those inputs queues r again. *)
    if
      ug t.mu r > 0.
      && (now || d <> 0 || !guards <> guards_in || ug t.mu r <> mu_in || ug t.gamma_r r <> gamma_in)
      && ug t.res_mark r <> next
    then begin
      us t.res_mark r next;
      us res_q2 !res_count2 r;
      incr res_count2
    end
  done;
  t.guards <- !guards;
  t.sub_count <- !sub_count;
  t.res_count2 <- !res_count2;
  t.path_count <- !path_count;
  t.touch_res <- n

(* Eq. 9 (Price_update.update_path) plus the path half of
   Step_size.observe for every queued path, [Price_update.path_step] and
   [Step_size.adapt] written out in place like the resource pass's. *)
let path_pass t =
  let tick = t.tick in
  let next = tick + 1 in
  let sc = t.scratch and sub_q = t.sub_q in
  let path_q = t.path_q and path_q2 = t.path_q2 in
  let n = t.path_count in
  let guards = ref t.guards in
  let sub_count = ref t.sub_count and path_count2 = ref t.path_count2 in
  for k = 0 to n - 1 do
    let p = ug path_q k in
    let lambda_in = ug t.lambda p and gamma_in = ug t.gamma_p p and guards_in = !guards in
    if not (ug t.lambda p -. ug t.lambda p = 0.) then begin
      incr guards;
      us t.lambda p 0.
    end;
    let ps_start = ug t.ps_off p in
    let ps_stop = ug t.ps_off (p + 1) - 1 in
    let latency =
      if ug t.path_dirty p = tick then begin
        us sc 0 0.;
        for e = ps_start to ps_stop do
          us sc 0 (ug sc 0 +. ug t.lat (ug t.ps_idx e))
        done;
        let s = ug sc 0 in
        us t.path_lat p s;
        s
      end
      else ug t.path_lat p
    in
    if latency -. latency = 0. then begin
      let old_l = ug t.lambda p in
      let v = old_l -. (ug t.gamma_p p *. (1. -. (latency /. ug t.crit p))) in
      let l' = if 0. >= v then 0. else v in
      if l' -. l' = 0. && l' <> old_l then begin
        us t.lambda p l';
        for e = ps_start to ps_stop do
          let i = ug t.ps_idx e in
          if ug t.sub_mark i <> next then begin
            us t.sub_mark i next;
            us sub_q !sub_count i;
            incr sub_count
          end
        done
      end
    end
    else incr guards;
    (* the [crit < infinity] guard keeps retired paths (crit pinned at
       infinity, see retire_task) from escalating their step when a
       congested shared resource floods them into the queue: a retired
       path must provably hold lambda = 0 and gamma at initial so that
       re-admission restores its block bit-for-bit. Live paths always
       have finite critical times, so the guard is value-neutral for
       them. *)
    if t.adaptive_p then
      us t.gamma_p p
        (if ug t.path_hot p > 0 && ug t.crit p < infinity then
           let g = ug t.gamma_p p *. t.g_mult_p in
           if t.g_cap_p <= g then t.g_cap_p else g
         else t.g_init_p);
    (* keep the path live while its price or step carries state and its
       update did something. A path that drops out satisfies lambda = 0,
       gamma at initial, members still, slack >= 0, or its update moved
       neither lambda nor gamma and fired no guard; either way the next
       update is the identity until one of its inputs (lambda, gamma,
       the cached latency, crit, path_hot) is written, and every writer
       pushes it. *)
    if
      (ug t.lambda p > 0. || (t.adaptive_p && ug t.gamma_p p <> t.g_init_p))
      && (!guards <> guards_in || ug t.lambda p <> lambda_in || ug t.gamma_p p <> gamma_in)
      && ug t.path_mark p <> next
    then begin
      us t.path_mark p next;
      us path_q2 !path_count2 p;
      incr path_count2
    end
  done;
  t.guards <- !guards;
  t.sub_count <- !sub_count;
  t.path_count2 <- !path_count2;
  t.touch_path <- n

let finish t =
  t.cum_sub <- t.cum_sub + t.touch_sub;
  t.cum_res <- t.cum_res + t.touch_res;
  t.cum_path <- t.cum_path + t.touch_path;
  let q = t.res_q in
  t.res_q <- t.res_q2;
  t.res_q2 <- q;
  t.res_count <- t.res_count2;
  t.res_count2 <- 0;
  let q = t.path_q in
  t.path_q <- t.path_q2;
  t.path_q2 <- q;
  t.path_count <- t.path_count2;
  t.path_count2 <- 0;
  t.tick <- t.tick + 1

let tick t =
  alloc_pass t;
  resource_pass t;
  path_pass t;
  finish t

let step t = t.th_tick ()

let run t ~iterations =
  for _ = 1 to iterations do
    step t
  done

(* ------------------------------------------------------------------ *)
(* Queue pushes between ticks                                          *)
(* ------------------------------------------------------------------ *)

(* After [finish], the upcoming tick's number is [t.tick] and an id is
   queued for it iff its mark equals [t.tick] — so pushing with mark
   [t.tick] targets exactly the next tick, and the mark dedup keeps every
   queue within its family's length. The between-tick mutations below
   push through these; the three passes inline their pushes against
   [tick]/[next]. *)
let queue_sub t i =
  if t.sub_mark.(i) <> t.tick then begin
    t.sub_mark.(i) <- t.tick;
    t.sub_q.(t.sub_count) <- i;
    t.sub_count <- t.sub_count + 1
  end

let queue_res t r =
  if t.res_mark.(r) <> t.tick then begin
    t.res_mark.(r) <- t.tick;
    t.res_q.(t.res_count) <- r;
    t.res_count <- t.res_count + 1
  end

let queue_path t p =
  if t.path_mark.(p) <> t.tick then begin
    t.path_mark.(p) <- t.tick;
    t.path_q.(t.path_count) <- p;
    t.path_count <- t.path_count + 1
  end

let dirty_res t r =
  t.res_dirty.(r) <- t.tick;
  queue_res t r

let dirty_path t p =
  t.path_dirty.(p) <- t.tick;
  queue_path t p

let requeue_all t =
  t.sub_count <- 0;
  t.res_count <- 0;
  t.path_count <- 0;
  (* every mark moves off [t.tick] first, so each push below lands *)
  Array.fill t.sub_mark 0 t.n_sub (t.tick - 1);
  Array.fill t.res_mark 0 t.n_res (t.tick - 1);
  Array.fill t.path_mark 0 t.n_path (t.tick - 1);
  for i = 0 to t.n_sub - 1 do
    queue_sub t i
  done;
  for r = 0 to t.n_res - 1 do
    dirty_res t r
  done;
  for p = 0 to t.n_path - 1 do
    dirty_path t p
  done

let guard_events t = t.guards

(* ------------------------------------------------------------------ *)
(* Clearing-price start                                                *)
(* ------------------------------------------------------------------ *)

(* Under [Clearing], construction starts the iteration at market-clearing
   prices instead of at [mu0] / [lambda0]: block-coordinate minimisation
   of the LLA dual g(mu, lambda) = max_lat L (DESIGN §11). Minimising g
   over one resource's mu_r at fixed lambda sets its share sum, at the
   closed-form allocation, to exactly B_r (mu_r = 0 when the members fit
   at [lo]); minimising over one path's lambda_p sets its latency to
   exactly C_p (0 when slack). [clear_prices] alternates the two blocks
   over dirty sets until no price moves by a single bit.

   Each 1-D equation is monotone, and a Newton step on the right
   variable is exact or nearly so between two clamp breakpoints: a
   resource's share sum is piecewise linear in y = 1/sqrt mu, and a
   path's latency L(lambda) makes L^-2 piecewise concave, a power mean
   of affine terms. [root] keeps a bracket around the step and bisects
   whenever Newton leaves it. The pass runs once, before the first tick,
   so it may allocate; it borrows [t.lat] for the per-slot pressures,
   the marks for its dirty sets, and [t.scratch] for the slope. *)

(* A constant cap on the block-coordinate rounds. Measured on generated
   scenarios of 800 to 10^5 subtasks: 1 round where no path is priced,
   8-12 where some is, every one ending at the exact fixpoint. *)
let clearing_rounds = 64

(* Newton / bisection steps per 1-D equation. *)
let root_steps = 100

(* Solve [f x = target] for an increasing [f] over [0, b] from [x0].
   [newton x v] maps [v = f x] to the next guess; it may read the slope
   [f] left in scratch. The result is the last guess, once a step moves
   it by at most a few ulp or the bracket collapses: a deterministic
   function of [f], so an unchanged market clears to the same bits. *)
let root ~f ~newton ~target ~b x0 =
  let a = ref 0. and b = ref b and x = ref x0 and result = ref nan and steps = ref 0 in
  while Float.is_nan !result do
    let v = f !x in
    if v = target then result := !x
    else begin
      if v < target then a := !x else b := !x;
      let n = newton !x v in
      let n = if n > !a && n < !b then n else !a +. (0.5 *. (!b -. !a)) in
      incr steps;
      if !steps >= root_steps || Float.abs (n -. !x) <= 1e-15 *. Float.abs !x then result := n;
      x := n
    end
  done;
  !result

(* Pressure of slot i (press0 plus the prices of its paths, summed as
   the allocation pass sums them), without path [skip]'s price. *)
let pressure_without t i skip =
  let s = ref 0. in
  for e = t.sp_off.(i) to t.sp_off.(i + 1) - 1 do
    let p = t.sp_idx.(e) in
    if p <> skip then s := !s +. t.lambda.(p)
  done;
  t.press0.(i) +. !s

(* [w / max w lat], the share of a subtask at latency [lat] *)
let share w lat = w /. if w >= lat then w else lat

(* Resource r's share sum at price [mu], each member at the allocation
   pass's closed form for pressure [pr.(i)]. [sc.(0)] receives the share
   of the members strictly inside their bounds: y times the slope of the
   sum in y = 1/sqrt mu. *)
let resource_shares t pr sc r mu =
  let s = ref 0. and free = ref 0. in
  for i = t.rs_off.(r) to t.rs_off.(r + 1) - 1 do
    let w = t.work.(i) and lo = t.lo_b.(i) and hi = t.hi_b.(i) and p = pr.(i) in
    if mu <= 0. then s := !s +. share w (if p > 0. then lo else hi)
    else if p <= 0. then s := !s +. share w hi
    else begin
      let x = sqrt (mu *. w /. p) in
      if x <= lo then s := !s +. share w lo
      else if x >= hi then s := !s +. share w hi
      else begin
        let v = share w x in
        s := !s +. v;
        if x > w then free := !free +. v
      end
    end
  done;
  sc.(0) <- !free;
  !s

(* The price that fills resource r to exactly B_r at the current path
   prices: 0 when its members fit at [lo]; [mu0] when they overflow it
   even at [hi], where no price clears. The share sum is linear in
   y = 1/sqrt mu between breakpoints, so a Newton step in y lands on the
   root once it is on the right piece. *)
let clear_resource t pr sc r =
  let cap = t.cap.(r) in
  let floor = ref 0. and yb = ref 0. and unclamped = ref 0. in
  for i = t.rs_off.(r) to t.rs_off.(r + 1) - 1 do
    let w = t.work.(i) and p = pr.(i) in
    floor := !floor +. share w t.hi_b.(i);
    if p > 0. then begin
      (* every member is at lo from y = sqrt (w / p) / lo on *)
      let y = sqrt (w /. p) /. t.lo_b.(i) in
      if y > !yb then yb := y;
      unclamped := !unclamped +. sqrt (w *. p)
    end
  done;
  if !floor > cap then Lla.Solver.mu0
  else if resource_shares t pr sc r 0. <= cap then 0.
  else begin
    let mu_of y = 1. /. (y *. y) in
    (* the root if no member were clamped *)
    let y0 = cap /. !unclamped in
    let y =
      root ~target:cap ~b:!yb
        ~f:(fun y -> resource_shares t pr sc r (mu_of y))
        ~newton:(fun y v -> if sc.(0) > 0. then y +. ((cap -. v) *. y /. sc.(0)) else nan)
        (if y0 > 0. && y0 < !yb then y0 else 0.5 *. !yb)
    in
    let mu = mu_of y in
    if Float.is_finite mu then mu else Lla.Solver.mu0
  end

(* Path p's latency at price [lam] with every member at the allocation
   pass's closed form; [qs.(k)] is member k's pressure without p.
   [sc.(0)] receives the derivative in [lam] (0 or negative). *)
let path_latency t qs sc p lam =
  let start = t.ps_off.(p) in
  let s = ref 0. and d = ref 0. in
  for e = start to t.ps_off.(p + 1) - 1 do
    let i = t.ps_idx.(e) in
    let mu_r = t.mu.(t.sub_res.(i)) and lo = t.lo_b.(i) and hi = t.hi_b.(i) in
    let pressure = qs.(e - start) +. lam in
    if mu_r <= 0. then s := !s +. if pressure > 0. then lo else hi
    else if pressure <= 0. then s := !s +. hi
    else begin
      let x = sqrt (mu_r *. t.work.(i) /. pressure) in
      if x <= lo then s := !s +. lo
      else if x >= hi then s := !s +. hi
      else begin
        s := !s +. x;
        d := !d -. (x /. (2. *. pressure))
      end
    end
  done;
  sc.(0) <- !d;
  !s

(* The price that brings path p's latency to exactly C_p at the current
   resource prices: 0 when it is slack; [lambda0] when it misses C_p even
   with every member at [lo]. The root is found on u = L^-2, which
   increases in [lam] and is concave between breakpoints, so Newton
   approaches it from below. *)
let clear_path t pr qs sc p =
  let start = t.ps_off.(p) and stop = t.ps_off.(p + 1) - 1 in
  let crit = t.crit.(p) in
  (* with p's price at +0, a member's pressure without it is its
     pressure, bit for bit *)
  let priced = t.lambda.(p) <> 0. in
  for e = start to stop do
    let i = t.ps_idx.(e) in
    qs.(e - start) <- (if priced then pressure_without t i p else pr.(i))
  done;
  if path_latency t qs sc p 0. <= crit then 0.
  else begin
    let floor = ref 0. and lb = ref 0. in
    for e = start to stop do
      let i = t.ps_idx.(e) and q = qs.(e - start) in
      let lo = t.lo_b.(i) in
      floor := !floor +. lo;
      (* every member is at lo from lam = mu w / lo^2 - q on *)
      let l = (t.mu.(t.sub_res.(i)) *. t.work.(i) /. (lo *. lo)) -. q in
      if l > !lb then lb := l
    done;
    if !floor > crit then Lla.Solver.lambda0
    else begin
      let u l = 1. /. (l *. l) in
      (* lb <= 0 only when the excess at 0 comes from unpriced members
         with zero pressure, which drop to lo at any positive price *)
      let lam =
        root ~target:(u crit) ~b:(if !lb > 0. then !lb else 1.)
          ~f:(fun lam -> u (path_latency t qs sc p lam))
          ~newton:(fun lam v ->
            (* du/dlam = -2 L' / L^3, with L = v^-1/2 *)
            let l = 1. /. sqrt v in
            let du = -2. *. sc.(0) /. (l *. l *. l) in
            if du > 0. then lam +. ((u crit -. v) /. du) else nan)
          0.
      in
      if Float.is_finite lam && lam >= 0. then lam else Lla.Solver.lambda0
    end
  end

(* Alternate the two blocks until no price changes by a bit, at most
   [clearing_rounds] times. Round k clears the resources marked k, then
   the paths marked k: round 1 marks everything; a resource whose price
   moved marks its paths for the same round, and a path whose price
   moved marks its members' resources, and the other paths through its
   members, for round k + 1. Entities are visited in ascending id
   order, and a path's pressures read the prices of the paths cleared
   before it, so that order fixes the result to the bit. *)
let clear_prices t =
  let pr = t.lat in
  for i = 0 to t.n_sub - 1 do
    pr.(i) <- pressure_without t i (-1)
  done;
  let longest = ref 0 in
  for p = 0 to t.n_path - 1 do
    longest := max !longest (t.ps_off.(p + 1) - t.ps_off.(p))
  done;
  let qs = Array.make !longest 0. and sc = t.scratch in
  Array.fill t.res_mark 0 t.n_res 1;
  Array.fill t.path_mark 0 t.n_path 1;
  let round = ref 1 and pending = ref true in
  while !pending && !round <= clearing_rounds do
    let k = !round in
    pending := false;
    for r = 0 to t.n_res - 1 do
      if t.res_mark.(r) = k then begin
        let mu = clear_resource t pr sc r in
        if mu <> t.mu.(r) then begin
          t.mu.(r) <- mu;
          for e = t.rp_off.(r) to t.rp_off.(r + 1) - 1 do
            t.path_mark.(t.rp_idx.(e)) <- k
          done
        end
      end
    done;
    for p = 0 to t.n_path - 1 do
      if t.path_mark.(p) = k then begin
        let lam = clear_path t pr qs sc p in
        if lam <> t.lambda.(p) then begin
          t.lambda.(p) <- lam;
          pending := true;
          for e = t.ps_off.(p) to t.ps_off.(p + 1) - 1 do
            let i = t.ps_idx.(e) in
            pr.(i) <- pressure_without t i (-1);
            t.res_mark.(t.sub_res.(i)) <- k + 1;
            for f = t.sp_off.(i) to t.sp_off.(i + 1) - 1 do
              let q = t.sp_idx.(f) in
              (* a later path still marked k clears this round anyway *)
              if q <> p && not (q > p && t.path_mark.(q) = k) then t.path_mark.(q) <- k + 1
            done
          done
        end
      end
    done;
    incr round
  done;
  Array.iteri (fun i (s : P.subtask) -> t.lat.(t.idx.(i)) <- s.P.lat_hi) t.problem.P.subtasks

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* A subtask's lower latency bound and its utility pressure
   |slope| * weight, as construction writes them and admission restores
   them. *)
let lo_bound (s : P.subtask) = Float.max 1e-9 s.P.lat_lo

let pressure0 (task : P.task) (s : P.subtask) =
  Float.abs (Option.value task.P.linear_slope ~default:0.) *. s.P.weight

let of_problem ?obs ?(config = default_config) (problem : P.t) =
  let n_sub = P.n_subtasks problem in
  let n_res = P.n_resources problem in
  let n_path = P.n_paths problem in
  let unsupported = ref None in
  Array.iter
    (fun (task : P.task) ->
      if task.P.linear_slope = None && !unsupported = None then
        unsupported := Some (Printf.sprintf "task %s: non-linear utility" task.P.task_name))
    problem.P.tasks;
  Array.iter
    (fun (s : P.subtask) ->
      if
        (not (String.equal s.P.share.Lla_model.Share.name "reciprocal"))
        && !unsupported = None
      then unsupported := Some (Printf.sprintf "subtask %s: non-reciprocal share" s.P.name))
    problem.P.subtasks;
  match !unsupported with
  | Some reason -> Error ("Kernel.of_problem: " ^ reason ^ " (closed form does not apply)")
  | None when n_sub = 0 -> Error "Kernel.of_problem: empty problem"
  | None ->
    let unpack = function
      | Lla.Step_size.Fixed g -> (g, 1., g, false)
      | Lla.Step_size.Adaptive { initial; cap } -> (initial, 2., cap, true)
      | Lla.Step_size.Split _ -> assert false (* components are never Split *)
    in
    let (g_init_r, g_mult_r, g_cap_r, adaptive_r), (g_init_p, g_mult_p, g_cap_p, adaptive_p) =
      match config.step_policy with
      | Lla.Step_size.Split { resource; path } -> (unpack resource, unpack path)
      | p -> (unpack p, unpack p)
    in
    (* Resource-major numbering: problem subtask i lives in slot idx.(i),
       the next free slot of its resource, so resource r owns the slots
       rs_off.(r) .. rs_off.(r+1)-1 in ascending problem index — the order
       Problem.share_sum adds them in. One sequential pass over the
       records writes each coefficient into its slot; reading the records
       in slot order instead scatters the reads and about doubles the
       compaction time (0.04 -> 0.08 s at 1e5 subtasks). *)
    let rs_off = Array.make (n_res + 1) 0 in
    for r = 0 to n_res - 1 do
      rs_off.(r + 1) <- rs_off.(r) + Array.length problem.P.by_resource.(r)
    done;
    let cursor = Array.sub rs_off 0 n_res in
    let idx = Array.make n_sub 0 and sub_res = Array.make n_sub 0 in
    let work = Array.make n_sub 0. and press0 = Array.make n_sub 0. in
    let lo_b = Array.make n_sub 0. and hi_b = Array.make n_sub 0. in
    let lat = Array.make n_sub 0. in
    let sp_off = Array.make (n_sub + 1) 0 in
    Array.iteri
      (fun i (s : P.subtask) ->
        let r = s.P.resource in
        let j = cursor.(r) in
        cursor.(r) <- j + 1;
        idx.(i) <- j;
        let task = problem.P.tasks.(s.P.task) in
        let lo = lo_bound s in
        sub_res.(j) <- r;
        work.(j) <- s.P.share.Lla_model.Share.lat_min;
        lo_b.(j) <- lo;
        hi_b.(j) <- Float.max lo (Float.min s.P.stability task.P.critical_time);
        press0.(j) <- pressure0 task s;
        lat.(j) <- s.P.lat_hi;
        (* slot j's path count, until the prefix sum below *)
        sp_off.(j + 1) <- Array.length s.P.paths)
      problem.P.subtasks;
    for j = 0 to n_sub - 1 do
      sp_off.(j + 1) <- sp_off.(j) + sp_off.(j + 1)
    done;
    let sp_idx = Array.make sp_off.(n_sub) 0 in
    Array.iteri
      (fun i (s : P.subtask) ->
        Array.blit s.P.paths 0 sp_idx sp_off.(idx.(i)) (Array.length s.P.paths))
      problem.P.subtasks;
    (* path -> member slots, in the path's own member order: Eq. 9 sums
       path latencies in exactly the order Problem.path_latency does *)
    let ps_off = Array.make (n_path + 1) 0 in
    Array.iteri
      (fun p (info : P.path) ->
        ps_off.(p + 1) <- ps_off.(p) + Array.length info.P.subtask_indices)
      problem.P.paths;
    let ps_idx = Array.make ps_off.(n_path) 0 in
    Array.iteri
      (fun p (info : P.path) ->
        Array.iteri (fun e i -> ps_idx.(ps_off.(p) + e) <- idx.(i)) info.P.subtask_indices)
      problem.P.paths;
    let rp_off, rp_idx =
      (* invert path_resources (distinct by construction) *)
      let counts = Array.make n_res 0 in
      Array.iter
        (fun (p : P.path) ->
          Array.iter (fun r -> counts.(r) <- counts.(r) + 1) p.P.path_resources)
        problem.P.paths;
      let off = Array.make (n_res + 1) 0 in
      for r = 0 to n_res - 1 do
        off.(r + 1) <- off.(r) + counts.(r)
      done;
      let ids = Array.make off.(n_res) 0 in
      let fill = Array.copy off in
      Array.iteri
        (fun p (info : P.path) ->
          Array.iter
            (fun r ->
              ids.(fill.(r)) <- p;
              fill.(r) <- fill.(r) + 1)
            info.P.path_resources)
        problem.P.paths;
      (off, ids)
    in
    let crit = Array.map (fun (p : P.path) -> p.P.critical_time) problem.P.paths in
    let t =
      {
        problem;
        config;
        n_sub;
        n_res;
        n_path;
        idx;
        lat;
        sub_res;
        work;
        lo_b;
        hi_b;
        press0;
        sp_off;
        sp_idx;
        mu = Array.make n_res Lla.Solver.mu0;
        cap = Array.copy problem.P.capacities;
        share_sum = Array.make n_res 0.;
        congested = Array.make n_res false;
        gamma_r = Array.make n_res g_init_r;
        rs_off;
        rp_off;
        rp_idx;
        lambda = Array.make n_path Lla.Solver.lambda0;
        gamma_p = Array.make n_path g_init_p;
        path_lat = Array.make n_path 0.;
        crit;
        ps_off;
        ps_idx;
        path_hot = Array.make n_path 0;
        n_task = P.n_tasks problem;
        active = Array.make (P.n_tasks problem) true;
        n_inactive = 0;
        frozen = false;
        hi0 = Array.copy hi_b;
        adaptive_r;
        g_init_r;
        g_mult_r;
        g_cap_r;
        adaptive_p;
        g_init_p;
        g_mult_p;
        g_cap_p;
        sub_q = Array.make n_sub 0;
        sub_count = 0;
        sub_mark = Array.make n_sub 0;
        res_q = Array.make n_res 0;
        res_count = 0;
        res_q2 = Array.make n_res 0;
        res_count2 = 0;
        res_mark = Array.make n_res 0;
        res_dirty = Array.make n_res 0;
        path_q = Array.make n_path 0;
        path_count = 0;
        path_q2 = Array.make n_path 0;
        path_count2 = 0;
        path_mark = Array.make n_path 0;
        path_dirty = Array.make n_path 0;
        tick = 0;
        guards = 0;
        scratch = Array.make 2 0.;
        touch_sub = 0;
        touch_res = 0;
        touch_path = 0;
        cum_sub = 0;
        cum_res = 0;
        cum_path = 0;
        th_tick = (fun () -> ());
        th_prof = (fun () -> ());
        km = None;
      }
    in
    if config.price_init = Clearing then clear_prices t;
    (* tick 0 visits everything: queues full, every sum dirty *)
    requeue_all t;
    (match obs with
    | None -> t.th_tick <- (fun () -> tick t)
    | Some o ->
      let reg = o.Lla_obs.metrics in
      let counter name help = Lla_obs.Metrics.counter reg name ~help in
      let gauge name help = Lla_obs.Metrics.gauge reg name ~help in
      let m =
        {
          k_ticks = counter "lla_kernel_ticks_total" "Kernel ticks executed.";
          k_sub = counter "lla_kernel_touched_subtasks_total" "Subtask visits across all ticks.";
          k_res = counter "lla_kernel_touched_resources_total" "Resource visits across all ticks.";
          k_path = counter "lla_kernel_touched_paths_total" "Path visits across all ticks.";
          k_guards =
            counter "lla_kernel_guard_events_total"
              "Non-finite iterate components neutralized by the kernel guards.";
          k_guards_seen = 0;
          k_util = gauge "lla_kernel_utility" "Total utility of the active tasks (at last publish).";
          k_move = gauge "lla_kernel_movement" "Max relative latency movement (at last publish).";
          k_active = gauge "lla_kernel_active_tasks" "Active (non-retired) tasks (at last publish).";
        }
      in
      t.km <- Some m;
      let p = o.Lla_obs.profile in
      let th_alloc () = alloc_pass t in
      let th_res () = resource_pass t in
      let th_path () = path_pass t in
      t.th_prof <-
        (fun () ->
          Lla_obs.Profile.time p "allocate" th_alloc;
          Lla_obs.Profile.time p "resource_prices" th_res;
          Lla_obs.Profile.time p "path_prices" th_path;
          finish t);
      t.th_tick <-
        (fun () ->
          Lla_obs.Profile.time p "kernel.step" t.th_prof;
          Lla_obs.Metrics.incr m.k_ticks;
          Lla_obs.Metrics.add m.k_sub t.touch_sub;
          Lla_obs.Metrics.add m.k_res t.touch_res;
          Lla_obs.Metrics.add m.k_path t.touch_path;
          let guards = guard_events t in
          if guards <> m.k_guards_seen then begin
            Lla_obs.Metrics.add m.k_guards (guards - m.k_guards_seen);
            m.k_guards_seen <- guards
          end));
    Ok t

let create ?obs ?config workload = of_problem ?obs ?config (P.compile workload)

(* ------------------------------------------------------------------ *)
(* Churn: incremental admit / retire of task blocks                     *)
(* ------------------------------------------------------------------ *)

let n_tasks t = t.n_task

let n_active_tasks t = t.n_task - t.n_inactive

let task_active t k =
  if k < 0 || k >= t.n_task then invalid_arg "Kernel.task_active: bad task index";
  t.active.(k)

(* Retirement rewrites task [k]'s block so that every pass update over it
   is naturally the identity — no hot-path [active] branch needed:
   - subtasks: work = press0 = 0, bounds and latency pinned at 1. The
     closed-form candidate is hi = 1 = lat regardless of prices (pressure
     0, mu arbitrary), so the subtask never reports movement; its share
     is 0 / max(0, 1) = 0, so it vanishes from Eq. 3 sums.
   - paths: lambda = 0, gamma at initial, crit = infinity. The slack term
     is 1 - latency/inf = 1, so the Eq. 9 candidate is max 0 (0 - g) = 0:
     the update is the identity and the path drops out of the queue; the
     crit guard in [path_pass] keeps congested shared resources from
     escalating its step.
   The block's resources and neighbors stay live: removing the shares
   perturbs mu on shared resources, which re-queues the neighbors — the
   genuine cold-zone churn ripple the dirty sets exist for. *)
let retire_task t k =
  if k < 0 || k >= t.n_task then invalid_arg "Kernel.retire_task: bad task index";
  if not t.active.(k) then invalid_arg "Kernel.retire_task: task already retired";
  t.active.(k) <- false;
  t.n_inactive <- t.n_inactive + 1;
  let task = t.problem.P.tasks.(k) in
  Array.iter
    (fun i ->
      let j = t.idx.(i) in
      t.work.(j) <- 0.;
      t.press0.(j) <- 0.;
      t.lo_b.(j) <- 1.;
      t.hi_b.(j) <- 1.;
      t.lat.(j) <- 1.;
      queue_sub t j;
      dirty_res t t.sub_res.(j))
    task.P.subtask_indices;
  Array.iter
    (fun p ->
      t.lambda.(p) <- 0.;
      t.gamma_p.(p) <- t.g_init_p;
      t.crit.(p) <- infinity;
      dirty_path t p)
    task.P.path_indices

(* Re-admission restores the construction-time coefficients and the
   construction-time initial iterate (lat_hi, lambda0, gamma at initial),
   then queues the block. Shared resource prices are whatever churn has
   made them — the block converges into the running system. When the
   retire was immediate (same inter-tick gap), every restored cell is
   bit-identical to its pre-retire value and the resulting trajectory is
   bit-for-bit the one where the admit/retire pair never happened; the
   property suite checks this. *)
let admit_task t k =
  if k < 0 || k >= t.n_task then invalid_arg "Kernel.admit_task: bad task index";
  if t.active.(k) then invalid_arg "Kernel.admit_task: task already active";
  t.active.(k) <- true;
  t.n_inactive <- t.n_inactive - 1;
  let task = t.problem.P.tasks.(k) in
  Array.iter
    (fun i ->
      let s = t.problem.P.subtasks.(i) and j = t.idx.(i) in
      t.work.(j) <- s.P.share.Lla_model.Share.lat_min;
      t.press0.(j) <- pressure0 task s;
      t.lo_b.(j) <- lo_bound s;
      t.hi_b.(j) <- t.hi0.(j);
      t.lat.(j) <- s.P.lat_hi;
      queue_sub t j;
      dirty_res t t.sub_res.(j))
    task.P.subtask_indices;
  Array.iter
    (fun p ->
      t.lambda.(p) <- Lla.Solver.lambda0;
      t.gamma_p.(p) <- t.g_init_p;
      t.crit.(p) <- t.problem.P.paths.(p).P.critical_time;
      dirty_path t p)
    task.P.path_indices

(* ------------------------------------------------------------------ *)
(* Chaos injection + safe-mode support                                  *)
(* ------------------------------------------------------------------ *)

let poison_price t r value =
  if r < 0 || r >= t.n_res then invalid_arg "Kernel.poison_price: bad resource index";
  (* parity with Distributed.poison_price: the raw write lands, and the
     pass-level finite-value guards heal it on the next tick *)
  t.mu.(r) <- value;
  queue_res t r

let capacity t r =
  if r < 0 || r >= t.n_res then invalid_arg "Kernel.capacity: bad resource index";
  t.cap.(r)

let set_capacity t r value =
  if r < 0 || r >= t.n_res then invalid_arg "Kernel.set_capacity: bad resource index";
  if not (Float.is_finite value && value > 0.) then
    invalid_arg "Kernel.set_capacity: capacity must be finite and positive";
  t.cap.(r) <- value;
  (* members' latencies are unchanged, so the cached share sum stays
     valid; the price update and congestion flag see the new capacity on
     the next tick *)
  queue_res t r

let disturb_latency t i delta =
  if i < 0 || i >= t.n_sub then invalid_arg "Kernel.disturb_latency: bad subtask index";
  if t.active.(t.problem.P.subtasks.(i).P.task) then begin
    let j = t.idx.(i) in
    let lo = t.lo_b.(j) and hi = t.hi_b.(j) in
    let v = t.lat.(j) +. delta in
    let v = if not (Float.is_finite v) then hi else if v < lo then lo else if v > hi then hi else v in
    if v <> t.lat.(j) then begin
      t.lat.(j) <- v;
      queue_sub t j;
      dirty_res t t.sub_res.(j);
      Array.iter (fun p -> dirty_path t p) t.problem.P.subtasks.(i).P.paths
    end
  end

let set_frozen t frozen = t.frozen <- frozen

let frozen t = t.frozen

(* Safe-mode entry: enact the fallback latencies (clamped to the live
   bounds, retired blocks untouched), heal resource prices by the rule
   Distributed.enter_safe_mode uses and non-finite path prices to 0,
   reset the step sizes, and mark everything dirty so every cache is
   rebuilt from the clamped state on the next tick. *)
let enter_fallback t ~mu_cap ~lat:fallback =
  if Array.length fallback <> t.n_sub then
    invalid_arg "Kernel.enter_fallback: fallback length mismatch";
  for i = 0 to t.n_sub - 1 do
    if t.active.(t.problem.P.subtasks.(i).P.task) then begin
      let j = t.idx.(i) in
      let lo = t.lo_b.(j) and hi = t.hi_b.(j) in
      let v = fallback.(i) in
      let v = if not (Float.is_finite v) then hi else if v < lo then lo else if v > hi then hi else v in
      t.lat.(j) <- v
    end
  done;
  for r = 0 to t.n_res - 1 do
    t.mu.(r) <- Lla.Price_update.heal_resource_price ~mu_cap ~mu0:Lla.Solver.mu0 t.mu.(r);
    t.gamma_r.(r) <- t.g_init_r
  done;
  for p = 0 to t.n_path - 1 do
    if not (Float.is_finite t.lambda.(p)) then t.lambda.(p) <- 0.;
    t.gamma_p.(p) <- t.g_init_p
  done;
  requeue_all t

(* ------------------------------------------------------------------ *)
(* Crash recovery support                                              *)
(* ------------------------------------------------------------------ *)

let all_finite a = Array.for_all Float.is_finite a

(* The process image is gone: every live iterate component reverts to
   its construction-time initial value. Churn membership is control-plane
   state (the admission controller knows which blocks it admitted), so it
   survives the crash — retired blocks keep their identity placeholders
   rather than resurrecting. *)
let crash_reset t =
  Array.iteri
    (fun k (task : P.task) ->
      if t.active.(k) then begin
        Array.iter
          (fun i -> t.lat.(t.idx.(i)) <- t.problem.P.subtasks.(i).P.lat_hi)
          task.P.subtask_indices;
        Array.iter (fun p -> t.lambda.(p) <- Lla.Solver.lambda0) task.P.path_indices
      end)
    t.problem.P.tasks;
  Array.fill t.mu 0 t.n_res Lla.Solver.mu0;
  Array.fill t.gamma_r 0 t.n_res t.g_init_r;
  Array.fill t.gamma_p 0 t.n_path t.g_init_p;
  t.frozen <- false;
  requeue_all t

(* Warm restore from a journaled snapshot of the iterate. Total in its
   inputs: a length mismatch or any non-finite component is refused (the
   caller falls back to the cold [crash_reset] state), finite components
   are projected onto the live bounds / non-negativity like every other
   exogenous write. Step sizes stay at their reset values — the restored
   prices are near-converged, so rediscovering the step magnitude costs
   logarithmically-few ticks and avoids trusting a stale gamma. *)
let restore_iterate t ~lat ~mu ~lambda =
  if
    Array.length lat <> t.n_sub
    || Array.length mu <> t.n_res
    || Array.length lambda <> t.n_path
  then Error "Kernel.restore_iterate: array length mismatch"
  else if
    not
      (all_finite lat && all_finite mu && all_finite lambda)
  then Error "Kernel.restore_iterate: non-finite component refused"
  else begin
    Array.iteri
      (fun k (task : P.task) ->
        if t.active.(k) then begin
          Array.iter
            (fun i ->
              let j = t.idx.(i) in
              let lo = t.lo_b.(j) and hi = t.hi_b.(j) in
              let v = lat.(i) in
              t.lat.(j) <- (if v < lo then lo else if v > hi then hi else v))
            task.P.subtask_indices;
          Array.iter
            (fun p -> t.lambda.(p) <- Float.max 0. lambda.(p))
            task.P.path_indices
        end)
      t.problem.P.tasks;
    for r = 0 to t.n_res - 1 do
      t.mu.(r) <- Float.max 0. mu.(r)
    done;
    requeue_all t;
    Ok ()
  end

(* ------------------------------------------------------------------ *)
(* Read-out                                                            *)
(* ------------------------------------------------------------------ *)

let problem t = t.problem

let n_subtasks t = t.n_sub

let n_resources t = t.n_res

let n_paths t = t.n_path

let iteration t = t.tick

let movement t = t.scratch.(1)

(* Problem.total_utility over the active tasks, reading each latency
   through [idx] instead of building a problem-ordered copy: the same
   folds in the same order, so the same bits. Retired blocks hold
   lat = 1, which is meaningless to their utilities. The closures'
   minor garbage is kept on purpose: a closure-free loop raised the
   soak's peak RSS by 12%, because fewer minor collections slowed the
   major GC's pacing of its journal strings. *)
let utility t =
  let { P.tasks; subtasks; _ } = t.problem in
  let acc = ref 0. in
  Array.iteri
    (fun k (task : P.task) ->
      if t.active.(k) then
        let agg =
          Array.fold_left
            (fun a i -> a +. (subtasks.(i).P.weight *. t.lat.(t.idx.(i))))
            0. task.P.subtask_indices
        in
        acc := !acc +. task.P.utility.Lla_model.Utility.f agg)
    tasks;
  !acc

let publish_metrics t ~at =
  match t.km with
  | None -> ()
  | Some m ->
    Lla_obs.Metrics.set_at m.k_util ~at (utility t);
    Lla_obs.Metrics.set_at m.k_move ~at t.scratch.(1);
    Lla_obs.Metrics.set_at m.k_active ~at (float_of_int (t.n_task - t.n_inactive))

let lat_array t = Array.map (fun j -> t.lat.(j)) t.idx

let mu_array t = t.mu

let lambda_array t = t.lambda

let violations t =
  let tol = Lla.Solver.feasibility_tolerance in
  let acc = ref [] in
  for p = t.n_path - 1 downto 0 do
    if t.path_lat.(p) > t.crit.(p) *. (1. +. tol) then
      acc :=
        Printf.sprintf "task %s path %d misses critical time: %.2f > C=%.2f"
          t.problem.P.tasks.(t.problem.P.paths.(p).P.task).P.task_name
          t.problem.P.paths.(p).P.index_in_task t.path_lat.(p) t.crit.(p)
        :: !acc
  done;
  for r = t.n_res - 1 downto 0 do
    if t.share_sum.(r) > t.cap.(r) *. (1. +. tol) then
      acc :=
        Printf.sprintf "resource %s over capacity: share sum %.4f > B=%.4f"
          (Lla_model.Ids.Resource_id.to_string t.problem.P.resource_ids.(r))
          t.share_sum.(r) t.cap.(r)
        :: !acc
  done;
  !acc

(* Retired blocks read as trivially feasible here: their shares are 0 and
   their critical times infinity, so only active tasks constrain either
   check. *)
let resources_feasible t ~tol =
  let ok = ref true in
  for r = 0 to t.n_res - 1 do
    if t.share_sum.(r) > t.cap.(r) *. (1. +. tol) then ok := false
  done;
  !ok

let paths_feasible t ~tol =
  let ok = ref true in
  for p = 0 to t.n_path - 1 do
    if t.path_lat.(p) > t.crit.(p) *. (1. +. tol) then ok := false
  done;
  !ok

let feasible_within t ~tol = resources_feasible t ~tol && paths_feasible t ~tol

let feasible t = feasible_within t ~tol:Lla.Solver.feasibility_tolerance

let solve t ~max_iterations =
  let still = ref 0 in
  let result = ref None in
  while !result = None && t.tick < max_iterations do
    step t;
    if t.scratch.(1) <= t.config.movement_tolerance then incr still else still := 0;
    if !still >= Lla.Solver.convergence_window && feasible t then result := Some t.tick
  done;
  !result

type touch_stats = {
  subtasks_touched : int;
  resources_touched : int;
  paths_touched : int;
  subtasks_total : int;
  resources_total : int;
  paths_total : int;
}

let last_touch t =
  {
    subtasks_touched = t.touch_sub;
    resources_touched = t.touch_res;
    paths_touched = t.touch_path;
    subtasks_total = t.n_sub;
    resources_total = t.n_res;
    paths_total = t.n_path;
  }

let cumulative_touch t =
  {
    subtasks_touched = t.cum_sub;
    resources_touched = t.cum_res;
    paths_touched = t.cum_path;
    subtasks_total = t.n_sub * t.tick;
    resources_total = t.n_res * t.tick;
    paths_total = t.n_path * t.tick;
  }
