module Transport = Lla_transport.Transport
module Delay_model = Lla_transport.Delay_model

let src = Logs.Src.create "lla.runtime" ~doc:"Distributed LLA runtime"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  message_delay : float;
  step_policy : Lla.Step_size.policy;
  sweeps : int;
}

let default_config =
  {
    message_delay = 1.0;
    step_policy = Lla.Step_size.adaptive ~initial:1.0 ();
    sweeps = 2;
  }

(* ms between controller allocations and between price recomputations *)
let controller_period = 10.0

let resource_period = 10.0

type resilience = {
  checkpoint_period : float option;
  health : bool;
  safe_mode : Safe_mode.config option;
}

let default_resilience =
  {
    checkpoint_period = Some 100.;
    health = true;
    safe_mode = Some Safe_mode.default_config;
  }

(* ms between safe-mode observations *)
let watchdog_period = 10.

(* Runtime counters, registry-backed: with [?obs] they land in the shared
   registry (visible in the Prometheus exposition); without it they live
   in a private registry. Either way an update is one mutable-field
   write, same cost as the ad-hoc ints they replaced. *)
type meters = {
  m_messages : Lla_obs.Metrics.counter;
  m_price_rounds : Lla_obs.Metrics.counter;
  m_allocation_rounds : Lla_obs.Metrics.counter;
  m_guards : Lla_obs.Metrics.counter;
  m_warm_restores : Lla_obs.Metrics.counter;
  m_cold_restarts : Lla_obs.Metrics.counter;
  m_control_latency : Lla_obs.Metrics.histogram;
}

(* Everything an actor touches on its own tick lives in its shard
   context: the scheduling core, the transport carrying its messages,
   the obs handle its emissions land in, its meters, its checkpoint
   store and failure detector. On the legacy single-shard path there is
   exactly one context wrapping the caller's engine/transport/obs, so
   every actor codepath below is bit-for-bit the pre-shard one. On a
   domains engine each shard's context is owned by one domain during a
   parallel phase (single-writer; the barrier publishes), and the only
   cross-shard traffic is [Engine.post]ed through shadow endpoints. *)
type shard_ctx = {
  sc_id : int;
  sc_core : Lla_sim.Engine.t;
  sc_transport : Transport.t;
  sc_obs : Lla_obs.t option;
  sc_registry : Lla_obs.Metrics.t;
  sc_meters : meters;
  sc_checkpoint : Checkpoint.t option;
  mutable sc_health : Health.t option;
  (* Shadow endpoints: a local always-up stand-in (same name) for each
     remote actor this shard sends to. The source-side transport applies
     its faults/partitions/staleness on the src->shadow channel; the
     payload then crosses the barrier and checks the real destination's
     liveness on its home shard. Lazily created per destination, and
     indexed by the destination's global id. *)
  sc_shadows : Transport.endpoint option array;
  (* Internal trace sink reader ([create_on] with [?obs] only): feeds
     {!merged_records} for oracles over the whole deployment. *)
  sc_reader : (unit -> Lla_obs.Trace.record list) option;
}

(* Per-resource price agent: owns mu_r and its adaptive step size; sees
   only the latencies announced for its own subtasks. *)
type agent = {
  resource : int;
  a_ctx : shard_ctx;
  mutable price : float;
  mutable gamma : float;
  lat_view : float array;  (* latest announced latency per local subtask slot *)
  local_subtasks : int array;  (* problem subtask indices on this resource *)
  controllers : int list;  (* task indices to notify *)
  agent_endpoint : Transport.endpoint;
  (* Causal-span state (unused unless obs traces spans): the context of
     the latest applied latency announcement, consumed by the next price
     span as its parent; and this agent's own previous price span, the
     fallback parent that chains ticks with no new input into one trace. *)
  mutable a_in_span : Lla_obs.Span.t option;
  mutable a_prev_span : Lla_obs.Span.t option;
}

(* Per-task controller: owns its path prices and a stale view of resource
   prices. [lambda] and [lat] are shared storage across all controllers;
   each controller reads and writes only its own task's slots (disjoint
   by construction), which keeps them safe under domain parallelism and
   keeps the multiplier state O(paths) instead of O(tasks * paths). *)
type controller = {
  task : int;
  c_ctx : shard_ctx;
  mu_view : float array;  (* indexed by resource *)
  congested_view : bool array;
  lambda : float array;  (* shared storage; controller touches only own path slots *)
  gamma_p : float array;  (* per own path *)
  lat : float array;  (* shared storage; controller writes only own slots *)
  controller_endpoint : Transport.endpoint;
  (* Causal-span state: latest applied price-message context; whether it
     arrived since the last solve (a solve that consumed a fresh price is
     the endpoint of a control reaction); previous alloc span as the
     fallback parent. *)
  mutable c_price_span : Lla_obs.Span.t option;
  mutable c_fresh_price : bool;
  mutable c_prev_span : Lla_obs.Span.t option;
}

type t = {
  config : config;
  engine_h : Engine.t;
  engine : Lla_sim.Engine.t;  (* shard 0's core (the caller's on the legacy path) *)
  transport : Transport.t;  (* shard 0's transport *)
  ctxs : shard_ctx array;
  n_resources : int;
  n_actors : int;  (* agents + controllers; the channel-id basis *)
  problem : Lla.Problem.t;
  agents : agent array;
  controllers : controller array;
  offsets : float array;
  lat : float array;  (* controller-written latency vector *)
  lat_slot : int array;  (* subtask -> its slot in its agent's [lat_view] *)
  lambda : float array;  (* controller-written path multipliers *)
  agent_ticks : Lla_sim.Engine.event_id option array;
  controller_ticks : Lla_sim.Engine.event_id option array;
  (* Resilience layer; all None/absent when created without ?resilience,
     in which case the behaviour (and event schedule) is bit-for-bit the
     legacy one. *)
  resilience : resilience option;
  safe_mode : Safe_mode.t option;
  obs : Lla_obs.t option;
  mutable watchdog_tick : Lla_sim.Engine.event_id option;
  mutable started : bool;
  mutable stopped : bool;
  (* Durability (PR 10): the write-ahead journal behind shard 0's
     checkpoint store, plus whole-node crash-drill accounting. *)
  journal : Lla_durable.Journal.t option;
  mutable crashes : int;
  mutable crash_replayed : int;
  mutable crash_refused : int;
  mutable crash_truncated_bytes : int;
  mutable crash_warm : int;
  mutable crash_cold : int;
  mutable crash_resurrected : int;
  mutable crash_idempotent : bool;
}

type crash_stats = {
  crashes : int;
  replayed : int;
  refused : int;
  truncated_bytes : int;
  warm : int;
  cold : int;
  resurrected : int;
  idempotent : bool;
}

(* Actor global ids: agent r -> r, controller k -> n_resources + k; the
   (src, dst) pair packs into one cross-shard channel id. *)
let home t gid =
  if gid < t.n_resources then
    let a = t.agents.(gid) in
    (a.a_ctx, a.agent_endpoint)
  else
    let c = t.controllers.(gid - t.n_resources) in
    (c.c_ctx, c.controller_endpoint)

(* Price agents run Eq. 8, so they take the resource component of a
   [Split]; controllers run Eq. 9 and take the path component. *)
let resource_policy policy = fst (Lla.Step_size.components policy)
let path_policy policy = snd (Lla.Step_size.components policy)

(* A restarted agent has lost its price state: it restarts from mu0 and the
   compiled initial latency view, rebuilding both from the next received
   Latency messages (§4.1 asynchrony made crash-tolerant). *)
let reset_agent t (a : agent) =
  a.price <- Lla.Solver.mu0;
  a.gamma <- Lla.Step_size.initial (resource_policy t.config.step_policy);
  a.a_in_span <- None;
  a.a_prev_span <- None;
  Array.iteri (fun slot i -> a.lat_view.(slot) <- t.problem.subtasks.(i).lat_hi) a.local_subtasks

(* A restarted controller forgets its price views and path multipliers; the
   latency assignment itself (t.lat) is enacted state in the data plane and
   survives the controller's crash. *)
let reset_controller t (c : controller) =
  c.c_price_span <- None;
  c.c_fresh_price <- false;
  c.c_prev_span <- None;
  Array.fill c.mu_view 0 (Array.length c.mu_view) Lla.Solver.mu0;
  Array.fill c.congested_view 0 (Array.length c.congested_view) false;
  Array.iter (fun p -> c.lambda.(p) <- 0.) t.problem.tasks.(c.task).path_indices;
  Array.fill c.gamma_p 0 (Array.length c.gamma_p)
    (Lla.Step_size.initial (path_policy t.config.step_policy))

(* Warm restart: rebuild from the last accepted checkpoint instead of from
   mu0, skipping the cold-convergence transient. Falls back to the cold
   reset when there is no snapshot or it does not match the actor's
   shape. *)
let note_restore (ctx : shard_ctx) ~actor ~warm =
  if warm then Lla_obs.Metrics.incr ctx.sc_meters.m_warm_restores
  else Lla_obs.Metrics.incr ctx.sc_meters.m_cold_restarts;
  Lla_obs.emit_opt ctx.sc_obs ~at:(Lla_sim.Engine.now ctx.sc_core)
    (Lla_obs.Trace.Checkpoint_restored { actor; warm })

let restart_agent t (a : agent) =
  let ctx = a.a_ctx in
  let warm =
    match ctx.sc_checkpoint with
    | None -> None
    | Some cp -> Checkpoint.restore_agent cp a.resource
  in
  let actor = Printf.sprintf "agent:%d" a.resource in
  match warm with
  | Some st when Array.length st.Checkpoint.lat_view = Array.length a.lat_view ->
    a.price <- st.Checkpoint.price;
    a.gamma <- st.Checkpoint.gamma;
    Array.blit st.Checkpoint.lat_view 0 a.lat_view 0 (Array.length a.lat_view);
    note_restore ctx ~actor ~warm:true
  | _ ->
    reset_agent t a;
    note_restore ctx ~actor ~warm:false

(* Controller snapshots carry the *own-path* multiplier values (compacted
   by [path_indices] order), not the whole shared lambda vector: a restore
   must never clobber other controllers' live slots. *)
let own_lambda t (c : controller) =
  Array.map (fun p -> c.lambda.(p)) t.problem.tasks.(c.task).path_indices

let restart_controller t (c : controller) =
  let ctx = c.c_ctx in
  let warm =
    match ctx.sc_checkpoint with
    | None -> None
    | Some cp -> Checkpoint.restore_controller cp c.task
  in
  let actor = Printf.sprintf "controller:%d" c.task in
  let path_indices = t.problem.tasks.(c.task).path_indices in
  match warm with
  | Some st
    when Array.length st.Checkpoint.mu_view = Array.length c.mu_view
         && Array.length st.Checkpoint.congested_view = Array.length c.congested_view
         && Array.length st.Checkpoint.lambda = Array.length path_indices
         && Array.length st.Checkpoint.gamma_p = Array.length c.gamma_p ->
    Array.blit st.Checkpoint.mu_view 0 c.mu_view 0 (Array.length c.mu_view);
    Array.blit st.Checkpoint.congested_view 0 c.congested_view 0 (Array.length c.congested_view);
    Array.iteri (fun k p -> c.lambda.(p) <- st.Checkpoint.lambda.(k)) path_indices;
    Array.blit st.Checkpoint.gamma_p 0 c.gamma_p 0 (Array.length c.gamma_p);
    note_restore ctx ~actor ~warm:true
  | _ ->
    reset_controller t c;
    note_restore ctx ~actor ~warm:false

let mk_meters registry =
  let meter name help = Lla_obs.Metrics.counter registry name ~help in
  {
    m_messages = meter "lla_runtime_messages_total" "Control-plane messages handed to the transport.";
    m_price_rounds = meter "lla_runtime_price_rounds_total" "Agent price-update rounds executed (Eq. 8).";
    m_allocation_rounds =
      meter "lla_runtime_allocation_rounds_total" "Controller allocation rounds executed (Eq. 7/9).";
    m_guards = meter "lla_runtime_guard_events_total" "Non-finite values neutralized by the runtime guards.";
    m_warm_restores = meter "lla_runtime_warm_restores_total" "Actor restarts recovered from a checkpoint.";
    m_cold_restarts = meter "lla_runtime_cold_restarts_total" "Actor restarts reset to the cold mu0 state.";
    m_control_latency =
      Lla_obs.Metrics.histogram registry "lla_control_latency_ms"
        ~help:
          "Control-reaction latency: price update at a resource agent to the next allocation \
           applied at a task controller that consumed it (engine ms).";
  }

(* One base per shard: (core, transport, obs, trace reader). The legacy
   [create] passes a single base wrapping the caller's objects — every
   construction effect (endpoint ids, counter registration, detector
   wiring) then happens in exactly the legacy order. *)
let create_internal ?obs ?journal ~config ~resilience ~engine_h ~bases workload =
  let problem = Lla.Problem.compile workload in
  let n_subtasks = Lla.Problem.n_subtasks problem in
  let n_resources = Lla.Problem.n_resources problem in
  let n_tasks = Lla.Problem.n_tasks problem in
  let n_shards = Array.length bases in
  let lat = Array.init n_subtasks (fun i -> problem.subtasks.(i).lat_hi) in
  let lambda = Array.make (Lla.Problem.n_paths problem) 0. in
  let ctxs =
    Array.mapi
      (fun sc_id (core, transport, sobs, reader) ->
        let registry =
          match sobs with Some o -> o.Lla_obs.metrics | None -> Lla_obs.Metrics.create ()
        in
        let checkpoint =
          match resilience with
          | Some { checkpoint_period = Some _; _ } ->
            (* the journal is single-writer: it backs shard 0's store
               only; actors homed on other shards recover cold after a
               whole-node crash (documented limitation) *)
            let journal = if sc_id = 0 then journal else None in
            Some
              (Checkpoint.create ?obs:sobs ?journal
                 ~n_agents:n_resources ~n_controllers:n_tasks ())
          | _ -> None
        in
        {
          sc_id;
          sc_core = core;
          sc_transport = transport;
          sc_obs = sobs;
          sc_registry = registry;
          sc_meters = mk_meters registry;
          sc_checkpoint = checkpoint;
          sc_health = None;
          sc_shadows = Array.make (n_resources + n_tasks) None;
          sc_reader = reader;
        })
      bases
  in
  let agents =
    Array.init n_resources (fun r ->
        let ctx = ctxs.(r mod n_shards) in
        let local = problem.by_resource.(r) in
        let controllers =
          Array.to_list local
          |> List.map (fun i -> problem.subtasks.(i).task)
          |> List.sort_uniq Int.compare
        in
        {
          resource = r;
          a_ctx = ctx;
          price = Lla.Solver.mu0;
          gamma = Lla.Step_size.initial (resource_policy config.step_policy);
          lat_view = Array.map (fun i -> lat.(i)) local;
          local_subtasks = local;
          controllers;
          agent_endpoint = Transport.endpoint ctx.sc_transport ~name:(Printf.sprintf "agent:%d" r);
          a_in_span = None;
          a_prev_span = None;
        })
  in
  let controllers =
    Array.init n_tasks (fun ti ->
        let ctx = ctxs.(ti mod n_shards) in
        {
          task = ti;
          c_ctx = ctx;
          mu_view = Array.make n_resources Lla.Solver.mu0;
          congested_view = Array.make n_resources false;
          lambda;
          gamma_p =
            Array.make
              (Array.length problem.tasks.(ti).path_indices)
              (Lla.Step_size.initial (path_policy config.step_policy));
          lat;
          controller_endpoint =
            Transport.endpoint ctx.sc_transport ~name:(Printf.sprintf "controller:%d" ti);
          c_price_span = None;
          c_fresh_price = false;
          c_prev_span = None;
        })
  in
  (match resilience with
  | Some { health = true; _ } ->
    Array.iter
      (fun ctx ->
        let h = Health.create ?obs:ctx.sc_obs ctx.sc_transport in
        Array.iter (fun a -> if a.a_ctx == ctx then Health.watch h a.agent_endpoint) agents;
        Array.iter (fun c -> if c.c_ctx == ctx then Health.watch h c.controller_endpoint) controllers;
        ctx.sc_health <- Some h)
      ctxs
  | _ -> ());
  let safe_mode =
    match resilience with
    | Some { safe_mode = Some sc; _ } -> Some (Safe_mode.create ?obs ~config:sc problem)
    | _ -> None
  in
  let t =
    {
      config;
      engine_h;
      engine = ctxs.(0).sc_core;
      transport = ctxs.(0).sc_transport;
      ctxs;
      n_resources;
      n_actors = n_resources + n_tasks;
      problem;
      agents;
      controllers;
      offsets = Array.make n_subtasks 0.;
      lat;
      lat_slot =
        (let slots = Array.make n_subtasks 0 in
         Array.iter (Array.iteri (fun slot i -> slots.(i) <- slot)) problem.by_resource;
         slots);
      lambda;
      agent_ticks = Array.make n_resources None;
      controller_ticks = Array.make n_tasks None;
      resilience;
      safe_mode;
      obs;
      watchdog_tick = None;
      started = false;
      stopped = false;
      journal;
      crashes = 0;
      crash_replayed = 0;
      crash_refused = 0;
      crash_truncated_bytes = 0;
      crash_warm = 0;
      crash_cold = 0;
      crash_resurrected = 0;
      crash_idempotent = true;
    }
  in
  Array.iter
    (fun a ->
      Transport.on_restart a.a_ctx.sc_transport a.agent_endpoint (fun () -> restart_agent t a))
    agents;
  Array.iter
    (fun c ->
      Transport.on_restart c.c_ctx.sc_transport c.controller_endpoint (fun () ->
          restart_controller t c))
    controllers;
  t

let create ?obs ?(config = default_config) ?resilience ?journal ?transport engine workload =
  let transport =
    match transport with
    | Some tr ->
      if not (Transport.engine tr == engine) then
        invalid_arg "Distributed.create: transport runs on a different engine";
      tr
    | None ->
      Transport.create ?obs engine
        ~config:
          { Transport.default_config with delay = Delay_model.constant config.message_delay }
  in
  create_internal ?obs ?journal ~config ~resilience ~engine_h:(Engine.Sim engine)
    ~bases:[| (engine, transport, obs, None) |]
    workload

let create_on ?obs ?(config = default_config) ?resilience ?journal ?transport_config
    engine_h workload =
  let n = Engine.shards engine_h in
  let tc =
    match transport_config with
    | Some c -> c
    | None ->
      { Transport.default_config with delay = Delay_model.constant config.message_delay }
  in
  (* The caller's handle becomes shard 0's: span ids stride by the shard
     count so all shards allocate from disjoint arithmetic sequences. *)
  (match obs with
  | Some o when n > 1 && o.Lla_obs.spans -> Lla_obs.set_span_stride o ~base:0 ~stride:n
  | _ -> ());
  let bases =
    Array.init n (fun s ->
        let core = Engine.core engine_h ~shard:s in
        let sobs =
          if s = 0 then obs
          else
            match obs with
            | Some o -> Some (Lla_obs.create ~spans:o.Lla_obs.spans ~span_base:s ~span_stride:n ())
            | None -> None
        in
        let reader =
          match sobs with
          | Some so ->
            let sink, collected = Lla_obs.Trace.memory_sink () in
            Lla_obs.Trace.attach so.Lla_obs.trace sink;
            Some collected
          | None -> None
        in
        let transport =
          Transport.create ?obs:sobs ~config:{ tc with Transport.seed = tc.seed + s } core
        in
        (core, transport, sobs, reader))
  in
  create_internal ?obs ?journal ~config ~resilience ~engine_h ~bases workload

(* Route a control message. Same shard: straight through the legacy
   transport path. Cross shard: through the source transport to the
   destination's local shadow (so source-side faults, partitions and
   last-write-wins staleness all apply), then across the barrier via
   [Engine.post]; the real destination's liveness is checked on arrival,
   on its home shard — a down actor silently loses the message, exactly
   as the destination-down branch of the single-transport path. *)
let send ?key ?span t ~from:(ctx : shard_ctx) ~src ~src_gid ~dst_gid apply =
  Lla_obs.Metrics.incr ctx.sc_meters.m_messages;
  let dst_ctx, dst_ep = home t dst_gid in
  if dst_ctx == ctx then Transport.send_traced ?key ?span ctx.sc_transport ~src ~dst:dst_ep apply
  else begin
    let shadow =
      match ctx.sc_shadows.(dst_gid) with
      | Some ep -> ep
      | None ->
        let ep =
          Transport.endpoint ctx.sc_transport ~name:(Transport.endpoint_name dst_ep)
        in
        ctx.sc_shadows.(dst_gid) <- Some ep;
        ep
    in
    let channel = (src_gid * t.n_actors) + dst_gid in
    Transport.send_traced ?key ?span ctx.sc_transport ~src ~dst:shadow (fun sp ->
        Engine.post t.engine_h ~from:ctx.sc_id ~shard:dst_ctx.sc_id
          ~at:(Lla_sim.Engine.now ctx.sc_core) ~channel (fun () ->
            if Transport.is_up dst_ctx.sc_transport dst_ep then apply sp))
  end

let in_safe_mode t =
  match t.safe_mode with Some sm -> Safe_mode.in_safe_mode sm | None -> false

(* Wall-clock phase timing: one [None] match when unobserved, one branch
   on a disabled profiler — never touches the engine schedule. *)
let prof (ctx : shard_ctx) name f =
  match ctx.sc_obs with Some o -> Lla_obs.Profile.time o.Lla_obs.profile name f | None -> f ()

(* Open a work span ("price" at an agent, "alloc" at a controller): child
   of [parent] when the actor consumed fresh causal input, else chained
   onto [prev] (its own previous work span), else a root. Ids come from
   the handle's deterministic counter; emission is the only effect. *)
let work_span o ~at ~kind ~actor ~parent ~prev =
  let id = Lla_obs.alloc_span o in
  let parent_ctx = match parent with Some _ -> parent | None -> prev in
  let ctx =
    match parent_ctx with
    | Some p -> Lla_obs.Span.child p ~id ~at
    | None -> Lla_obs.Span.root ~id ~at
  in
  Lla_obs.emit o ~at
    (Lla_obs.Trace.Span
       {
         span = id;
         parent = (match parent_ctx with Some p -> p.Lla_obs.Span.span_id | None -> -1);
         trace = ctx.Lla_obs.Span.trace_id;
         kind;
         actor;
       });
  ctx

let spans_on (ctx : shard_ctx) =
  match ctx.sc_obs with Some o when o.Lla_obs.spans -> Some o | _ -> None

(* Announce one subtask latency to the agent hosting it; keyed by the
   subtask index so last-write-wins discards reordered stale values.
   [span] is the controller's alloc span (absent for the initial and
   safe-mode re-announcements, which are state repair, not reactions);
   an applied delivery parks the forwarded context on the agent for its
   next price span to consume. *)
let announce_latency ?span t (c : controller) i =
  let s = t.problem.subtasks.(i) in
  let a = t.agents.(s.resource) in
  let value = c.lat.(i) and slot = t.lat_slot.(i) in
  send t ~key:i ?span ~from:c.c_ctx ~src:c.controller_endpoint
    ~src_gid:(t.n_resources + c.task) ~dst_gid:a.resource (fun sp ->
      a.lat_view.(slot) <- value;
      match sp with Some ctx -> a.a_in_span <- Some ctx | None -> ())

let checkpoint_due period ~now last =
  match last with None -> true | Some at -> now -. at >= period -. 1e-9

let maybe_checkpoint_agent t (a : agent) =
  match (a.a_ctx.sc_checkpoint, t.resilience) with
  | Some cp, Some { checkpoint_period = Some period; _ } ->
    let now = Lla_sim.Engine.now a.a_ctx.sc_core in
    if checkpoint_due period ~now (Checkpoint.last_agent_save cp a.resource) then
      prof a.a_ctx "checkpoint" (fun () ->
          ignore
            (Checkpoint.save_agent cp a.resource ~now
               { Checkpoint.price = a.price; gamma = a.gamma; lat_view = a.lat_view }))
  | _ -> ()

let maybe_checkpoint_controller t (c : controller) =
  match (c.c_ctx.sc_checkpoint, t.resilience) with
  | Some cp, Some { checkpoint_period = Some period; _ } ->
    let now = Lla_sim.Engine.now c.c_ctx.sc_core in
    if checkpoint_due period ~now (Checkpoint.last_controller_save cp c.task) then
      prof c.c_ctx "checkpoint" (fun () ->
          ignore
            (Checkpoint.save_controller cp c.task ~now
               {
                 Checkpoint.mu_view = c.mu_view;
                 congested_view = c.congested_view;
                 lambda = own_lambda t c;
                 gamma_p = c.gamma_p;
               }))
  | _ -> ()

(* Agent tick: Eq. 8 from the announced latencies, then broadcast. *)
let agent_tick t (a : agent) =
  let ctx = a.a_ctx in
  prof ctx "price_update" @@ fun () ->
  Lla_obs.Metrics.incr ctx.sc_meters.m_price_rounds;
  (* A non-finite stored price can never recover through Eq. 8 (inf - x
     = inf, nan propagates), so any corruption that lands directly in
     [a.price] — a poisoned restore, fault injection — would otherwise
     persist forever: heal it to [mu0] like the other runtime guards. *)
  if not (Float.is_finite a.price) then begin
    Lla_obs.Metrics.incr ctx.sc_meters.m_guards;
    Lla_obs.emit_opt ctx.sc_obs ~at:(Lla_sim.Engine.now ctx.sc_core)
      (Lla_obs.Trace.Guard_fired { site = "distributed.agent.price" });
    a.price <- Lla.Solver.mu0
  end;
  let used = ref 0. in
  for slot = 0 to Array.length a.local_subtasks - 1 do
    let i = a.local_subtasks.(slot) in
    used :=
      !used +. Lla.Problem.effective_share t.problem i ~lat:a.lat_view.(slot) ~offset:t.offsets.(i)
  done;
  let used = !used in
  let cap = t.problem.capacities.(a.resource) in
  (* A poisoned latency announcement must not become a non-finite price:
     skip the price update (keep broadcasting the last good price) and
     count the event. *)
  if not (Float.is_finite used) then begin
    Lla_obs.Metrics.incr ctx.sc_meters.m_guards;
    Lla_obs.emit_opt ctx.sc_obs ~at:(Lla_sim.Engine.now ctx.sc_core)
      (Lla_obs.Trace.Guard_fired { site = "distributed.agent" })
  end
  else begin
    let congested = used > cap +. 1e-12 in
    let step = a.gamma in
    a.price <- Lla.Price_update.resource_step ~mu:a.price ~gamma:step ~capacity:cap ~used;
    a.gamma <- Lla.Step_size.adapt (resource_policy t.config.step_policy) step ~congested;
    Lla_obs.emit_opt ctx.sc_obs ~at:(Lla_sim.Engine.now ctx.sc_core)
      (Lla_obs.Trace.Price_updated
         {
           resource = a.resource;
           mu = a.price;
           step;
           share_sum = used;
           capacity = cap;
           congested;
         });
    maybe_checkpoint_agent t a;
    let span =
      match spans_on ctx with
      | Some o ->
        let sctx =
          work_span o ~at:(Lla_sim.Engine.now ctx.sc_core) ~kind:"price"
            ~actor:(Transport.endpoint_name a.agent_endpoint) ~parent:a.a_in_span
            ~prev:a.a_prev_span
        in
        a.a_in_span <- None;
        a.a_prev_span <- Some sctx;
        Some sctx
      | None -> None
    in
    let price = a.price in
    List.iter
      (fun ti ->
        let c = t.controllers.(ti) in
        send t ~key:a.resource ?span ~from:ctx ~src:a.agent_endpoint ~src_gid:a.resource
          ~dst_gid:(t.n_resources + ti) (fun sp ->
            c.mu_view.(a.resource) <- price;
            c.congested_view.(a.resource) <- congested;
            match sp with
            | Some sctx ->
              c.c_price_span <- Some sctx;
              c.c_fresh_price <- true
            | None -> ()))
      a.controllers
  end

(* Controller tick: Eq. 9 for own paths, Eq. 7 for own subtasks, then
   announce the new latencies to the agents hosting them. In safe mode the
   optimization is frozen: the controller only re-announces the enacted
   (fallback) latencies so agents' views stay fresh — and so a restarted
   agent's view is repaired — while the price iteration settles. *)
let controller_tick t (c : controller) =
  let ctx = c.c_ctx in
  prof ctx "allocation" @@ fun () ->
  let info = t.problem.tasks.(c.task) in
  if in_safe_mode t then
    Array.iter (fun i -> announce_latency t c i) info.subtask_indices
  else begin
    Lla_obs.Metrics.incr ctx.sc_meters.m_allocation_rounds;
    let now = Lla_sim.Engine.now ctx.sc_core in
    Array.iteri
      (fun local p ->
        let path = t.problem.paths.(p) in
        let latency = Lla.Problem.path_latency t.problem p ~lat:c.lat in
        let step = c.gamma_p.(local) in
        let next =
          Lla.Price_update.path_step ~lambda:c.lambda.(p) ~gamma:step ~latency
            ~critical_time:path.critical_time
        in
        (* Same guard as Price_update.update_path: never store a poisoned
           multiplier. *)
        if Float.is_finite next then begin
          c.lambda.(p) <- next;
          Lla_obs.emit_opt ctx.sc_obs ~at:now
            (Lla_obs.Trace.Path_price_updated
               { path = p; lambda = next; step; latency; critical_time = path.critical_time })
        end
        else begin
          Lla_obs.Metrics.incr ctx.sc_meters.m_guards;
          Lla_obs.emit_opt ctx.sc_obs ~at:now
            (Lla_obs.Trace.Guard_fired { site = "distributed.controller" })
        end;
        let any_congested =
          Array.exists (fun r -> c.congested_view.(r)) path.path_resources
        in
        c.gamma_p.(local) <-
          Lla.Step_size.adapt (path_policy t.config.step_policy) step ~congested:any_congested)
      info.path_indices;
    let guards = ref 0 in
    prof ctx "solve" (fun () ->
        Lla.Allocation.allocate_task ?obs:ctx.sc_obs ~at:now t.problem c.task ~mu:c.mu_view
          ~lambda:c.lambda ~offsets:t.offsets ~sweeps:t.config.sweeps ~guards ~lat:c.lat);
    Lla_obs.Metrics.add ctx.sc_meters.m_guards !guards;
    (match ctx.sc_obs with
    | Some o ->
      (* Per-task utility, not the global total: recomputing the full
         objective on every solve costs more than all other emission
         combined, and the total is the sum of the latest per-task
         values anyway. *)
      Lla_obs.emit o ~at:now
        (Lla_obs.Trace.Allocation_solved
           { task = c.task; utility = Lla.Problem.task_utility t.problem c.task ~lat:c.lat })
    | None -> ());
    maybe_checkpoint_controller t c;
    let span =
      match spans_on ctx with
      | Some o ->
        let fresh = c.c_fresh_price in
        let sctx =
          work_span o ~at:now ~kind:"alloc"
            ~actor:(Transport.endpoint_name c.controller_endpoint)
            ~parent:(if fresh then c.c_price_span else None)
            ~prev:c.c_prev_span
        in
        (* The reaction closes here: price change at the agent (the
           origin timestamp forwarded through the message) to this
           applied allocation. Only solves that consumed a fresh price
           count — re-solves on stale views are not reactions. *)
        if fresh then begin
          (match c.c_price_span with
          | Some p ->
            Lla_obs.Metrics.observe ctx.sc_meters.m_control_latency
              (now -. p.Lla_obs.Span.origin)
          | None -> ());
          c.c_fresh_price <- false
        end;
        c.c_prev_span <- Some sctx;
        Some sctx
      | None -> None
    in
    Array.iter (fun i -> announce_latency ?span t c i) info.subtask_indices
  end

(* Safe-mode entry: enact the guaranteed-feasible fallback, heal any
   poisoned price state, and restart the controllers' dual state so the
   re-entered optimization begins from a clean point. Runs with every
   shard at rest (an ordinary event on the legacy path, a barrier op on a
   domains engine), so the cross-shard reads and writes are safe. *)
let enter_safe_mode t sm ~reason =
  Log.warn (fun m ->
      m "safe mode entered at %.0f ms (%s): clamping to %s" (Engine.now t.engine_h)
        reason (Safe_mode.fallback_source sm));
  Lla_obs.emit_opt t.obs ~at:(Engine.now t.engine_h)
    (Lla_obs.Trace.Safe_mode_entered { reason; fallback = Safe_mode.fallback_source sm });
  Array.blit (Safe_mode.fallback sm) 0 t.lat 0 (Array.length t.lat);
  Array.iter
    (fun a ->
      a.price <-
        Lla.Price_update.heal_resource_price ~mu_cap:Safe_mode.mu_cap ~mu0:Lla.Solver.mu0 a.price;
      a.gamma <- Lla.Step_size.initial (resource_policy t.config.step_policy);
      (* Repair the agent's latency view in place: announcements from down
         controllers may never arrive. *)
      Array.iteri (fun slot i -> a.lat_view.(slot) <- t.lat.(i)) a.local_subtasks)
    t.agents;
  Array.iter (fun c -> reset_controller t c) t.controllers;
  (* Re-announce so the (unlikely) in-flight stale latency messages are
     superseded under last-write-wins. *)
  Array.iter
    (fun c ->
      Array.iter (fun i -> announce_latency t c i) t.problem.tasks.(c.task).subtask_indices)
    t.controllers

let watchdog_observe t sm =
  let now = Engine.now t.engine_h in
  let mu = Array.map (fun a -> a.price) t.agents in
  match Safe_mode.observe sm ~now ~mu ~lat:t.lat ~offsets:t.offsets with
  | Some (Safe_mode.Entered { reason }) -> enter_safe_mode t sm ~reason
  | Some Safe_mode.Exited ->
    Log.info (fun m -> m "safe mode exited at %.0f ms: prices settled, re-optimizing" now);
    Lla_obs.emit_opt t.obs ~at:now Lla_obs.Trace.Safe_mode_exited
  | None -> ()

let start t =
  if t.started then invalid_arg "Distributed.start: already started";
  t.started <- true;
  (* Initial announcements so agents have a latency view before pricing. *)
  Array.iter
    (fun (c : controller) ->
      Array.iter (fun i -> announce_latency t c i) t.problem.tasks.(c.task).subtask_indices)
    t.controllers;
  (* Periodic ticks: a down actor skips its round (its endpoint neither
     computes nor sends) but the schedule keeps running so it resumes
     after a restart. The current event id is kept so {!stop} can cancel
     the loops. Each actor's loop lives on its own shard core. *)
  let rec agent_loop a =
    t.agent_ticks.(a.resource) <-
      Some
        (Lla_sim.Engine.schedule_after a.a_ctx.sc_core ~delay:resource_period (fun _ ->
             if not t.stopped then begin
               if Transport.is_up a.a_ctx.sc_transport a.agent_endpoint then agent_tick t a;
               agent_loop a
             end))
  in
  Array.iter agent_loop t.agents;
  let rec controller_loop c =
    t.controller_ticks.(c.task) <-
      Some
        (Lla_sim.Engine.schedule_after c.c_ctx.sc_core ~delay:controller_period (fun _ ->
             if not t.stopped then begin
               if Transport.is_up c.c_ctx.sc_transport c.controller_endpoint then
                 controller_tick t c;
               controller_loop c
             end))
  in
  Array.iter controller_loop t.controllers;
  Array.iter (fun ctx -> Option.iter Health.start ctx.sc_health) t.ctxs;
  match t.safe_mode with
  | Some sm -> (
    match t.engine_h with
    | Engine.Domains _ ->
      (* The watchdog reads every shard's prices and rewrites the shared
         latency vector: on a domains engine it must run as a barrier op,
         with all shards at rest. *)
      let rec watchdog_loop at =
        Engine.at_barrier t.engine_h ~at (fun () ->
            if not t.stopped then begin
              watchdog_observe t sm;
              watchdog_loop (Engine.now t.engine_h +. watchdog_period)
            end)
      in
      watchdog_loop (Engine.now t.engine_h +. watchdog_period)
    | Engine.Sim _ ->
      let rec watchdog_loop () =
        t.watchdog_tick <-
          Some
            (Lla_sim.Engine.schedule_after t.engine ~delay:watchdog_period (fun _ ->
                 if not t.stopped then begin
                   watchdog_observe t sm;
                   watchdog_loop ()
                 end))
      in
      watchdog_loop ())
  | None -> ()

let stop t =
  if t.started && not t.stopped then begin
    t.stopped <- true;
    Array.iter
      (fun a ->
        Option.iter (Lla_sim.Engine.cancel a.a_ctx.sc_core) t.agent_ticks.(a.resource);
        t.agent_ticks.(a.resource) <- None)
      t.agents;
    Array.iter
      (fun c ->
        Option.iter (Lla_sim.Engine.cancel c.c_ctx.sc_core) t.controller_ticks.(c.task);
        t.controller_ticks.(c.task) <- None)
      t.controllers;
    Option.iter (Lla_sim.Engine.cancel t.engine) t.watchdog_tick;
    t.watchdog_tick <- None;
    Array.iter (fun ctx -> Option.iter Health.stop ctx.sc_health) t.ctxs
  end

let run t ~duration =
  if not t.started then start t;
  Engine.run_until t.engine_h (Engine.now t.engine_h +. duration)

let shard_count t = Array.length t.ctxs

let transport t = t.transport

let transports t = Array.map (fun ctx -> ctx.sc_transport) t.ctxs

let agent_endpoint t rid = t.agents.(Lla.Problem.resource_index t.problem rid).agent_endpoint

let controller_endpoint t tid =
  t.controllers.(Lla.Problem.task_index t.problem tid).controller_endpoint

let agent_home t rid =
  let a = t.agents.(Lla.Problem.resource_index t.problem rid) in
  (a.a_ctx.sc_transport, a.agent_endpoint)

let controller_home t tid =
  let c = t.controllers.(Lla.Problem.task_index t.problem tid) in
  (c.c_ctx.sc_transport, c.controller_endpoint)

let schedule_injection t ~at f = Engine.at_barrier t.engine_h ~at f

let set_faults_all t faults =
  Array.iter (fun ctx -> Transport.set_faults ctx.sc_transport faults) t.ctxs

let set_extra_jitter_all t spread =
  Array.iter (fun ctx -> Transport.set_extra_jitter ctx.sc_transport spread) t.ctxs

let partition t ~at ~duration ~agents ~controllers =
  let in_a = Array.make t.n_actors false in
  List.iter (fun i -> in_a.(i) <- true) agents;
  List.iter (fun k -> in_a.(t.n_resources + k) <- true) controllers;
  Array.iter
    (fun ctx ->
      (* Materialize every remote shadow first: an endpoint created after
         the cut would otherwise bypass it. *)
      for gid = 0 to t.n_actors - 1 do
        let hctx, hep = home t gid in
        if hctx != ctx && Option.is_none ctx.sc_shadows.(gid) then
          ctx.sc_shadows.(gid) <-
            Some (Transport.endpoint ctx.sc_transport ~name:(Transport.endpoint_name hep))
      done;
      let group_a = ref [] in
      Array.iter
        (fun a ->
          if a.a_ctx == ctx && in_a.(a.resource) then group_a := a.agent_endpoint :: !group_a)
        t.agents;
      Array.iter
        (fun c ->
          if c.c_ctx == ctx && in_a.(t.n_resources + c.task) then
            group_a := c.controller_endpoint :: !group_a)
        t.controllers;
      Array.iteri
        (fun gid ep ->
          match ep with Some ep when in_a.(gid) -> group_a := ep :: !group_a | _ -> ())
        ctx.sc_shadows;
      let ga = !group_a in
      let gb =
        List.filter (fun ep -> not (List.memq ep ga)) (Transport.endpoints ctx.sc_transport)
      in
      Transport.partition ctx.sc_transport ~at ~duration ~group_a:ga ~group_b:gb)
    t.ctxs

let merged_records t =
  Lla_obs.Trace.merge
    (Array.to_list
       (Array.map (fun ctx -> match ctx.sc_reader with Some r -> r () | None -> []) t.ctxs))

let latency t sid = t.lat.(Lla.Problem.subtask_index t.problem sid)

let mu t rid = t.agents.(Lla.Problem.resource_index t.problem rid).price

let utility t = Lla.Problem.total_utility t.problem ~lat:t.lat

let sum_meter t f =
  Array.fold_left (fun acc ctx -> acc + Lla_obs.Metrics.value (f ctx.sc_meters)) 0 t.ctxs

let messages_sent t = sum_meter t (fun m -> m.m_messages)

let price_rounds t = sum_meter t (fun m -> m.m_price_rounds)

let allocation_rounds t = sum_meter t (fun m -> m.m_allocation_rounds)

let merged_metrics t =
  Lla_obs.Metrics.merge (Array.to_list (Array.map (fun ctx -> ctx.sc_registry) t.ctxs))

let health t = t.ctxs.(0).sc_health

let checkpoint_store t = t.ctxs.(0).sc_checkpoint

let safe_entries t = match t.safe_mode with Some sm -> Safe_mode.entries sm | None -> 0

let safe_exits t = match t.safe_mode with Some sm -> Safe_mode.exits sm | None -> 0

let fallback_source t = Option.map Safe_mode.fallback_source t.safe_mode

let warm_restores t = sum_meter t (fun m -> m.m_warm_restores)

let cold_restarts t = sum_meter t (fun m -> m.m_cold_restarts)

(* --- whole-node crash drill ------------------------------------------ *)

let journal_enabled t = t.journal <> None

let crash_stats (t : t) =
  {
    crashes = t.crashes;
    replayed = t.crash_replayed;
    refused = t.crash_refused;
    truncated_bytes = t.crash_truncated_bytes;
    warm = t.crash_warm;
    cold = t.crash_cold;
    resurrected = t.crash_resurrected;
    idempotent = t.crash_idempotent;
  }

let crash_restart t =
  let now = Lla_sim.Engine.now t.engine in
  (* the disk crashes first: the store's unsynced tail is discarded
     (surviving torn at a random offset per the fault config) before
     anything reads it back *)
  (match t.journal with
  | Some j -> Lla_durable.Journal.Store.crash (Lla_durable.Journal.store j)
  | None -> ());
  Lla_obs.emit_opt t.obs ~at:now
    (Lla_obs.Trace.Note { name = "node.crash"; value = float_of_int (t.crashes + 1) });
  (* RAM is gone: every shard's in-memory checkpoint slots vanish *)
  Array.iter (fun ctx -> Option.iter Checkpoint.clear ctx.sc_checkpoint) t.ctxs;
  (* shard 0 replays the journal; a second replay over the same bytes
     must restore identical accepted/refused counts (slot records are
     last-write-wins), which the recovery oracle checks *)
  (match t.ctxs.(0).sc_checkpoint with
  | Some cp -> (
    match Checkpoint.recover cp ~now with
    | Some r ->
      t.crash_replayed <- t.crash_replayed + r.Lla_durable.Recovery.applied;
      t.crash_refused <- t.crash_refused + r.Lla_durable.Recovery.refused;
      t.crash_truncated_bytes <- t.crash_truncated_bytes + r.Lla_durable.Recovery.truncated_bytes;
      (match Checkpoint.recover cp ~now with
      | Some r2 ->
        if
          r2.Lla_durable.Recovery.applied <> r.Lla_durable.Recovery.applied
          || r2.Lla_durable.Recovery.refused <> r.Lla_durable.Recovery.refused
        then t.crash_idempotent <- false
      | None -> ())
    | None -> ())
  | None -> ());
  (* restart every actor in place (transport endpoints stay up — the
     process died, not the links); meter deltas attribute the warm/cold
     split to this crash *)
  let warm0 = warm_restores t and cold0 = cold_restarts t in
  Array.iter (fun a -> restart_agent t a) t.agents;
  Array.iter (fun c -> restart_controller t c) t.controllers;
  t.crash_warm <- t.crash_warm + (warm_restores t - warm0);
  t.crash_cold <- t.crash_cold + (cold_restarts t - cold0);
  (* resurrection check: the save path refuses non-finite snapshots, so
     nothing non-finite may come back from a recovery *)
  Array.iter
    (fun a ->
      if not (Float.is_finite a.price && Float.is_finite a.gamma) then
        t.crash_resurrected <- t.crash_resurrected + 1)
    t.agents;
  Array.iter
    (fun c ->
      if not (Array.for_all Float.is_finite c.mu_view && Array.for_all Float.is_finite c.gamma_p)
      then t.crash_resurrected <- t.crash_resurrected + 1)
    t.controllers;
  t.crashes <- t.crashes + 1

(* Chaos-injection hooks. These overwrite live state exactly as a corrupted
   message or a drifted plant model would, so the regular iteration (and the
   finite-value guards) process the poison on the next tick. On a domains
   engine call them with the shards at rest — from setup, between runs, or
   inside a {!schedule_injection} callback. *)

let poison_price t rid value =
  t.agents.(Lla.Problem.resource_index t.problem rid).price <- value

let set_error_offset t sid value =
  t.offsets.(Lla.Problem.subtask_index t.problem sid) <- value

let error_offset t sid = t.offsets.(Lla.Problem.subtask_index t.problem sid)
