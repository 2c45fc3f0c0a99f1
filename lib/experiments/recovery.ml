module Transport = Lla_transport.Transport
module Distributed = Lla_runtime.Distributed
module Health = Lla_runtime.Health
module Checkpoint = Lla_runtime.Checkpoint
module Safe_mode = Lla_runtime.Safe_mode

type mode_stats = {
  label : string;
  recovery_ms : float option;
  recovery_rounds : int option;
  max_gap_percent : float;
  warm_restores : int;
  cold_restarts : int;
  checkpoint_saves : int;
  checkpoint_restores : int;
}

type surge_stats = {
  surge_label : string;
  samples : int;
  feasible_percent : float;
  worst_share_ratio : float;
  worst_path_ratio : float;
  safe_entries : int;
  safe_exits : int;
  fallback : string option;
  utility_series : (float * float) list;
}

type detection = {
  timeout : float;
  detected_in : float option;
  cleared : bool;
  false_suspicions : int;
}

type result = {
  seed : int;
  crash_at : float;
  outage : float;
  reference_utility : float;
  cold : mode_stats;
  warm : mode_stats;
  unprotected : surge_stats;
  protected_ : surge_stats;
  detection : detection;
}

let no_resilience_but_counters =
  {
    Distributed.checkpoint_period = None;
    health = false;
    safe_mode = None;
  }

let all_endpoints workload d =
  List.map
    (fun (r : Lla_model.Resource.t) -> Distributed.agent_endpoint d r.id)
    workload.Lla_model.Workload.resources
  @ List.map
      (fun (task : Lla_model.Task.t) -> Distributed.controller_endpoint d task.id)
      workload.Lla_model.Workload.tasks

let gap_percent ~reference utility =
  100. *. Float.abs (utility -. reference) /. Float.max 1e-9 (Float.abs reference)

(* Crash the entire control plane and watch the post-heal price shock:
   with checkpoints, restarted actors resume from near-equilibrium prices;
   without, they re-price from mu0 and the utility excursion shows the
   cold-convergence transient. *)
let crash_recovery ~seed ~label ~checkpoint ~crash_at ~outage ~observe () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create ~config:{ Transport.default_config with seed } engine in
  let resilience =
    if checkpoint then
      { no_resilience_but_counters with Distributed.checkpoint_period = Some 100. }
    else no_resilience_but_counters
  in
  let d = Distributed.create ~resilience ~transport engine workload in
  Distributed.run d ~duration:crash_at;
  let reference = Distributed.utility d in
  let endpoints = all_endpoints workload d in
  let now = Lla_sim.Engine.now engine in
  List.iter (fun e -> Transport.schedule_outage transport e ~at:(now +. 1.) ~duration:outage) endpoints;
  Distributed.run d ~duration:(outage +. 1.);
  let rounds_at_heal = Distributed.price_rounds d in
  let sample_every = 10. in
  let last_violation_ms = ref None in
  let last_violation_rounds = ref None in
  let max_gap = ref 0. in
  let elapsed = ref 0. in
  while !elapsed < observe -. 1e-9 do
    Distributed.run d ~duration:sample_every;
    elapsed := !elapsed +. sample_every;
    let gap = gap_percent ~reference (Distributed.utility d) in
    max_gap := Float.max !max_gap gap;
    if gap >= 1. then begin
      last_violation_ms := Some !elapsed;
      last_violation_rounds := Some (Distributed.price_rounds d - rounds_at_heal)
    end
  done;
  let recovered = gap_percent ~reference (Distributed.utility d) < 1. in
  {
    label;
    recovery_ms =
      (if not recovered then None
       else match !last_violation_ms with None -> Some 0. | Some _ as s -> s);
    recovery_rounds =
      (if not recovered then None
       else match !last_violation_rounds with None -> Some 0 | Some _ as s -> s);
    max_gap_percent = !max_gap;
    warm_restores = Distributed.warm_restores d;
    cold_restarts = Distributed.cold_restarts d;
    checkpoint_saves =
      (match Distributed.checkpoint_store d with Some cp -> Checkpoint.saves cp | None -> 0);
    checkpoint_restores =
      (match Distributed.checkpoint_store d with Some cp -> Checkpoint.restores cp | None -> 0);
  }

(* Fixed gamma = 64 makes the price iteration oscillate so hard the
   enacted assignment is almost never feasible; the watchdog's job is to
   cap the damage. The 1.5x critical-time relaxation gives the slicing
   fallback room to be feasible (the base workload admits no feasible
   slice — see EXPERIMENTS.md). *)
let surge ~seed ~surge_label ~protected ~horizon () =
  let workload =
    Lla_workloads.Paper_sim.scaled ~copies:1 ~critical_time_factor:1.5 ()
  in
  let problem = Lla.Problem.compile workload in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create ~config:{ Transport.default_config with seed } engine in
  let config =
    { Distributed.default_config with step_policy = Lla.Step_size.fixed 64. }
  in
  let d =
    if protected then
      Distributed.create ~config
        ~resilience:
          { no_resilience_but_counters with Distributed.safe_mode = Some Safe_mode.default_config }
        ~transport engine workload
    else Distributed.create ~config ~transport engine workload
  in
  let n_sub = Lla.Problem.n_subtasks problem in
  let lat = Array.make n_sub 0. in
  let offsets = Array.make n_sub 0. in
  let refresh_lat () =
    for i = 0 to n_sub - 1 do
      lat.(i) <- Distributed.latency d problem.Lla.Problem.subtasks.(i).Lla.Problem.sid
    done
  in
  let tol = 1.001 in
  let sample_every = 50. in
  let samples = ref 0 in
  let feasible_samples = ref 0 in
  let worst_share = ref 0. in
  let worst_path = ref 0. in
  let series = ref [] in
  let elapsed = ref 0. in
  while !elapsed < horizon -. 1e-9 do
    Distributed.run d ~duration:sample_every;
    elapsed := !elapsed +. sample_every;
    refresh_lat ();
    incr samples;
    let feasible = ref true in
    for r = 0 to Lla.Problem.n_resources problem - 1 do
      let ratio =
        Lla.Problem.share_sum problem r ~lat ~offsets
        /. problem.Lla.Problem.capacities.(r)
      in
      worst_share := Float.max !worst_share ratio;
      if ratio > tol then feasible := false
    done;
    for p = 0 to Lla.Problem.n_paths problem - 1 do
      let ratio =
        Lla.Problem.path_latency problem p ~lat
        /. problem.Lla.Problem.paths.(p).Lla.Problem.critical_time
      in
      worst_path := Float.max !worst_path ratio;
      if ratio > tol then feasible := false
    done;
    if !feasible then incr feasible_samples;
    if Float.rem !elapsed 250. < sample_every -. 1e-9 then
      series := (!elapsed, Distributed.utility d) :: !series
  done;
  {
    surge_label;
    samples = !samples;
    feasible_percent = 100. *. float_of_int !feasible_samples /. float_of_int (max 1 !samples);
    worst_share_ratio = !worst_share;
    worst_path_ratio = !worst_path;
    safe_entries = Distributed.safe_entries d;
    safe_exits = Distributed.safe_exits d;
    fallback = Distributed.fallback_source d;
    utility_series = List.rev !series;
  }

let detect ~seed () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create ~config:{ Transport.default_config with seed } engine in
  let d =
    Distributed.create
      ~resilience:{ no_resilience_but_counters with Distributed.health = true }
      ~transport engine workload
  in
  let victim_id = (List.hd workload.Lla_model.Workload.resources).Lla_model.Resource.id in
  let victim = Distributed.agent_endpoint d victim_id in
  let crash_at = 2_000. and outage = 3_000. in
  Transport.schedule_outage transport victim ~at:crash_at ~duration:outage;
  let h = Option.get (Distributed.health d) in
  let suspected_at = ref None in
  let cleared = ref false in
  let false_suspicions = ref 0 in
  Health.on_transition h (fun e status ~now ->
      if e == victim then begin
        match status with
        | Health.Suspect -> if !suspected_at = None then suspected_at := Some now
        | Health.Alive -> cleared := true
      end
      else if status = Health.Suspect then incr false_suspicions);
  Distributed.run d ~duration:10_000.;
  {
    timeout = Health.timeout;
    detected_in = Option.map (fun at -> at -. crash_at) !suspected_at;
    cleared = !cleared;
    false_suspicions = !false_suspicions;
  }

let run ?(seed = 42) ?(horizon = 60_000.) () =
  let crash_at = horizon /. 2. in
  let outage = 500. in
  let observe = horizon /. 2. in
  let reference =
    let workload = Lla_workloads.Paper_sim.base () in
    let engine = Lla_sim.Engine.create () in
    let d = Distributed.create engine workload in
    Distributed.run d ~duration:crash_at;
    Distributed.utility d
  in
  {
    seed;
    crash_at;
    outage;
    reference_utility = reference;
    cold = crash_recovery ~seed ~label:"cold (no checkpoint)" ~checkpoint:false ~crash_at ~outage ~observe ();
    warm = crash_recovery ~seed ~label:"warm (100 ms checkpoints)" ~checkpoint:true ~crash_at ~outage ~observe ();
    unprotected = surge ~seed ~surge_label:"unprotected" ~protected:false ~horizon ();
    protected_ = surge ~seed ~surge_label:"safe-mode watchdog" ~protected:true ~horizon ();
    detection = detect ~seed ();
  }

let report r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Report.header "Recovery - crash, divergence and detection resilience");
  Buffer.add_string buf
    (Printf.sprintf
       "seed %d; whole control plane crashed at %.0f s for %.1f s; pre-crash utility %.2f\n\n"
       r.seed (r.crash_at /. 1000.) (r.outage /. 1000.) r.reference_utility);
  let mode_table =
    Lla_stdx.Table.create
      ~columns:
        [
          ("restart", Lla_stdx.Table.Left);
          ("recovery (ms)", Lla_stdx.Table.Right);
          ("recovery (price rounds)", Lla_stdx.Table.Right);
          ("worst gap", Lla_stdx.Table.Right);
          ("warm", Lla_stdx.Table.Right);
          ("cold", Lla_stdx.Table.Right);
          ("ckpt saves", Lla_stdx.Table.Right);
          ("ckpt restores", Lla_stdx.Table.Right);
        ]
  in
  let mode_row (m : mode_stats) =
    Lla_stdx.Table.add_row mode_table
      [
        m.label;
        (match m.recovery_ms with None -> "never" | Some v -> Printf.sprintf "%.0f" v);
        (match m.recovery_rounds with None -> "-" | Some v -> string_of_int v);
        Printf.sprintf "%.2f%%" m.max_gap_percent;
        Lla_stdx.Table.cell_i m.warm_restores;
        Lla_stdx.Table.cell_i m.cold_restarts;
        Lla_stdx.Table.cell_i m.checkpoint_saves;
        Lla_stdx.Table.cell_i m.checkpoint_restores;
      ]
  in
  mode_row r.cold;
  mode_row r.warm;
  Buffer.add_string buf "Warm vs cold restart after a full control-plane outage:\n";
  Buffer.add_string buf (Lla_stdx.Table.render mode_table);
  let surge_table =
    Lla_stdx.Table.create
      ~columns:
        [
          ("run", Lla_stdx.Table.Left);
          ("feasible samples", Lla_stdx.Table.Right);
          ("worst share/B_r", Lla_stdx.Table.Right);
          ("worst path/C", Lla_stdx.Table.Right);
          ("safe entries", Lla_stdx.Table.Right);
          ("safe exits", Lla_stdx.Table.Right);
        ]
  in
  let surge_row (s : surge_stats) =
    Lla_stdx.Table.add_row surge_table
      [
        s.surge_label;
        Printf.sprintf "%.1f%%" s.feasible_percent;
        Lla_stdx.Table.cell_f ~decimals:2 s.worst_share_ratio;
        Lla_stdx.Table.cell_f ~decimals:2 s.worst_path_ratio;
        Lla_stdx.Table.cell_i s.safe_entries;
        Lla_stdx.Table.cell_i s.safe_exits;
      ]
  in
  surge_row r.unprotected;
  surge_row r.protected_;
  Buffer.add_string buf
    "\nForced divergence (fixed gamma = 64, relaxed deadlines), with and without safe mode:\n";
  Buffer.add_string buf (Lla_stdx.Table.render surge_table);
  (match r.protected_.fallback with
  | Some f -> Buffer.add_string buf (Printf.sprintf "safe-mode fallback: %s\n" f)
  | None -> ());
  let series = Lla_stdx.Series.create () in
  List.iter (fun (x, y) -> Lla_stdx.Series.add series ~x ~y) r.protected_.utility_series;
  Buffer.add_string buf
    (Report.series_block ~title:"utility under safe-mode clamping (protected run)"
       [ ("utility", series) ]);
  let d = r.detection in
  Buffer.add_string buf
    (Printf.sprintf
       "\nFailure detection (250 ms timeout, one agent down 2-5 s):\n\
        crash detected in %s (timeout %.0f ms); suspicion cleared after restart: %b;\n\
        false suspicions of healthy endpoints: %d\n"
       (match d.detected_in with None -> "never" | Some v -> Printf.sprintf "%.0f ms" v)
       d.timeout d.cleared d.false_suspicions);
  Buffer.add_string buf
    "Checkpoints turn a restart into a near-seamless resume; the watchdog trades\n\
     optimality for feasibility while prices are untrustworthy, and hands back\n\
     control once they settle.\n";
  Buffer.contents buf
