module Engine = Lla_runtime.Engine
module Transport = Lla_transport.Transport
module Distributed = Lla_runtime.Distributed
module Rng = Lla_stdx.Rng
module Journal = Lla_durable.Journal

type engine = [ `Sim | `Domains of int ]

type execution = {
  schedule : Schedule.t;
  outcome : Oracle.outcome;
  verdicts : Oracle.verdict list;
}

let workload_of_name name =
  match name with
  | "base" -> Ok (Lla_workloads.Paper_sim.base ())
  | "six" -> Ok (Lla_workloads.Paper_sim.scaled ~copies:2 ())
  | "prototype" -> Ok (Lla_workloads.Prototype.workload ())
  | _ -> (
      match String.index_opt name ':' with
      | Some i when String.sub name 0 i = "random" -> (
          let rest = String.sub name (i + 1) (String.length name - i - 1) in
          match int_of_string_opt rest with
          | Some seed -> Ok (Lla_workloads.Random_gen.generate ~seed ())
          | None -> Error (Printf.sprintf "workload %S: bad random seed" name))
      | _ -> Error (Printf.sprintf "unknown workload %S" name))

(* The offline optimum is a pure function of the workload name; solving it
   takes longer than a whole schedule run, so campaigns share one solve. *)
let optimum_cache : (string, float) Hashtbl.t = Hashtbl.create 4

let optimum_utility name workload =
  match Hashtbl.find_opt optimum_cache name with
  | Some u -> u
  | None ->
      let u = (Lla_baseline.Centralized.solve workload).utility in
      Hashtbl.add optimum_cache name u;
      u

let resilience_of_setup (s : Schedule.setup) =
  if not (s.safe_mode || s.checkpoints || s.health) then None
  else
    let d = Distributed.default_resilience in
    Some
      {
        Distributed.checkpoint_period = (if s.checkpoints then d.Distributed.checkpoint_period else None);
        health = s.health && d.Distributed.health;
        safe_mode = (if s.safe_mode then d.Distributed.safe_mode else None);
      }

let step_policy_of_setup (s : Schedule.setup) =
  (* components of a Schedule.Split are leaves by Schedule.make, and the
     adaptive default is itself non-Split, so Step_size.split's
     no-nesting rule holds *)
  let rec policy = function
    | Schedule.Adaptive -> Distributed.default_config.Distributed.step_policy
    | Schedule.Fixed_gamma g -> Lla.Step_size.fixed g
    | Schedule.Split { resource; path } ->
        Lla.Step_size.split ~resource:(policy resource) ~path:(policy path)
  in
  policy s.step

let ( let* ) = Result.bind

(* A schedule exercising the durability axis gets a write-ahead journal
   on a seeded faulty store (the storage-fault windows need a store to
   inject into, and a node crash needs something to recover from).
   Journal-free schedules get no journal at all, so every pre-durability
   schedule replays byte-identically. *)
let uses_durability (sched : Schedule.t) =
  List.exists
    (function Schedule.Node_crash _ | Schedule.Storage_faults _ -> true | _ -> false)
    sched.Schedule.events

let journal_of_schedule ~obs (sched : Schedule.t) =
  if uses_durability sched && sched.Schedule.setup.Schedule.checkpoints then
    Some (Journal.create ~obs (Journal.Store.faulty ~seed:sched.Schedule.setup.Schedule.transport_seed ()))
  else None

let validate_indices (problem : Lla.Problem.t) (sched : Schedule.t) =
  let n_res = Lla.Problem.n_resources problem in
  let n_tasks = Lla.Problem.n_tasks problem in
  let n_sub = Lla.Problem.n_subtasks problem in
  let check what i bound =
    if i >= bound then Error (Printf.sprintf "%s index %d out of range (workload has %d)" what i bound)
    else Ok ()
  in
  let rec go = function
    | [] -> Ok ()
    | e :: rest ->
        let* () =
          match e with
          | Schedule.Partition { agents; controllers; _ } ->
              let rec all what bound = function
                | [] -> Ok ()
                | i :: is ->
                    let* () = check what i bound in
                    all what bound is
              in
              let* () = all "agent" n_res agents in
              all "controller" n_tasks controllers
          | Schedule.Outage { target = Schedule.Agent i; _ } -> check "agent" i n_res
          | Schedule.Outage { target = Schedule.Controller i; _ } -> check "controller" i n_tasks
          | Schedule.Price_poison { resource; _ } -> check "resource" resource n_res
          | Schedule.Error_spike { subtask; _ } -> check "subtask" subtask n_sub
          | Schedule.Faults _ | Schedule.Jitter _ | Schedule.Node_crash _
          | Schedule.Storage_faults _ ->
              Ok ()
        in
        go rest
  in
  go sched.Schedule.events

(* Fault and jitter windows may overlap; rather than trying to unwind
   them in closing order we precompute every window boundary and, at each
   one, set every shard transport to the element-wise max of all windows
   active at that instant (plus the transport's configured base faults).
   Each write runs as an injection, so on a domains engine it lands with
   every shard at rest. *)
let schedule_windows dist (events : Schedule.event list) =
  let fault_windows =
    List.filter_map
      (function
        | Schedule.Faults { at; duration; faults } -> Some (at, at +. duration, faults) | _ -> None)
      events
  in
  let jitter_windows =
    List.filter_map
      (function
        | Schedule.Jitter { at; duration; spread } -> Some (at, at +. duration, spread) | _ -> None)
      events
  in
  let base = Transport.active_faults (Distributed.transport dist) in
  let faults_at t0 =
    List.fold_left
      (fun (acc : Transport.faults) (s, e, f) ->
        if s <= t0 && t0 < e then
          {
            Transport.drop = Float.max acc.Transport.drop f.Transport.drop;
            duplicate = Float.max acc.Transport.duplicate f.Transport.duplicate;
            reorder = Float.max acc.Transport.reorder f.Transport.reorder;
            reorder_spread = Float.max acc.Transport.reorder_spread f.Transport.reorder_spread;
          }
        else acc)
      base fault_windows
  in
  let jitter_at t0 =
    List.fold_left (fun acc (s, e, sp) -> if s <= t0 && t0 < e then Float.max acc sp else acc) 0.
      jitter_windows
  in
  let boundaries windows =
    List.sort_uniq Float.compare (List.concat_map (fun (s, e, _) -> [ s; e ]) windows)
  in
  List.iter
    (fun b ->
      Distributed.schedule_injection dist ~at:b (fun () ->
          Distributed.set_faults_all dist (faults_at b)))
    (boundaries fault_windows);
  List.iter
    (fun b ->
      Distributed.schedule_injection dist ~at:b (fun () ->
          Distributed.set_extra_jitter_all dist (jitter_at b)))
    (boundaries jitter_windows)

(* Judge a drained run: final latencies/offsets, Eq. 3/4 excesses, and
   the oracle verdicts. A multi-shard run's records are the merge of the
   per-shard streams, judged with the order-calibrated oracles. *)
let judge ~sched ~workload ~problem h dist =
  let subtask_id i = problem.Lla.Problem.subtasks.(i).Lla.Problem.sid in
  let n_sub = Lla.Problem.n_subtasks problem in
  let lat = Array.init n_sub (fun i -> Distributed.latency dist (subtask_id i)) in
  let offsets = Array.init n_sub (fun i -> Distributed.error_offset dist (subtask_id i)) in
  let relative_excess value bound =
    let e = (value -. bound) /. bound in
    if Float.is_finite e then Float.max 0. e else infinity
  in
  let max_share_violation = ref 0. in
  for r = 0 to Lla.Problem.n_resources problem - 1 do
    let sum = Lla.Problem.share_sum problem r ~lat ~offsets in
    max_share_violation :=
      Float.max !max_share_violation (relative_excess sum problem.Lla.Problem.capacities.(r))
  done;
  let max_path_violation = ref 0. in
  for p = 0 to Lla.Problem.n_paths problem - 1 do
    let l = Lla.Problem.path_latency problem p ~lat in
    max_path_violation :=
      Float.max !max_path_violation
        (relative_excess l problem.Lla.Problem.paths.(p).Lla.Problem.critical_time)
  done;
  let outages =
    Array.fold_left
      (fun acc tr ->
        List.fold_left (fun acc ep -> acc + Transport.outages tr ep) acc (Transport.endpoints tr))
      0 (Distributed.transports dist)
  in
  let setup = sched.Schedule.setup in
  let cs = Distributed.crash_stats dist in
  let outcome =
    {
      Oracle.records = Distributed.merged_records dist;
      last_fault_end = Schedule.last_fault_end sched;
      end_time = Engine.now h;
      final_utility = Distributed.utility dist;
      optimum_utility = optimum_utility sched.Schedule.workload workload;
      in_safe_mode = Distributed.in_safe_mode dist;
      safe_entries = Distributed.safe_entries dist;
      warm_restores = Distributed.warm_restores dist;
      cold_restarts = Distributed.cold_restarts dist;
      outages;
      crash_restores = cs.Distributed.warm + cs.Distributed.cold;
      checkpoints_enabled = setup.Schedule.checkpoints;
      max_share_violation = !max_share_violation;
      max_path_violation = !max_path_violation;
      recovery =
        Some
          {
            Oracle.crashes = cs.Distributed.crashes;
            replayed = cs.Distributed.replayed;
            refused = cs.Distributed.refused;
            crash_warm = cs.Distributed.warm;
            crash_cold = cs.Distributed.cold;
            resurrected = cs.Distributed.resurrected;
            idempotent = cs.Distributed.idempotent;
            journal_enabled = Distributed.journal_enabled dist;
          };
    }
  in
  {
    schedule = sched;
    outcome;
    verdicts = Oracle.evaluate ~merged:(Engine.shards h > 1) outcome;
  }

(* One deployment body for both engines: [Distributed.create_on] homes
   every actor on a shard transport (the single one on the sim engine),
   and every event goes through the engine-generic hooks — injections
   run with every shard at rest, partitions cut real and shadow
   endpoints alike, outages hit the target's home transport. *)
let run_schedule ?(engine = (`Sim : engine)) (sched : Schedule.t) =
  let* workload = workload_of_name sched.Schedule.workload in
  let problem = Lla.Problem.compile workload in
  let* () = validate_indices problem sched in
  let h = match engine with `Sim -> Engine.sim () | `Domains domains -> Engine.domains ~domains () in
  (* Worker domains are a bounded OS resource: release them on every path. *)
  Fun.protect ~finally:(fun () -> Engine.shutdown h) @@ fun () ->
  let setup = sched.Schedule.setup in
  let obs = Lla_obs.create () in
  let transport_config =
    { Transport.default_config with Transport.seed = setup.Schedule.transport_seed }
  in
  let config =
    { Distributed.default_config with Distributed.step_policy = step_policy_of_setup setup }
  in
  let journal = journal_of_schedule ~obs sched in
  let resilience = resilience_of_setup setup in
  let dist = Distributed.create_on ~obs ~config ?resilience ?journal ~transport_config h workload in
  schedule_windows dist sched.Schedule.events;
  List.iter
    (fun e ->
      match e with
      | Schedule.Faults _ | Schedule.Jitter _ -> ()
      | Schedule.Partition { at; duration; agents; controllers } ->
          Distributed.partition dist ~at ~duration ~agents ~controllers
      | Schedule.Outage { at; duration; target } ->
          let tr, ep =
            match target with
            | Schedule.Agent i -> Distributed.agent_home dist problem.Lla.Problem.resource_ids.(i)
            | Schedule.Controller i ->
                Distributed.controller_home dist problem.Lla.Problem.tasks.(i).Lla.Problem.tid
          in
          Transport.schedule_outage tr ep ~at ~duration
      | Schedule.Price_poison { at; resource; value } ->
          let rid = problem.Lla.Problem.resource_ids.(resource) in
          Distributed.schedule_injection dist ~at (fun () -> Distributed.poison_price dist rid value)
      | Schedule.Error_spike { at; duration; subtask; magnitude } ->
          let sid = problem.Lla.Problem.subtasks.(subtask).Lla.Problem.sid in
          Distributed.schedule_injection dist ~at (fun () ->
              Distributed.set_error_offset dist sid magnitude);
          Distributed.schedule_injection dist ~at:(at +. duration) (fun () ->
              Distributed.set_error_offset dist sid 0.)
      | Schedule.Node_crash { at } ->
          Distributed.schedule_injection dist ~at (fun () -> Distributed.crash_restart dist)
      | Schedule.Storage_faults { at; duration; storage } -> (
          match journal with
          | None -> ()
          | Some j ->
              let store = Journal.store j in
              Distributed.schedule_injection dist ~at (fun () ->
                  Journal.Store.set_faults store storage);
              Distributed.schedule_injection dist ~at:(at +. duration) (fun () ->
                  Journal.Store.set_faults store Journal.Store.no_faults)))
    sched.Schedule.events;
  Distributed.run dist ~duration:(Schedule.duration sched);
  Distributed.stop dist;
  (* Drain: deliver in-flight messages and fire any fault events scheduled
     past the horizon (outage restarts, window closings) so the run ends
     in a quiescent, fully healed state. *)
  Engine.drain h;
  Ok (judge ~sched ~workload ~problem h dist)

(* ---------- generator ---------- *)

let gen_horizon = 16_000.

let gen_settle = 20_000.

let counts_cache : (string, int * int * int) Hashtbl.t = Hashtbl.create 4

let counts name =
  match Hashtbl.find_opt counts_cache name with
  | Some c -> c
  | None ->
      let workload = Result.get_ok (workload_of_name name) in
      let p = Lla.Problem.compile workload in
      let c = (Lla.Problem.n_resources p, Lla.Problem.n_tasks p, Lla.Problem.n_subtasks p) in
      Hashtbl.add counts_cache name c;
      c

let poison_values = [| Float.nan; Float.infinity; 1e9; 1e4; 0.; -10. |]

let distinct_indices rng ~n ~bound =
  let all = Array.init bound Fun.id in
  Rng.shuffle rng all;
  Array.to_list (Array.sub all 0 (min n bound))

let generate ?(fragile = false) ~seed () =
  let workload = "base" in
  let n_res, n_tasks, n_sub = counts workload in
  let rng = Rng.create ~seed in
  let window rng =
    let at = Rng.uniform rng ~lo:1_000. ~hi:(0.55 *. gen_horizon) in
    let duration = Rng.uniform rng ~lo:400. ~hi:(Float.min 4_000. ((0.85 *. gen_horizon) -. at)) in
    (at, duration)
  in
  let n_events = 1 + Rng.int rng ~bound:4 in
  let events =
    List.init n_events (fun _ ->
        match Rng.int rng ~bound:8 with
        | 0 ->
            let at, duration = window rng in
            Schedule.Faults
              {
                at;
                duration;
                faults =
                  {
                    Transport.drop = Rng.uniform rng ~lo:0. ~hi:0.3;
                    duplicate = Rng.uniform rng ~lo:0. ~hi:0.15;
                    reorder = Rng.uniform rng ~lo:0. ~hi:0.3;
                    reorder_spread = Rng.uniform rng ~lo:2. ~hi:20.;
                  };
              }
        | 1 ->
            let at, duration = window rng in
            Schedule.Jitter { at; duration; spread = Rng.uniform rng ~lo:0.5 ~hi:12. }
        | 2 ->
            let at, duration = window rng in
            let agents = distinct_indices rng ~n:(1 + Rng.int rng ~bound:3) ~bound:n_res in
            let controllers = distinct_indices rng ~n:(Rng.int rng ~bound:2) ~bound:n_tasks in
            Schedule.Partition { at; duration; agents; controllers }
        | 3 ->
            let at, _ = window rng in
            let duration = Rng.uniform rng ~lo:300. ~hi:2_500. in
            let target =
              if Rng.bool rng then Schedule.Agent (Rng.int rng ~bound:n_res)
              else Schedule.Controller (Rng.int rng ~bound:n_tasks)
            in
            Schedule.Outage { at; duration; target }
        | 4 ->
            let at, _ = window rng in
            Schedule.Price_poison
              { at; resource = Rng.int rng ~bound:n_res; value = Rng.pick rng poison_values }
        | 5 ->
            let at, _ = window rng in
            let duration = Rng.uniform rng ~lo:400. ~hi:3_000. in
            Schedule.Error_spike
              {
                at;
                duration;
                subtask = Rng.int rng ~bound:n_sub;
                magnitude = Rng.uniform rng ~lo:0.5 ~hi:6.;
              }
        | 6 ->
            let at, _ = window rng in
            Schedule.Node_crash { at }
        | _ ->
            (* short_read stays off here: a short read during recovery
               can legitimately truncate past durable bytes, which makes
               double-replay comparison meaningless; the unit battery
               exercises it instead *)
            let at, duration = window rng in
            Schedule.Storage_faults
              {
                at;
                duration;
                storage =
                  {
                    Journal.Store.torn_write = Rng.uniform rng ~lo:0. ~hi:1.;
                    bit_flip = Rng.uniform rng ~lo:0. ~hi:0.08;
                    drop_sync = Rng.uniform rng ~lo:0. ~hi:0.4;
                    short_read = 0.;
                    fail_write = Rng.uniform rng ~lo:0. ~hi:0.05;
                  };
              })
  in
  let setup =
    if fragile then Schedule.fragile_setup (Rng.uniform rng ~lo:24. ~hi:72.) seed
    else { Schedule.robust_setup with Schedule.transport_seed = seed }
  in
  Schedule.make ~setup ~workload ~horizon:gen_horizon ~settle:gen_settle events

(* ---------- shrinker ---------- *)

let failing_oracles verdicts = List.map (fun v -> v.Oracle.oracle) (Oracle.failures verdicts)

let reproduces ?engine ~failing sched =
  match run_schedule ?engine sched with
  | Error _ -> false
  | Ok exec -> List.exists (fun o -> List.mem o failing) (failing_oracles exec.verdicts)

(* Candidate simplifications of a single event, roughly most-aggressive
   first. Dropping the event entirely is ddmin's job, not ours. *)
let simplify_event (e : Schedule.event) =
  let halved v = v /. 2. in
  match e with
  | Schedule.Faults { at; duration; faults } ->
      let with_f f = Schedule.Faults { at; duration; faults = f } in
      List.concat
        [
          (if duration > 500. then [ Schedule.Faults { at; duration = halved duration; faults } ] else []);
          (if faults.Transport.duplicate > 0. then [ with_f { faults with Transport.duplicate = 0. } ]
           else []);
          (if faults.Transport.reorder > 0. then
             [ with_f { faults with Transport.reorder = 0.; reorder_spread = 0. } ]
           else []);
          (if faults.Transport.drop > 0.02 then
             [ with_f { faults with Transport.drop = halved faults.Transport.drop } ]
           else []);
        ]
  | Schedule.Jitter { at; duration; spread } ->
      List.concat
        [
          (if duration > 500. then [ Schedule.Jitter { at; duration = halved duration; spread } ] else []);
          (if spread > 0.5 then [ Schedule.Jitter { at; duration; spread = halved spread } ] else []);
        ]
  | Schedule.Partition { at; duration; agents; controllers } ->
      let drop_one = function [] | [ _ ] -> [] | _ :: rest -> [ rest ] in
      List.concat
        [
          (if duration > 500. then
             [ Schedule.Partition { at; duration = halved duration; agents; controllers } ]
           else []);
          (if controllers <> [] && agents <> [] then
             [ Schedule.Partition { at; duration; agents; controllers = [] } ]
           else []);
          List.map
            (fun agents -> Schedule.Partition { at; duration; agents; controllers })
            (drop_one agents);
        ]
  | Schedule.Outage { at; duration; target } ->
      if duration > 300. then [ Schedule.Outage { at; duration = halved duration; target } ] else []
  | Schedule.Price_poison { at; resource; value } ->
      if Float.is_finite value then [] else [ Schedule.Price_poison { at; resource; value = 1e9 } ]
  | Schedule.Error_spike { at; duration; subtask; magnitude } ->
      List.concat
        [
          (if magnitude > 0.5 then
             [ Schedule.Error_spike { at; duration; subtask; magnitude = halved magnitude } ]
           else []);
          (if duration > 400. then
             [ Schedule.Error_spike { at; duration = halved duration; subtask; magnitude } ]
           else []);
        ]
  | Schedule.Node_crash _ -> []
  | Schedule.Storage_faults { at; duration; storage } ->
      let with_s s = Schedule.Storage_faults { at; duration; storage = s } in
      List.concat
        [
          (if duration > 500. then
             [ Schedule.Storage_faults { at; duration = halved duration; storage } ]
           else []);
          (if storage.Journal.Store.bit_flip > 0. then
             [ with_s { storage with Journal.Store.bit_flip = 0. } ]
           else []);
          (if storage.Journal.Store.fail_write > 0. then
             [ with_s { storage with Journal.Store.fail_write = 0. } ]
           else []);
          (if storage.Journal.Store.drop_sync > 0.02 then
             [ with_s { storage with Journal.Store.drop_sync = halved storage.Journal.Store.drop_sync } ]
           else []);
          (if storage.Journal.Store.torn_write > 0.02 then
             [ with_s { storage with Journal.Store.torn_write = halved storage.Journal.Store.torn_write } ]
           else []);
        ]

let shrink ?engine ?(max_attempts = 120) ~failing (sched : Schedule.t) =
  let attempts = ref 0 in
  let test events =
    if !attempts >= max_attempts then false
    else begin
      incr attempts;
      reproduces ?engine ~failing { sched with Schedule.events }
    end
  in
  (* ddmin over the event list. *)
  let split_chunks events n =
    let len = List.length events in
    let arr = Array.of_list events in
    let base = len / n and extra = len mod n in
    let chunks = ref [] in
    let pos = ref 0 in
    for i = 0 to n - 1 do
      let size = base + if i < extra then 1 else 0 in
      if size > 0 then chunks := Array.to_list (Array.sub arr !pos size) :: !chunks;
      pos := !pos + size
    done;
    List.rev !chunks
  in
  let rec ddmin events n =
    let len = List.length events in
    if len <= 1 then events
    else
      let n = min n len in
      let chunks = split_chunks events n in
      match List.find_opt test chunks with
      | Some chunk -> ddmin chunk 2
      | None -> (
          let complements =
            if n <= 2 then [] (* complements duplicate the chunks at n = 2 *)
            else List.mapi (fun i _ -> List.concat (List.filteri (fun j _ -> j <> i) chunks)) chunks
          in
          match List.find_opt test complements with
          | Some complement -> ddmin complement (max (n - 1) 2)
          | None -> if n < len then ddmin events (min len (2 * n)) else events)
  in
  let events = ddmin sched.Schedule.events 2 in
  (* Per-event value shrinking to a fixpoint (or until the budget runs out). *)
  let current = ref events in
  let progress = ref true in
  while !progress && !attempts < max_attempts do
    progress := false;
    let arr = Array.of_list !current in
    Array.iteri
      (fun i e ->
        if not !progress then
          match
            List.find_opt
              (fun candidate ->
                let arr' = Array.copy arr in
                arr'.(i) <- candidate;
                test (Array.to_list arr'))
              (simplify_event e)
          with
          | Some candidate ->
              let arr' = Array.copy arr in
              arr'.(i) <- candidate;
              current := Array.to_list arr';
              progress := true
          | None -> ())
      arr
  done;
  let shrunk = { sched with Schedule.events = !current } in
  (* [make] re-sorts and re-validates; shrinking never invalidates, but
     keep the artifact canonical. *)
  Schedule.make ~setup:shrunk.Schedule.setup ~workload:shrunk.Schedule.workload
    ~horizon:shrunk.Schedule.horizon ~settle:shrunk.Schedule.settle shrunk.Schedule.events

(* ---------- campaign loop ---------- *)

type failure = {
  run_index : int;
  run_seed : int;
  oracles : string list;
  schedule : Schedule.t;
  shrunk : Schedule.t;
  repro_path : string option;
  shrunk_path : string option;
}

type summary = {
  runs : int;
  base_seed : int;
  fragile : bool;
  failures : failure list;
  report : string;
}

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

let run ?engine ?(fragile = false) ?shrink_attempts ?out ~runs ~seed () =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  let failures = ref [] in
  for i = 0 to runs - 1 do
    let run_seed = seed + i in
    let sched = generate ~fragile ~seed:run_seed () in
    let roundtrip_ok =
      match Schedule.of_string (Schedule.to_string sched) with
      | Ok back -> Schedule.equal back sched
      | Error _ -> false
    in
    let n_events = List.length sched.Schedule.events in
    if not roundtrip_ok then begin
      line "run %02d seed %d: FAIL [codec-roundtrip] (events=%d)" i run_seed n_events;
      failures :=
        {
          run_index = i;
          run_seed;
          oracles = [ "codec-roundtrip" ];
          schedule = sched;
          shrunk = sched;
          repro_path = None;
          shrunk_path = None;
        }
        :: !failures
    end
    else
      match run_schedule ?engine sched with
      | Error msg -> line "run %02d seed %d: ERROR %s" i run_seed msg
      | Ok exec -> (
          match failing_oracles exec.verdicts with
          | [] -> line "run %02d seed %d: ok (events=%d)" i run_seed n_events
          | failing ->
              line "run %02d seed %d: FAIL [%s] (events=%d)" i run_seed (String.concat "," failing)
                n_events;
              let shrunk = shrink ?engine ?max_attempts:shrink_attempts ~failing sched in
              let repro_path, shrunk_path =
                match out with
                | None -> (None, None)
                | Some dir ->
                    ensure_dir dir;
                    let repro = Filename.concat dir (Printf.sprintf "repro-%d.json" run_seed) in
                    let min_repro =
                      Filename.concat dir (Printf.sprintf "repro-%d.min.json" run_seed)
                    in
                    Schedule.save sched ~path:repro;
                    Schedule.save shrunk ~path:min_repro;
                    (Some repro, Some min_repro)
              in
              failures :=
                { run_index = i; run_seed; oracles = failing; schedule = sched; shrunk; repro_path; shrunk_path }
                :: !failures)
  done;
  let failures = List.rev !failures in
  line "campaign: %d/%d runs passed (seed %d%s)" (runs - List.length failures) runs seed
    (if fragile then ", fragile setup" else "");
  { runs; base_seed = seed; fragile; failures; report = Buffer.contents buf }

let replay ?engine ~path () =
  let* sched = Schedule.load ~path in
  run_schedule ?engine sched
