module Transport = Lla_transport.Transport
module Delay_model = Lla_transport.Delay_model
module Distributed = Lla_runtime.Distributed

type drop_point = {
  drop : float;
  utility_gap_percent : float;
  delivered_percent : float;
  messages : int;
}

type jitter_point = {
  jitter : float;
  utility_gap_percent : float;
  p95_delay : float;
}

type partition_run = {
  series : (float * float) list;
  partition_at : float;
  heal_at : float;
  gap_before_percent : float;
  max_gap_after_percent : float;
  final_gap_percent : float;
  cut_messages : int;
  agent_outages : int;
}

type result = {
  seed : int;
  fault_free_utility : float;
  drop_points : drop_point list;
  jitter_points : jitter_point list;
  partition : partition_run;
}

let base_delay = 1.0

(* Build a fresh engine + transport + deployment for one scenario. *)
let deployment ~tconfig () =
  let workload = Lla_workloads.Paper_sim.base () in
  let engine = Lla_sim.Engine.create () in
  let transport = Transport.create ~config:tconfig engine in
  let distributed = Distributed.create ~transport engine workload in
  (workload, engine, transport, distributed)

let gap_percent ~reference utility = 100. *. Float.abs (utility -. reference) /. Float.abs reference

let fault_free ~horizon =
  let _, _, _, d = deployment ~tconfig:Transport.default_config () in
  Distributed.run d ~duration:horizon;
  Distributed.utility d

let drop_sweep ~seed ~horizon ~reference drops =
  List.map
    (fun drop ->
      let tconfig =
        { Transport.default_config with faults = { Transport.no_faults with drop }; seed }
      in
      let _, _, transport, d = deployment ~tconfig () in
      Distributed.run d ~duration:horizon;
      let c = Transport.totals transport in
      {
        drop;
        utility_gap_percent = gap_percent ~reference (Distributed.utility d);
        delivered_percent = (if c.sent = 0 then 0. else 100. *. float_of_int c.delivered /. float_of_int c.sent);
        messages = c.sent;
      })
    drops

let jitter_sweep ~seed ~horizon ~reference jitters =
  List.map
    (fun jitter ->
      let tconfig =
        {
          Transport.default_config with
          delay = Delay_model.jittered ~base:base_delay ~jitter;
          seed;
        }
      in
      let _, _, transport, d = deployment ~tconfig () in
      Distributed.run d ~duration:horizon;
      {
        jitter;
        utility_gap_percent = gap_percent ~reference (Distributed.utility d);
        p95_delay =
          Option.value (Transport.delay_percentile transport ~p:95.) ~default:base_delay;
      })
    jitters

(* Partition a group of price agents away from every controller mid-run;
   the group also crashes for the duration of the partition (losing price
   state), so the heal injects a genuine price shock that the deployment
   must absorb online. *)
let partition_heal ~seed ~horizon ~reference =
  let partition_at = horizon /. 3. in
  let heal_at = 2. *. horizon /. 3. in
  let tconfig = { Transport.default_config with seed } in
  let workload, _, transport, d = deployment ~tconfig () in
  let resource_ids =
    List.filteri (fun i _ -> i < 3) workload.Lla_model.Workload.resources
    |> List.map (fun (r : Lla_model.Resource.t) -> r.id)
  in
  let group_a = List.map (Distributed.agent_endpoint d) resource_ids in
  let group_b =
    List.map
      (fun (task : Lla_model.Task.t) -> Distributed.controller_endpoint d task.id)
      workload.Lla_model.Workload.tasks
  in
  Transport.partition transport ~at:partition_at ~duration:(heal_at -. partition_at) ~group_a
    ~group_b;
  List.iter
    (fun e -> Transport.schedule_outage transport e ~at:partition_at ~duration:(heal_at -. partition_at))
    group_a;
  let sample_every = 250. in
  let series = ref [] in
  let gap_before = ref nan in
  let max_gap_after = ref 0. in
  let elapsed = ref 0. in
  while !elapsed < horizon -. 1e-9 do
    Distributed.run d ~duration:sample_every;
    elapsed := !elapsed +. sample_every;
    let u = Distributed.utility d in
    series := (!elapsed, u) :: !series;
    let gap = gap_percent ~reference u in
    if !elapsed < partition_at then gap_before := gap
    else max_gap_after := Float.max !max_gap_after gap
  done;
  let c = Transport.totals transport in
  {
    series = List.rev !series;
    partition_at;
    heal_at;
    gap_before_percent = !gap_before;
    max_gap_after_percent = !max_gap_after;
    final_gap_percent = gap_percent ~reference (Distributed.utility d);
    cut_messages = c.cut;
    agent_outages = List.fold_left (fun acc e -> acc + Transport.outages transport e) 0 group_a;
  }

let run ?(seed = 42) ?(horizon = 120_000.) ?(drops = [ 0.; 0.05; 0.1; 0.2; 0.3 ])
    ?(jitters = [ 0.; 0.25; 0.5; 0.75; 1.0 ]) () =
  let fault_free_utility = fault_free ~horizon in
  {
    seed;
    fault_free_utility;
    drop_points = drop_sweep ~seed ~horizon ~reference:fault_free_utility drops;
    jitter_points = jitter_sweep ~seed ~horizon ~reference:fault_free_utility jitters;
    partition = partition_heal ~seed ~horizon ~reference:fault_free_utility;
  }

let report r =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Report.header "Chaos - distributed LLA under an unreliable control plane");
  Buffer.add_string buf
    (Printf.sprintf "seed %d; fault-free reference utility: %.2f\n\n" r.seed r.fault_free_utility);
  let drop_table =
    Lla_stdx.Table.create
      ~columns:
        [
          ("drop prob", Lla_stdx.Table.Right);
          ("utility gap", Lla_stdx.Table.Right);
          ("delivered", Lla_stdx.Table.Right);
          ("messages", Lla_stdx.Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Lla_stdx.Table.add_row drop_table
        [
          Printf.sprintf "%.0f%%" (100. *. p.drop);
          Printf.sprintf "%.2f%%" p.utility_gap_percent;
          Printf.sprintf "%.1f%%" p.delivered_percent;
          Lla_stdx.Table.cell_i p.messages;
        ])
    r.drop_points;
  Buffer.add_string buf "Message loss sweep (constant 1 ms delay):\n";
  Buffer.add_string buf (Lla_stdx.Table.render drop_table);
  let jitter_table =
    Lla_stdx.Table.create
      ~columns:
        [
          ("jitter", Lla_stdx.Table.Right);
          ("utility gap", Lla_stdx.Table.Right);
          ("p95 delay (ms)", Lla_stdx.Table.Right);
        ]
  in
  List.iter
    (fun p ->
      Lla_stdx.Table.add_row jitter_table
        [
          Printf.sprintf "+/-%.0f%%" (100. *. p.jitter);
          Printf.sprintf "%.2f%%" p.utility_gap_percent;
          Lla_stdx.Table.cell_f ~decimals:2 p.p95_delay;
        ])
    r.jitter_points;
  Buffer.add_string buf "\nDelay jitter sweep (uniform around 1 ms):\n";
  Buffer.add_string buf (Lla_stdx.Table.render jitter_table);
  let p = r.partition in
  Buffer.add_string buf
    (Printf.sprintf
       "\nPartition + heal (3 price agents cut off and crashed %.0f-%.0f s):\n\
        gap before partition %.2f%%, worst gap after %.2f%%, final gap %.2f%%\n\
        %d messages cut, %d agent outages\n"
       (p.partition_at /. 1000.) (p.heal_at /. 1000.) p.gap_before_percent
       p.max_gap_after_percent p.final_gap_percent p.cut_messages p.agent_outages);
  let series = Lla_stdx.Series.create () in
  List.iter (fun (x, y) -> Lla_stdx.Series.add series ~x ~y) p.series;
  Buffer.add_string buf
    (Report.series_block ~title:"aggregate utility across partition and heal"
       [ ("utility", series) ]);
  Buffer.add_string buf
    "LLA absorbs loss, jitter and partitions online: prices re-converge from the\n\
     next received messages, no restart or resynchronization required.\n";
  Buffer.contents buf
