(* The runtime's engine handle: one closed dispatch over the simulator
   core and the domains engine, so runtime layers thread a single value
   and branch on capability (shard count, barrier ops) rather than on
   concrete engines. The variants stay exposed (not an abstract record
   of closures) deliberately: the domains engine's extra surface —
   [post], [at_barrier], shard cores — is capability, not leakage, and
   [Distributed] needs static knowledge of which mode it wires. *)

type t =
  | Sim of Lla_sim.Engine.t
  | Domains of Engine_domains.t

let sim () = Sim (Lla_sim.Engine.create ())

let domains ~domains () = Domains (Engine_domains.create ~domains)

let shards = function Sim _ -> 1 | Domains d -> Engine_domains.shards d

let core t ~shard =
  match t with
  | Sim c ->
    if shard <> 0 then invalid_arg "Engine.core: sim engine has one shard";
    c
  | Domains d -> Engine_domains.core d shard

let now = function
  | Sim c -> Lla_sim.Engine.now c
  | Domains d -> Engine_domains.now d

let run_until t horizon =
  match t with
  | Sim c -> Lla_sim.Engine.run_until c horizon
  | Domains d -> Engine_domains.run_until d horizon

let drain = function
  | Sim c -> Lla_sim.Engine.run c ()
  | Domains d -> Engine_domains.drain d

let pending = function
  | Sim c -> Lla_sim.Engine.pending c
  | Domains d -> Engine_domains.pending d

let events_fired = function
  | Sim c -> Lla_sim.Engine.events_fired c
  | Domains d -> Engine_domains.events_fired d

(* On the sim core a post or a barrier op is an ordinary event at
   [max at now]. *)
let schedule_clamped c ~at f =
  ignore (Lla_sim.Engine.schedule c ~at:(Float.max at (Lla_sim.Engine.now c)) (fun _ -> f ()))

let post t ~from ~shard ~at ~channel apply =
  match t with
  | Domains d -> Engine_domains.post d ~from ~shard ~at ~channel apply
  | Sim c ->
    if from <> 0 || shard <> 0 then invalid_arg "Engine.post: single-shard engine";
    schedule_clamped c ~at apply

let at_barrier t ~at f =
  match t with
  | Domains d -> Engine_domains.at_barrier d ~at f
  | Sim c -> schedule_clamped c ~at f

let shutdown = function
  | Domains d -> Engine_domains.shutdown d
  | Sim _ -> ()
