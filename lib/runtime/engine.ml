(* The pluggable engine interface: one closed dispatch type over the
   two implementations, so runtime layers thread a single [?engine]
   value and branch on capability (shard count, barrier ops) rather
   than on concrete engines. The variants stay exposed (not an abstract
   record of closures) deliberately: the domains engine's extra surface
   — [post], [at_barrier], shard cores — is capability, not leakage,
   and [Distributed] needs static knowledge of which mode it wires. *)

type t =
  | Sim of Engine_sim.t
  | Domains of Engine_domains.t

type kind = [ `Sim | `Domains ]

let sim ?start_time () = Sim (Engine_sim.create ?start_time ())

let of_core core = Sim (Engine_sim.of_core core)

let domains ?domains ?quantum ?deterministic ?start_time () =
  Domains (Engine_domains.create ?domains ?quantum ?deterministic ?start_time ())

let kind = function Sim _ -> `Sim | Domains _ -> `Domains

let name = function Sim _ -> "sim" | Domains _ -> "domains"

let shards = function Sim _ -> 1 | Domains d -> Engine_domains.shards d

let core t ~shard =
  match t with
  | Sim s ->
    if shard <> 0 then invalid_arg "Engine.core: sim engine has one shard";
    Engine_sim.core s
  | Domains d -> Engine_domains.core d shard

let now = function
  | Sim s -> Engine_sim.now s
  | Domains d -> Engine_domains.now d

let run_until t horizon =
  match t with
  | Sim s -> Engine_sim.run_until s horizon
  | Domains d -> Engine_domains.run_until d horizon

let drain = function
  | Sim s -> Engine_sim.drain s
  | Domains d -> Engine_domains.drain d

let pending = function
  | Sim s -> Engine_sim.pending s
  | Domains d -> Engine_domains.pending d

let events_fired = function
  | Sim s -> Engine_sim.events_fired s
  | Domains d -> Engine_domains.events_fired d

let post t ~from ~shard ~at ~channel apply =
  match t with
  | Domains d -> Engine_domains.post d ~from ~shard ~at ~channel apply
  | Sim _ ->
    if from <> 0 || shard <> 0 then invalid_arg "Engine.post: single-shard engine";
    let c = core t ~shard:0 in
    ignore
      (Lla_sim.Engine.schedule c ~at:(Float.max at (Lla_sim.Engine.now c)) (fun _ -> apply ()))

let at_barrier t ~at f =
  match t with
  | Domains d -> Engine_domains.at_barrier d ~at f
  | Sim _ ->
    let c = core t ~shard:0 in
    ignore
      (Lla_sim.Engine.schedule c ~at:(Float.max at (Lla_sim.Engine.now c)) (fun _ -> f ()))

let shutdown = function
  | Domains d -> Engine_domains.shutdown d
  | Sim _ -> ()
