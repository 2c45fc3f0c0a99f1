(* OCaml 5 domains-parallel engine.
   ================================

   N shards, each owning a private [Lla_sim.Engine.t] core, advance in
   lockstep quanta: at every barrier the main domain runs the queued
   global operations and swaps cross-shard outboxes into inboxes, then
   all shards run their cores to the quantum end in parallel. Everything
   a shard touches during the parallel phase — its core, its actors, its
   transport, its obs handle, its outbox cells — is owned by exactly one
   domain, so the engine needs no locks on the message hot path; the
   only synchronization is the barrier itself.

   Memory model / single-writer discipline
   ---------------------------------------
   - [shards.(s)] and everything reachable from it is written only by
     the domain running shard [s] during a parallel phase, and only by
     the main domain between phases. The barrier's mutex acquire/release
     pair publishes every write of one phase to every reader of the
     next (release/acquire on [pool.m]), so no other fences are needed.
   - [outboxes.(s).(d)] is a cell written only by shard [s] (during its
     phase) and drained only at the barrier — single writer, no lock.
   - Barrier ops ([at_barrier]) run sequentially on the main domain and
     may therefore read and write *any* shard's state; this is where
     the runtime puts its watchdog, safe-mode entry and chaos writes.

   Deterministic merge
   -------------------
   Cross-shard messages carry [(at, channel, seq)]: the delivery time
   stamped by the source shard's transport, a channel id unique to the
   (source actor, destination actor) pair, and an emission counter owned
   by the source shard ([seq] only ever breaks ties within one channel,
   so per-shard monotone is as good as per-channel — and cheaper). Every
   destination sorts its merged inbox by that key before scheduling the
   deliveries on its core, so the apply order of cross-shard traffic is
   a pure function of the per-shard streams — which are themselves
   deterministic by the sim core's (time, seq) order. By induction over
   quanta, whole runs replay bit-for-bit.

   Timing fidelity: the quantum is a 1 ms constant. With a cross-shard
   link delay of at least 1 ms, a message sent during quantum (T, T+1]
   is delivered at send_time + delay >= T + 1, i.e. at or after the
   barrier where it is merged — so sorted insertion schedules it at
   exactly its stamped time and parallel trajectories lose no timing
   accuracy. A shorter delay degrades gracefully: the message applies at
   the barrier (late by at most one quantum), deterministically. *)

type msg = {
  m_at : float;
  m_channel : int;
  m_seq : int;
  m_apply : unit -> unit;
}

type shard = {
  core : Lla_sim.Engine.t;
  outboxes : msg list ref array;  (* per destination shard; reversed emission order *)
  mutable post_seq : int;
      (* source-side emission counter. [m_seq] only breaks ties between
         messages of the SAME channel (one source shard each), so any
         counter monotone in emission order yields the same sorted merge
         as a per-channel one — this one costs an increment per post
         instead of two hashtable probes. *)
}

(* Persistent worker pool: [workers = n - 1] domains (shard 0 runs on the
   main domain), woken per quantum by a generation counter under one
   mutex. Spawned lazily on the first parallel phase so construction is
   cheap and single-shard engines never spawn at all. *)
type pool = {
  workers : int;
  m : Mutex.t;
  start_cv : Condition.t;
  done_cv : Condition.t;
  mutable job : int -> unit;  (* shard index -> quantum work *)
  mutable round : int;  (* generation counter *)
  mutable done_count : int;
  mutable failed : exn option;  (* first worker exception of the round *)
  mutable stopping : bool;
  mutable handles : unit Domain.t list;
}

(* Barrier spacing in engine ms. *)
let quantum = 1.0

type t = {
  n : int;
  shards : shard array;
  mutable clock : float;
  mutable bops : (float * int * (unit -> unit)) list;  (* pending barrier ops *)
  mutable bop_seq : int;
  mutable pool : pool option;  (* spawned lazily; None after shutdown or when n = 1 *)
  mutable stopped : bool;
}

let create ~domains =
  if domains < 1 then invalid_arg "Engine_domains.create: domains < 1";
  {
    n = domains;
    shards =
      Array.init domains (fun _ ->
          {
            core = Lla_sim.Engine.create ();
            outboxes = Array.init domains (fun _ -> ref []);
            post_seq = 0;
          });
    clock = 0.;
    bops = [];
    bop_seq = 0;
    pool = None;
    stopped = false;
  }

let shards t = t.n

let core t shard = t.shards.(shard).core

let now t = t.clock

(* --- worker pool ------------------------------------------------------ *)

let worker_loop pool w =
  let my_round = ref 0 in
  let rec loop () =
    Mutex.lock pool.m;
    while (not pool.stopping) && pool.round = !my_round do
      Condition.wait pool.start_cv pool.m
    done;
    if pool.stopping then Mutex.unlock pool.m
    else begin
      my_round := pool.round;
      let job = pool.job in
      Mutex.unlock pool.m;
      let failure = try job (w + 1); None with exn -> Some exn in
      Mutex.lock pool.m;
      (match (failure, pool.failed) with
      | Some exn, None -> pool.failed <- Some exn
      | _ -> ());
      pool.done_count <- pool.done_count + 1;
      if pool.done_count = pool.workers then Condition.signal pool.done_cv;
      Mutex.unlock pool.m;
      loop ()
    end
  in
  loop ()

let get_pool t =
  match t.pool with
  | Some p -> p
  | None ->
    if t.stopped then invalid_arg "Engine_domains: engine was shut down";
    let p =
      {
        workers = t.n - 1;
        m = Mutex.create ();
        start_cv = Condition.create ();
        done_cv = Condition.create ();
        job = ignore;
        round = 0;
        done_count = 0;
        failed = None;
        stopping = false;
        handles = [];
      }
    in
    p.handles <- List.init p.workers (fun w -> Domain.spawn (fun () -> worker_loop p w));
    t.pool <- Some p;
    p

(* Run [job s] for every shard s, shard 0 on the calling (main) domain.
   The mutex acquire/release around the round hand-off is the
   happens-before edge publishing each phase's writes to the next. *)
let run_parallel t job =
  if t.n = 1 then job 0
  else begin
    let p = get_pool t in
    Mutex.lock p.m;
    p.job <- job;
    p.done_count <- 0;
    p.failed <- None;
    p.round <- p.round + 1;
    Condition.broadcast p.start_cv;
    Mutex.unlock p.m;
    let main_failure = try job 0; None with exn -> Some exn in
    Mutex.lock p.m;
    while p.done_count < p.workers do
      Condition.wait p.done_cv p.m
    done;
    let worker_failure = p.failed in
    Mutex.unlock p.m;
    match (main_failure, worker_failure) with
    | Some exn, _ | None, Some exn -> raise exn
    | None, None -> ()
  end

let shutdown t =
  (match t.pool with
  | None -> ()
  | Some p ->
    Mutex.lock p.m;
    p.stopping <- true;
    Condition.broadcast p.start_cv;
    Mutex.unlock p.m;
    List.iter Domain.join p.handles;
    t.pool <- None);
  t.stopped <- true

(* --- cross-shard posting ---------------------------------------------- *)

let post t ~from ~shard ~at ~channel apply =
  if shard < 0 || shard >= t.n then invalid_arg "Engine_domains.post: bad shard";
  if shard = from then begin
    (* Same shard: no barrier to cross; schedule on the owning core
       directly (clamped, in case the stamp is slightly in this core's
       past — can only happen with a link delay under the quantum). *)
    let c = t.shards.(from).core in
    ignore
      (Lla_sim.Engine.schedule c ~at:(Float.max at (Lla_sim.Engine.now c)) (fun _ -> apply ()))
  end
  else begin
    let sh = t.shards.(from) in
    let seq = sh.post_seq in
    sh.post_seq <- seq + 1;
    let cell = sh.outboxes.(shard) in
    cell := { m_at = at; m_channel = channel; m_seq = seq; m_apply = apply } :: !cell
  end

let at_barrier t ~at f =
  let at = Float.max at t.clock in
  t.bops <- (at, t.bop_seq, f) :: t.bops;
  t.bop_seq <- t.bop_seq + 1

(* --- quantum loop ----------------------------------------------------- *)

let bop_due clock (at, _, _) = at <= clock +. 1e-9

let run_barrier_ops t =
  let rec flush () =
    let due, rest = List.partition (bop_due t.clock) t.bops in
    match due with
    | [] -> ()
    | _ ->
      t.bops <- rest;
      List.sort
        (fun (a1, s1, _) (a2, s2, _) ->
          match Float.compare a1 a2 with 0 -> Int.compare s1 s2 | c -> c)
        due
      |> List.iter (fun (_, _, f) -> f ());
      flush ()
  in
  flush ()

let cmp_msg a b =
  match Float.compare a.m_at b.m_at with
  | 0 -> ( match Int.compare a.m_channel b.m_channel with 0 -> Int.compare a.m_seq b.m_seq | c -> c)
  | c -> c

(* Swap every outbox into its destination's merged inbox. Serial (at the
   barrier), but only list moves — the per-message work happens on the
   destination shard during the next parallel phase. *)
let collect_inboxes t =
  Array.init t.n (fun d ->
      let acc = ref [] in
      for s = t.n - 1 downto 0 do
        let cell = t.shards.(s).outboxes.(d) in
        (* [deliver_inbox] sorts by a total key, so the order the cells
           are concatenated in does not matter; [rev_append] makes it one
           linear pass with no quadratic copies at the barrier. *)
        acc := List.rev_append !cell !acc;
        cell := []
      done;
      !acc)

let deliver_inbox t sid inbox =
  let sh = t.shards.(sid) in
  List.iter
    (fun m ->
      ignore
        (Lla_sim.Engine.schedule sh.core
           ~at:(Float.max m.m_at (Lla_sim.Engine.now sh.core))
           (fun _ -> m.m_apply ())))
    (List.sort cmp_msg inbox)

let step_quantum t horizon =
  run_barrier_ops t;
  let q_end = Float.min horizon (t.clock +. quantum) in
  let inboxes = collect_inboxes t in
  run_parallel t (fun sid ->
      deliver_inbox t sid inboxes.(sid);
      Lla_sim.Engine.run_until t.shards.(sid).core q_end);
  t.clock <- q_end

let run_until t horizon =
  if t.stopped then invalid_arg "Engine_domains.run_until: engine was shut down";
  if horizon < t.clock then invalid_arg "Engine_domains.run_until: horizon is in the past";
  while t.clock < horizon -. 1e-12 do
    step_quantum t horizon
  done;
  run_barrier_ops t

let outbox_backlog t =
  Array.fold_left
    (fun acc sh -> Array.fold_left (fun acc cell -> acc + List.length !cell) acc sh.outboxes)
    0 t.shards

let pending t =
  Array.fold_left (fun acc sh -> acc + Lla_sim.Engine.pending sh.core) 0 t.shards
  + outbox_backlog t + List.length t.bops

let events_fired t =
  Array.fold_left (fun acc sh -> acc + Lla_sim.Engine.events_fired sh.core) 0 t.shards

let drain t =
  while pending t > 0 do
    step_quantum t (t.clock +. quantum)
  done
