(* Tests for the discrete-event engine. *)

open Lla_sim

let test_engine_fires_in_time_order () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag _ = log := tag :: !log in
  ignore (Engine.schedule engine ~at:3. (record "c"));
  ignore (Engine.schedule engine ~at:1. (record "a"));
  ignore (Engine.schedule engine ~at:2. (record "b"));
  Engine.run engine ();
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_at_equal_times () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag _ = log := tag :: !log in
  ignore (Engine.schedule engine ~at:5. (record "first"));
  ignore (Engine.schedule engine ~at:5. (record "second"));
  ignore (Engine.schedule engine ~at:5. (record "third"));
  Engine.run engine ();
  Alcotest.(check (list string)) "deterministic tie-break" [ "first"; "second"; "third" ]
    (List.rev !log)

let test_engine_clock_advances () =
  let engine = Engine.create () in
  let seen = ref [] in
  ignore (Engine.schedule engine ~at:10. (fun e -> seen := Engine.now e :: !seen));
  ignore (Engine.schedule engine ~at:20. (fun e -> seen := Engine.now e :: !seen));
  Engine.run engine ();
  Alcotest.(check (list (float 0.))) "now inside events" [ 10.; 20. ] (List.rev !seen);
  Alcotest.(check (float 0.)) "clock at last event" 20. (Engine.now engine)

let test_engine_schedule_in_past_rejected () =
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~at:10. (fun _ -> ()));
  Engine.run engine ();
  Alcotest.(check bool) "raises" true
    (try
       ignore (Engine.schedule engine ~at:5. (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_engine_schedule_after () =
  let engine = Engine.create () in
  Engine.run_until engine 100.;
  let fired_at = ref nan in
  ignore (Engine.schedule_after engine ~delay:5. (fun e -> fired_at := Engine.now e));
  Engine.run engine ();
  Alcotest.(check (float 0.)) "relative delay" 105. !fired_at

let test_engine_cancel () =
  let engine = Engine.create () in
  let fired = ref false in
  let ev = Engine.schedule engine ~at:1. (fun _ -> fired := true) in
  Alcotest.(check int) "pending" 1 (Engine.pending engine);
  Engine.cancel engine ev;
  Alcotest.(check bool) "marked cancelled" true (Engine.cancelled engine ev);
  Alcotest.(check int) "pending drops" 0 (Engine.pending engine);
  Engine.run engine ();
  Alcotest.(check bool) "never fires" false !fired;
  (* double cancel is a no-op *)
  Engine.cancel engine ev;
  Alcotest.(check int) "still zero" 0 (Engine.pending engine)

let test_engine_events_schedule_events () =
  let engine = Engine.create () in
  let count = ref 0 in
  let rec chain n e =
    incr count;
    if n > 0 then ignore (Engine.schedule_after e ~delay:1. (chain (n - 1)))
  in
  ignore (Engine.schedule engine ~at:0. (chain 9));
  Engine.run engine ();
  Alcotest.(check int) "chained events" 10 !count;
  Alcotest.(check int) "fired count" 10 (Engine.events_fired engine)

let test_engine_run_until () =
  let engine = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun at -> ignore (Engine.schedule engine ~at (fun _ -> fired := at :: !fired)))
    [ 1.; 2.; 3.; 10. ];
  Engine.run_until engine 5.;
  Alcotest.(check (list (float 0.))) "only events <= horizon" [ 1.; 2.; 3. ] (List.rev !fired);
  Alcotest.(check (float 0.)) "clock at horizon" 5. (Engine.now engine);
  Alcotest.(check int) "one pending" 1 (Engine.pending engine);
  Engine.run_until engine 15.;
  Alcotest.(check int) "drained" 0 (Engine.pending engine)

let test_engine_run_until_handles_newly_scheduled () =
  let engine = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule engine ~at:1. (fun e ->
         log := 1. :: !log;
         (* schedules an earlier follow-up than other pending events *)
         ignore (Engine.schedule_after e ~delay:0.5 (fun _ -> log := 1.5 :: !log))));
  ignore (Engine.schedule engine ~at:2. (fun _ -> log := 2. :: !log));
  Engine.run_until engine 3.;
  Alcotest.(check (list (float 0.))) "interleaved correctly" [ 1.; 1.5; 2. ] (List.rev !log)

(* The regression: a cancelled event at the head of the queue must not
   let [run_until] fire the next event past its horizon. *)
let test_engine_run_until_cancelled_head () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag e = log := (tag, Engine.now e) :: !log in
  let a = Engine.schedule engine ~at:5. (record "a") in
  ignore (Engine.schedule engine ~at:20. (record "b"));
  Engine.cancel engine a;
  Engine.run_until engine 10.;
  Alcotest.(check (list (pair string (float 0.)))) "nothing past the horizon" [] !log;
  Alcotest.(check (float 0.)) "clock at horizon" 10. (Engine.now engine);
  Alcotest.(check int) "b still pending" 1 (Engine.pending engine);
  ignore (Engine.schedule_after engine ~delay:1. (record "c"));
  Engine.run engine ();
  Alcotest.(check (list (pair string (float 0.))))
    "c fires at 11, before b" [ ("c", 11.); ("b", 20.) ] (List.rev !log)

let noop _ = ()

(* Firing reads the root in place: no option, no boxed time. The probe
   idiom of the kernel's zero-allocation test: [Gc.minor_words] boxes its
   own result, so compare against an empty probe. *)
let test_engine_firing_allocates_nothing () =
  let engine = Engine.create () in
  let events =
    Array.init 1000 (fun i -> Engine.schedule engine ~at:(float_of_int (i * 7 mod 37)) noop)
  in
  Array.iteri (fun i ev -> if i mod 5 = 0 then Engine.cancel engine ev) events;
  let probe f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let empty = probe ignore in
  let fire_all () =
    Engine.run_until engine 20.;
    ignore (Engine.step engine);
    Engine.run engine ()
  in
  let words = probe fire_all in
  Alcotest.(check int) "every live event fired" 800 (Engine.events_fired engine);
  if words <> empty then
    Alcotest.failf "firing 800 events allocated %.0f minor words" (words -. empty)

(* ------------------------------------------------------------------ *)
(* The queue against a list model                                      *)
(* ------------------------------------------------------------------ *)

(* Random operation sequences against a list model sorted by (time, seq),
   with [run_until]'s semantics: fire every live event up to the horizon,
   then set the clock to it. Offsets come from a small set half of the
   time, so equal times are common. An event scheduled with [spawn]
   schedules a child 0.25 ms later when it fires. *)
type op =
  | At of float * bool
  | After of float
  | Cancel of int
  | Step
  | Until of float
  | Next

let print_op = function
  | At (d, spawn) -> Printf.sprintf "At(+%g%s)" d (if spawn then ", spawn" else "")
  | After d -> Printf.sprintf "After %g" d
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Step -> "Step"
  | Until d -> Printf.sprintf "Until(+%g)" d
  | Next -> "Next"

let arb_ops =
  let open QCheck.Gen in
  let offset = oneof [ oneofl [ 0.; 0.25; 0.5; 1.; 2. ]; float_bound_inclusive 5. ] in
  let op =
    frequency
      [
        (4, map2 (fun d spawn -> At (d, spawn)) offset bool);
        (2, map (fun d -> After d) offset);
        (2, map (fun k -> Cancel k) small_nat);
        (3, return Step);
        (2, map (fun d -> Until d) offset);
        (1, return Next);
      ]
  in
  QCheck.make ~print:QCheck.Print.(list print_op) ~shrink:QCheck.Shrink.list
    (list_size (1 -- 80) op)

(* Ids number the schedules in order, so an event's id is also its seq. *)
type model_event = { m_time : float; m_id : int; m_spawn : bool }

type model = {
  mutable clock : float;
  mutable queue : model_event list;  (* live events *)
  mutable fired : int;
  mutable log : int list;  (* fired ids, newest first *)
  mutable ids : int;
}

let model_schedule m ~at ~spawn =
  m.queue <- { m_time = at; m_id = m.ids; m_spawn = spawn } :: m.queue;
  m.ids <- m.ids + 1

let model_head m =
  List.fold_left
    (fun best e ->
      match best with
      | Some b when b.m_time < e.m_time || (b.m_time = e.m_time && b.m_id < e.m_id) -> best
      | _ -> Some e)
    None m.queue

let model_fire m e =
  m.queue <- List.filter (fun x -> x.m_id <> e.m_id) m.queue;
  m.clock <- e.m_time;
  m.fired <- m.fired + 1;
  m.log <- e.m_id :: m.log;
  if e.m_spawn then model_schedule m ~at:(e.m_time +. 0.25) ~spawn:false

let prop_engine_matches_model =
  QCheck.Test.make ~count:300 ~name:"engine: firing order and state match a (time, seq) model"
    arb_ops (fun ops ->
      let m = { clock = 0.; queue = []; fired = 0; log = []; ids = 0 } in
      let engine = Engine.create () in
      let handles = ref [||] and log = ref [] in
      let rec add ~spawn schedule =
        let id = Array.length !handles in
        let action e =
          log := id :: !log;
          if spawn then add ~spawn:false (Engine.schedule e ~at:(Engine.now e +. 0.25))
        in
        let handle = schedule action in
        handles := Array.append !handles [| handle |]
      in
      let live id = List.exists (fun e -> e.m_id = id) m.queue in
      let agree step_result model_step =
        step_result = model_step && !log = m.log
        && Int64.equal (Int64.bits_of_float (Engine.now engine)) (Int64.bits_of_float m.clock)
        && Engine.pending engine = List.length m.queue
        && Engine.events_fired engine = m.fired
        && Engine.next_time engine = Option.map (fun e -> e.m_time) (model_head m)
        && Array.for_all Fun.id
             (Array.mapi
                (fun id h -> Engine.cancelled engine h = not (live id))
                !handles)
      in
      List.for_all
        (fun op ->
          match op with
          | At (d, spawn) ->
            let at = Engine.now engine +. d in
            add ~spawn (Engine.schedule engine ~at);
            model_schedule m ~at ~spawn;
            agree true true
          | After d ->
            add ~spawn:false (Engine.schedule_after engine ~delay:d);
            model_schedule m ~at:(m.clock +. d) ~spawn:false;
            agree true true
          | Cancel k ->
            let n = Array.length !handles in
            if n > 0 then begin
              let id = k mod n in
              Engine.cancel engine !handles.(id);
              m.queue <- List.filter (fun e -> e.m_id <> id) m.queue
            end;
            agree true true
          | Step ->
            let fired = Engine.step engine in
            let model_fired =
              match model_head m with
              | Some e ->
                model_fire m e;
                true
              | None -> false
            in
            agree fired model_fired
          | Until d ->
            let horizon = Engine.now engine +. d in
            Engine.run_until engine horizon;
            let rec drain () =
              match model_head m with
              | Some e when e.m_time <= horizon ->
                model_fire m e;
                drain ()
              | _ -> ()
            in
            drain ();
            m.clock <- horizon;
            agree true true
          | Next -> agree true true)
        ops)

(* ------------------------------------------------------------------ *)
(* Deep queues                                                         *)
(* ------------------------------------------------------------------ *)

(* The queue of a runtime_faulty deployment: hundreds of far-future
   outage pairs scheduled up front, sub-ms deliveries in runs at one
   time (each may spawn a follow-up delivery 0.3 ms later), retries
   40-640 ms out, and cancels of live, fired and already-cancelled ids.
   [Reuse] fires the head, schedules at once, so the new event can take
   the fired one's storage, and then cancels the fired id: that must
   neither cancel nor revive the new event. The model is a set ordered
   by (time, id). *)
type deep_op =
  | Burst of int * float * bool
  | Retry of int  (* 40 * 2^j ms out *)
  | Outage of float * float  (* at now + s and now + s + duration *)
  | Cancel_live of int
  | Cancel_fired of int
  | Cancel_cancelled of int
  | Reuse of float
  | Steps of int
  | Advance of float

let print_deep_op = function
  | Burst (n, d, spawn) -> Printf.sprintf "Burst(%d, +%g%s)" n d (if spawn then ", spawn" else "")
  | Retry j -> Printf.sprintf "Retry %d" j
  | Outage (s, dur) -> Printf.sprintf "Outage(+%g, %g)" s dur
  | Cancel_live k -> Printf.sprintf "Cancel_live %d" k
  | Cancel_fired k -> Printf.sprintf "Cancel_fired %d" k
  | Cancel_cancelled k -> Printf.sprintf "Cancel_cancelled %d" k
  | Reuse d -> Printf.sprintf "Reuse(+%g)" d
  | Steps n -> Printf.sprintf "Steps %d" n
  | Advance d -> Printf.sprintf "Advance(+%g)" d

let arb_deep =
  let open QCheck.Gen in
  let sub_ms = oneof [ oneofl [ 0.; 0.25; 0.5 ]; float_bound_exclusive 1. ] in
  let op =
    frequency
      [
        (6, map3 (fun n d spawn -> Burst (n, d, spawn)) (1 -- 12) sub_ms bool);
        (3, map (fun j -> Retry j) (0 -- 4));
        (1, map2 (fun s dur -> Outage (s, dur)) (float_range 1_000. 30_000.) (float_range 100. 1_000.));
        (2, map (fun k -> Cancel_live k) nat);
        (1, map (fun k -> Cancel_fired k) nat);
        (1, map (fun k -> Cancel_cancelled k) nat);
        (1, map (fun d -> Reuse d) sub_ms);
        (4, map (fun n -> Steps n) (1 -- 8));
        (2, map (fun d -> Advance d) (oneof [ float_bound_inclusive 5.; float_range 40. 700. ]));
      ]
  in
  let outages = list_size (150 -- 400) (pair (float_range 1_000. 60_000.) (float_range 100. 1_000.)) in
  QCheck.make
    ~print:(fun (outages, ops) ->
      Printf.sprintf "%d outage pairs; %s" (List.length outages)
        (String.concat "; " (List.map print_deep_op ops)))
    (pair outages (list_size (100 -- 400) op))

module Queue_model = Set.Make (struct
  type t = float * int

  let compare (a, i) (b, j) = match Float.compare a b with 0 -> Int.compare i j | c -> c
end)

let prop_engine_deep_queue =
  QCheck.Test.make ~count:60 ~name:"engine: deep runtime-shaped queues match the (time, seq) model"
    arb_deep (fun (outages, ops) ->
      let cap = (2 * List.length outages) + (24 * List.length ops) + 1 in
      (* model: 0 live, 1 fired, 2 cancelled *)
      let state = Array.make cap 0 and spawns = Array.make cap false and times = Array.make cap 0. in
      let live = ref Queue_model.empty and clock = ref 0. and ids = ref 0 in
      let model_log = ref [] in
      let model_add ~at ~spawn =
        let id = !ids in
        incr ids;
        spawns.(id) <- spawn;
        times.(id) <- at;
        live := Queue_model.add (at, id) !live
      in
      let model_fire () =
        match Queue_model.min_elt_opt !live with
        | None -> None
        | Some ((at, id) as e) ->
          live := Queue_model.remove e !live;
          state.(id) <- 1;
          clock := at;
          model_log := id :: !model_log;
          if spawns.(id) then model_add ~at:(at +. 0.3) ~spawn:false;
          Some id
      in
      let model_cancel id =
        if state.(id) = 0 then begin
          state.(id) <- 2;
          live := Queue_model.remove (times.(id), id) !live
        end
      in
      (* engine *)
      let engine = Engine.create () in
      let handles = Array.make cap None and n_handles = ref 0 and log = ref [] in
      let rec add ~at ~spawn =
        let id = !n_handles in
        incr n_handles;
        let action e =
          log := id :: !log;
          if spawn then add ~at:(Engine.now e +. 0.3) ~spawn:false
        in
        handles.(id) <- Some (Engine.schedule engine ~at action)
      in
      let cancel id = Option.iter (Engine.cancel engine) handles.(id) in
      let schedule ~delay ~spawn =
        add ~at:(Engine.now engine +. delay) ~spawn;
        model_add ~at:(!clock +. delay) ~spawn
      in
      let nth_with st k =
        let matching = List.filter (fun id -> state.(id) = st) (List.init !ids Fun.id) in
        match matching with [] -> None | l -> Some (List.nth l (k mod List.length l))
      in
      let statuses_agree () =
        !n_handles = !ids
        && List.for_all
             (fun id ->
               match handles.(id) with
               | Some h -> Engine.cancelled engine h = (state.(id) <> 0)
               | None -> false)
             (List.init !ids Fun.id)
      in
      let peak = ref 0 in
      let agree () =
        peak := max !peak (Engine.pending engine);
        Int64.equal (Int64.bits_of_float (Engine.now engine)) (Int64.bits_of_float !clock)
        && Engine.pending engine = Queue_model.cardinal !live
        && Engine.events_fired engine = List.length !model_log
        && Engine.next_time engine = Option.map fst (Queue_model.min_elt_opt !live)
      in
      List.iter (fun (s, dur) -> schedule ~delay:s ~spawn:false; schedule ~delay:(s +. dur) ~spawn:false) outages;
      let ok =
        agree ()
        && List.for_all
             (fun op ->
               let step_agrees () =
                 let fired = Engine.step engine in
                 fired = Option.is_some (model_fire ())
               in
               let ok =
                 match op with
                 | Burst (n, d, spawn) ->
                   for _ = 1 to n do
                     schedule ~delay:d ~spawn
                   done;
                   true
                 | Retry j ->
                   schedule ~delay:(40. *. (2. ** float_of_int j)) ~spawn:false;
                   true
                 | Outage (s, dur) ->
                   schedule ~delay:s ~spawn:false;
                   schedule ~delay:(s +. dur) ~spawn:false;
                   true
                 | Cancel_live k ->
                   let l = Queue_model.elements !live in
                   (if l <> [] then
                      let _, id = List.nth l (k mod List.length l) in
                      cancel id;
                      model_cancel id);
                   statuses_agree ()
                 | Cancel_fired k ->
                   Option.iter cancel (nth_with 1 k);
                   statuses_agree ()
                 | Cancel_cancelled k ->
                   Option.iter cancel (nth_with 2 k);
                   statuses_agree ()
                 | Reuse d -> (
                   let fired = Engine.step engine in
                   match model_fire () with
                   | Some id when fired ->
                     schedule ~delay:d ~spawn:false;
                     cancel id;
                     statuses_agree ()
                   | Some _ -> false
                   | None -> not fired)
                 | Steps n ->
                   let ok = ref true in
                   for _ = 1 to n do
                     ok := !ok && step_agrees ()
                   done;
                   !ok
                 | Advance d ->
                   let horizon = Engine.now engine +. d in
                   Engine.run_until engine horizon;
                   let horizon' = !clock +. d in
                   let rec drain () =
                     match Queue_model.min_elt_opt !live with
                     | Some (at, _) when at <= horizon' ->
                       ignore (model_fire ());
                       drain ()
                     | _ -> ()
                   in
                   drain ();
                   clock := horizon';
                   true
               in
               ok && agree ())
             ops
      in
      ok && !log = !model_log && statuses_agree () && !peak >= 300)

let prop_engine_random_order =
  QCheck.Test.make ~name:"engine: random schedules fire in nondecreasing time order"
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_inclusive 1000.))
    (fun times ->
      let engine = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun at -> ignore (Engine.schedule engine ~at (fun e -> fired := Engine.now e :: !fired)))
        times;
      Engine.run engine ();
      let fired = List.rev !fired in
      List.length fired = List.length times
      && fst
           (List.fold_left
              (fun (sorted, prev) t -> (sorted && t >= prev, t))
              (true, neg_infinity) fired))

(* ------------------------------------------------------------------ *)
(* The engine's heap                                                   *)
(* ------------------------------------------------------------------ *)

(* [next_time] peeks at the root, [step] pops it. *)
let test_heap_basic () =
  let engine = Engine.create () in
  let log = ref [] in
  let record tag _ = log := tag :: !log in
  Alcotest.(check (option (float 0.))) "peek empty" None (Engine.next_time engine);
  Alcotest.(check bool) "pop empty" false (Engine.step engine);
  List.iter (fun at -> ignore (Engine.schedule engine ~at (record at))) [ 5.; 1.; 3. ];
  Alcotest.(check int) "size" 3 (Engine.pending engine);
  Alcotest.(check (option (float 0.))) "peek min" (Some 1.) (Engine.next_time engine);
  List.iter
    (fun at ->
      Alcotest.(check bool) "pop" true (Engine.step engine);
      Alcotest.(check (float 0.)) "popped the minimum" at (List.hd !log))
    [ 1.; 3.; 5. ];
  Alcotest.(check int) "empty again" 0 (Engine.pending engine)

(* Equal times leave the heap in scheduling order, whichever sift moved
   them. *)
let test_heap_duplicates () =
  let engine = Engine.create () in
  let log = ref [] in
  List.iteri
    (fun i at -> ignore (Engine.schedule engine ~at (fun _ -> log := i :: !log)))
    [ 2.; 2.; 1.; 2.; 1. ];
  Engine.run engine ();
  Alcotest.(check (list int)) "drain with duplicates" [ 2; 4; 0; 1; 3 ] (List.rev !log)

let prop_heap_drain_sorted =
  QCheck.Test.make ~name:"heap: drain returns elements sorted"
    QCheck.(list (map float_of_int (int_bound 20)))
    (fun times ->
      let engine = Engine.create () in
      let log = ref [] in
      List.iteri
        (fun i at -> ignore (Engine.schedule engine ~at (fun _ -> log := (at, i) :: !log)))
        times;
      Engine.run engine ();
      List.rev !log = List.stable_sort compare (List.mapi (fun i at -> (at, i)) times))

let prop_heap_size =
  QCheck.Test.make ~name:"heap: size tracks pushes and pops"
    QCheck.(pair (list small_nat) small_nat)
    (fun (times, pops) ->
      let engine = Engine.create () in
      List.iter (fun at -> ignore (Engine.schedule engine ~at:(float_of_int at) noop)) times;
      let popped = ref 0 in
      for _ = 1 to pops do
        if Engine.step engine then incr popped
      done;
      Engine.pending engine = List.length times - !popped)

let () =
  Alcotest.run "lla_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "time order" `Quick test_engine_fires_in_time_order;
          Alcotest.test_case "FIFO tie-break" `Quick test_engine_fifo_at_equal_times;
          Alcotest.test_case "clock advances" `Quick test_engine_clock_advances;
          Alcotest.test_case "past scheduling rejected" `Quick test_engine_schedule_in_past_rejected;
          Alcotest.test_case "schedule_after" `Quick test_engine_schedule_after;
          Alcotest.test_case "cancellation" `Quick test_engine_cancel;
          Alcotest.test_case "events schedule events" `Quick test_engine_events_schedule_events;
          Alcotest.test_case "run_until horizon" `Quick test_engine_run_until;
          Alcotest.test_case "run_until with fresh events" `Quick
            test_engine_run_until_handles_newly_scheduled;
          Alcotest.test_case "run_until past a cancelled head" `Quick
            test_engine_run_until_cancelled_head;
          Alcotest.test_case "firing allocates nothing" `Quick
            test_engine_firing_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_engine_random_order;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
          QCheck_alcotest.to_alcotest prop_engine_deep_queue;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          QCheck_alcotest.to_alcotest prop_heap_drain_sorted;
          QCheck_alcotest.to_alcotest prop_heap_size;
        ] );
    ]
