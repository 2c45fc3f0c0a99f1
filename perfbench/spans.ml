type span = { id : int; parent : int; name : string; start : float; stop : float }

type t = {
  clock : unit -> float;
  mutable next : int;
  mutable stack : int list;  (** open span ids, innermost first *)
  mutable closed : span list;  (** newest first *)
}

let create ~clock = { clock; next = 0; stack = []; closed = [] }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.stack <- id :: t.stack;
  let start = t.clock () in
  let close () =
    let stop = t.clock () in
    t.stack <- (match t.stack with _ :: rest -> rest | [] -> []);
    t.closed <- { id; parent; name; start; stop } :: t.closed
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let mark t name ~start ~stop =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> -1 in
  t.closed <- { id; parent; name; start; stop } :: t.closed

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.closed

let to_json_line s =
  Printf.sprintf "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start_s\":%.9f,\"dur_s\":%.9f}" s.id
    s.parent s.name s.start (s.stop -. s.start)
