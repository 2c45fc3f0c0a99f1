type span = { id : int; parent : int; trace : int; kind : string; actor : string; at : float }

let spans records =
  List.filter_map
    (fun (r : Trace.record) ->
      match r.event with
      | Trace.Span { span; parent; trace; kind; actor } ->
        Some { id = span; parent; trace; kind; actor; at = r.at }
      | _ -> None)
    records

(* For each alloc span, walk the parent chain to the price update it
   reacted to, skipping over the message deliveries that relayed it.
   Hitting another alloc span first means this solve ran on its
   fallback parent (no fresh price consumed), exactly the case the
   online histogram also excludes — offline and online agree. *)
let control_latencies records =
  let all = spans records in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  let latency_of alloc =
    let rec up id =
      if id < 0 then None
      else
        match Hashtbl.find_opt by_id id with
        | None -> None
        | Some s ->
          if String.equal s.kind "price" then Some (alloc.at -. s.at)
          else if String.equal s.kind "msg" then up s.parent
          else None
    in
    up alloc.parent
  in
  List.filter_map
    (fun s -> if String.equal s.kind "alloc" then latency_of s else None)
    all
