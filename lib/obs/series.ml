let utility records =
  let iteration_series =
    List.filter_map
      (fun (r : Trace.record) ->
        match r.event with
        | Trace.Iteration { utility; _ } -> Some (r.at, utility)
        | _ -> None)
      records
  in
  if iteration_series <> [] then iteration_series
  else begin
    (* Distributed runs have no global Iteration events; rebuild the
       objective as the running sum of each task's latest local utility,
       emitting once every task that ever reports has reported. *)
    let tasks = Hashtbl.create 16 in
    List.iter
      (fun (r : Trace.record) ->
        match r.event with
        | Trace.Allocation_solved { task; _ } -> Hashtbl.replace tasks task ()
        | _ -> ())
      records;
    let total = Hashtbl.length tasks in
    let latest = Hashtbl.create 16 in
    let out = ref [] in
    List.iter
      (fun (r : Trace.record) ->
        match r.event with
        | Trace.Allocation_solved { task; utility } ->
          Hashtbl.replace latest task utility;
          if Hashtbl.length latest = total then begin
            let sum = Hashtbl.fold (fun _ u acc -> acc +. u) latest 0. in
            out := (r.at, sum) :: !out
          end
        | _ -> ())
      records;
    List.rev !out
  end

let group_by_int extract records =
  let tbl = Hashtbl.create 16 in
  let keys = ref [] in
  List.iter
    (fun (r : Trace.record) ->
      match extract r with
      | None -> ()
      | Some (k, v) ->
        if not (Hashtbl.mem tbl k) then keys := k :: !keys;
        Hashtbl.replace tbl k ((r.Trace.at, v) :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    records;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !keys

let prices records =
  group_by_int
    (fun r ->
      match r.Trace.event with
      | Trace.Price_updated { resource; mu; _ } -> Some (resource, mu)
      | _ -> None)
    records

let congestion records =
  group_by_int
    (fun r ->
      match r.Trace.event with
      | Trace.Price_updated { resource; share_sum; capacity; _ } ->
        Some (resource, if capacity > 0. then share_sum /. capacity else infinity)
      | _ -> None)
    records

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno acc =
        match input_line ic with
        | exception End_of_file -> Ok (List.rev acc)
        | line when String.trim line = "" -> go (lineno + 1) acc
        | line -> (
          match Trace.record_of_string line with
          | Ok r -> go (lineno + 1) (r :: acc)
          | Error e -> Error (Printf.sprintf "%s:%d: %s" path lineno e))
      in
      go 1 [])
