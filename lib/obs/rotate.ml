type t = {
  path : string;
  max_bytes : int;
  max_records : int;
  retain : int;
  mutable oc : out_channel option;
  mutable seg_bytes : int;
  mutable seg_records : int;
  mutable total_records : int;
  mutable rotations : int;
}

let create ?(max_bytes = 64 * 1024 * 1024) ?(max_records = max_int) ?(retain = 3) ~path () =
  if max_bytes <= 0 then invalid_arg "Rotate.create: max_bytes must be positive";
  if max_records <= 0 then invalid_arg "Rotate.create: max_records must be positive";
  if retain < 0 then invalid_arg "Rotate.create: negative retain";
  {
    path;
    max_bytes;
    max_records;
    retain;
    oc = Some (open_out path);
    seg_bytes = 0;
    seg_records = 0;
    total_records = 0;
    rotations = 0;
  }

let seg_name t k = Printf.sprintf "%s.%d" t.path k

(* Shift path.k -> path.(k+1) from the oldest kept segment down, then move
   the active file into the .1 slot. With retain = 0 rotation degenerates
   to truncation. *)
let rotate t oc =
  close_out oc;
  if t.retain = 0 then ()
  else begin
    (try Sys.remove (seg_name t t.retain) with Sys_error _ -> ());
    for k = t.retain - 1 downto 1 do
      if Sys.file_exists (seg_name t k) then Sys.rename (seg_name t k) (seg_name t (k + 1))
    done;
    Sys.rename t.path (seg_name t 1)
  end;
  t.oc <- Some (open_out t.path);
  t.seg_bytes <- 0;
  t.seg_records <- 0;
  t.rotations <- t.rotations + 1

let sink t record =
  match t.oc with
  | None -> ()
  | Some oc ->
    let line = Trace.record_to_string record in
    output_string oc line;
    output_char oc '\n';
    t.seg_bytes <- t.seg_bytes + String.length line + 1;
    t.seg_records <- t.seg_records + 1;
    t.total_records <- t.total_records + 1;
    if t.seg_bytes >= t.max_bytes || t.seg_records >= t.max_records then rotate t oc

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    close_out oc;
    t.oc <- None

let records_written t = t.total_records

let rotations t = t.rotations

let segments t =
  let rec rotated k acc =
    if k > t.retain then List.rev acc
    else
      let s = seg_name t k in
      if Sys.file_exists s then rotated (k + 1) (s :: acc) else List.rev acc
  in
  let older = rotated 1 [] in
  if Sys.file_exists t.path then t.path :: older else older
