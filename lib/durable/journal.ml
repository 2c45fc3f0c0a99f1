module Rng = Lla_stdx.Rng

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3, reflected, poly 0xEDB88320)                     *)
(* ------------------------------------------------------------------ *)

module Crc = struct
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref n in
           for _ = 0 to 7 do
             c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
           done;
           !c))

  let string ?(off = 0) ?len s =
    let len = match len with Some l -> l | None -> String.length s - off in
    let t = Lazy.force table in
    let c = ref 0xFFFFFFFF in
    for i = off to off + len - 1 do
      c := t.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
    done;
    !c lxor 0xFFFFFFFF
end

(* ------------------------------------------------------------------ *)
(* Record framing: length (u32 LE) | crc32 (u32 LE) | payload          *)
(* ------------------------------------------------------------------ *)

let header_bytes = 8

let max_record_bytes = 16 * 1024 * 1024

let put_u32 b v =
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let get_u32 s off =
  Char.code s.[off]
  lor (Char.code s.[off + 1] lsl 8)
  lor (Char.code s.[off + 2] lsl 16)
  lor (Char.code s.[off + 3] lsl 24)

let encode_record payload =
  let b = Buffer.create (header_bytes + String.length payload) in
  put_u32 b (String.length payload);
  put_u32 b (Crc.string payload);
  Buffer.add_string b payload;
  Buffer.contents b

type entry = { offset : int; length : int; crc : int }

type scan = {
  entries : entry list;
  good_bytes : int;
  total_bytes : int;
  corrupt_at : int option;
  corrupt_reason : string option;
}

let scan contents =
  let total = String.length contents in
  let entries = ref [] in
  let pos = ref 0 in
  let corrupt = ref None in
  (try
     while !pos < total do
       let off = !pos in
       if off + header_bytes > total then begin
         corrupt := Some (off, "short header");
         raise Exit
       end;
       let length = get_u32 contents off in
       if length < 0 || length > max_record_bytes then begin
         corrupt := Some (off, Printf.sprintf "bad length %d" length);
         raise Exit
       end;
       if off + header_bytes + length > total then begin
         corrupt := Some (off, "truncated payload");
         raise Exit
       end;
       let crc = get_u32 contents (off + 4) in
       if Crc.string ~off:(off + header_bytes) ~len:length contents <> crc then begin
         corrupt := Some (off, "bad crc");
         raise Exit
       end;
       entries := { offset = off; length; crc } :: !entries;
       pos := off + header_bytes + length
     done
   with Exit -> ());
  let corrupt_at, corrupt_reason =
    match !corrupt with Some (o, r) -> (Some o, Some r) | None -> (None, None)
  in
  { entries = List.rev !entries; good_bytes = !pos; total_bytes = total; corrupt_at; corrupt_reason }

let decode contents =
  let s = scan contents in
  let payloads =
    List.map (fun e -> String.sub contents (e.offset + header_bytes) e.length) s.entries
  in
  (payloads, s)

(* ------------------------------------------------------------------ *)
(* Storage backends                                                    *)
(* ------------------------------------------------------------------ *)

module Store = struct
  type faults = {
    torn_write : float;
    bit_flip : float;
    drop_sync : float;
    short_read : float;
    fail_write : float;
  }

  let no_faults =
    { torn_write = 0.; bit_flip = 0.; drop_sync = 0.; short_read = 0.; fail_write = 0. }

  let check_faults f =
    let p what v =
      if not (Float.is_finite v && v >= 0. && v <= 1.) then
        Format.kasprintf invalid_arg "Store.set_faults: %s probability %g outside [0,1]" what v
    in
    p "torn_write" f.torn_write;
    p "bit_flip" f.bit_flip;
    p "drop_sync" f.drop_sync;
    p "short_read" f.short_read;
    p "fail_write" f.fail_write

  (* In-memory crash-prone disk: [durable] survives {!crash}; [pending]
     holds appends since the last accepted sync (the page cache). *)
  type ffile = { mutable durable : string; mutable pending : Buffer.t }

  type faulty = {
    files : (string, ffile) Hashtbl.t;
    rng : Rng.t;
    mutable faults : faults;
    mutable injected : int;
  }

  (* File backend: append channels stay open per path; everything else
     reopens on demand. A real write fails with [Sys_error] (a full disk,
     an I/O error) wherever the channel's buffer reaches the file: an
     append that fills it, a sync's flush, a close. The store then drops
     the channel unflushed and keeps the path [Failed], so the failure
     comes back as the [Error] of every later append or sync to that path
     and never as an exception. *)
  type channel = Open of out_channel | Failed of string

  type filestore = { dir : string; channels : (string, channel) Hashtbl.t }

  type t = File of filestore | Faulty of faulty

  let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

  let file ~dir =
    ensure_dir dir;
    File { dir; channels = Hashtbl.create 8 }

  let faulty ?(seed = 0) () =
    Faulty { files = Hashtbl.create 8; rng = Rng.create ~seed; faults = no_faults; injected = 0 }

  let set_faults t f =
    match t with
    | File _ -> ()
    | Faulty fs ->
        check_faults f;
        fs.faults <- f

  let active_faults = function File _ -> no_faults | Faulty fs -> fs.faults

  let faults_injected = function File _ -> 0 | Faulty fs -> fs.injected

  (* The transport's zero-fault discipline: a zero probability draws no
     randomness, so faultless runs are bit-for-bit deterministic. *)
  let hit fs p = p > 0. && (p >= 1. || Rng.float fs.rng < p)

  let resolve st path = Filename.concat st.dir path

  let fail_channel st path oc msg =
    close_out_noerr oc;
    Hashtbl.replace st.channels path (Failed msg);
    Error msg

  (* Closes the path's append channel; a failed flush leaves it [Failed]. *)
  let close_channel st path =
    match Hashtbl.find_opt st.channels path with
    | Some (Open oc) -> (
        match close_out oc with
        | () -> Hashtbl.remove st.channels path
        | exception Sys_error msg -> ignore (fail_channel st path oc msg))
    | Some (Failed _) | None -> ()

  (* For a write or remove that replaces the file: a [Failed] state goes
     with the old contents. *)
  let forget_channel st path =
    close_channel st path;
    Hashtbl.remove st.channels path

  let ffile fs path =
    match Hashtbl.find_opt fs.files path with
    | Some f -> f
    | None ->
        let f = { durable = ""; pending = Buffer.create 256 } in
        Hashtbl.add fs.files path f;
        f

  let flip_one_bit fs data =
    let b = Bytes.of_string data in
    let i = Rng.int fs.rng ~bound:(Bytes.length b) in
    let bit = Rng.int fs.rng ~bound:8 in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    Bytes.to_string b

  let append t path data =
    match t with
    | File st -> (
        let oc =
          match Hashtbl.find_opt st.channels path with
          | Some (Open oc) -> Ok oc
          | Some (Failed msg) -> Error msg
          | None -> (
              match
                open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 (resolve st path)
              with
              | oc ->
                  Hashtbl.add st.channels path (Open oc);
                  Ok oc
              | exception Sys_error msg -> Error msg)
        in
        match oc with
        | Error _ as e -> e
        | Ok oc -> (
            match output_string oc data with
            | () -> Ok ()
            | exception Sys_error msg -> fail_channel st path oc msg))
    | Faulty fs ->
        if hit fs fs.faults.fail_write then begin
          fs.injected <- fs.injected + 1;
          Error "no space left on device (injected)"
        end
        else begin
          let data =
            if String.length data > 0 && hit fs fs.faults.bit_flip then begin
              fs.injected <- fs.injected + 1;
              flip_one_bit fs data
            end
            else data
          in
          Buffer.add_string (ffile fs path).pending data;
          Ok ()
        end

  let sync t path =
    match t with
    | File st -> (
        match Hashtbl.find_opt st.channels path with
        | Some (Open oc) -> (
            match flush oc with
            | () ->
                (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
                Ok ()
            | exception Sys_error msg -> fail_channel st path oc msg)
        | Some (Failed msg) -> Error msg
        | None -> Ok ())
    | Faulty fs ->
        (match Hashtbl.find_opt fs.files path with
        | None -> ()
        | Some f ->
            if hit fs fs.faults.drop_sync then fs.injected <- fs.injected + 1
            else begin
              f.durable <- f.durable ^ Buffer.contents f.pending;
              Buffer.clear f.pending
            end);
        Ok ()

  let read t path =
    match t with
    | File st -> (
        close_channel st path;
        match open_in_bin (resolve st path) with
        | exception Sys_error _ -> None
        | ic ->
            let n = in_channel_length ic in
            let s = really_input_string ic n in
            close_in ic;
            Some s)
    | Faulty fs -> (
        match Hashtbl.find_opt fs.files path with
        | None -> None
        | Some f ->
            let s = f.durable ^ Buffer.contents f.pending in
            if String.length s > 0 && hit fs fs.faults.short_read then begin
              fs.injected <- fs.injected + 1;
              Some (String.sub s 0 (Rng.int fs.rng ~bound:(String.length s)))
            end
            else Some s)

  (* The stored length of [path], 0 when it does not exist; unlike
     [read], never short. *)
  let size t path =
    match t with
    | File st -> (
        close_channel st path;
        match Unix.stat (resolve st path) with
        | { Unix.st_size; _ } -> st_size
        | exception Unix.Unix_error _ -> 0)
    | Faulty fs -> (
        match Hashtbl.find_opt fs.files path with
        | None -> 0
        | Some f -> String.length f.durable + Buffer.length f.pending)

  let write t path data =
    match t with
    | File st -> (
        forget_channel st path;
        let real = resolve st path in
        let tmp = real ^ ".tmp" in
        match open_out_bin tmp with
        | exception Sys_error msg -> Error msg
        | oc -> (
            match
              output_string oc data;
              flush oc;
              (try Unix.fsync (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> ());
              close_out oc;
              Sys.rename tmp real
            with
            | () -> Ok ()
            | exception Sys_error msg ->
                close_out_noerr oc;
                Error msg))
    | Faulty fs ->
        (* tmp + rename is crash-atomic by construction; the model keeps
           the replacement atomic and durable (the journal's vulnerable
           path is the append stream). *)
        let f = ffile fs path in
        f.durable <- data;
        Buffer.clear f.pending;
        Ok ()

  let exists t path =
    match t with
    | File st -> Sys.file_exists (resolve st path)
    | Faulty fs -> Hashtbl.mem fs.files path

  let remove t path =
    match t with
    | File st ->
        forget_channel st path;
        if Sys.file_exists (resolve st path) then Sys.remove (resolve st path)
    | Faulty fs -> Hashtbl.remove fs.files path

  let rename t src dst =
    match t with
    | File st ->
        close_channel st src;
        close_channel st dst;
        if Sys.file_exists (resolve st src) then Sys.rename (resolve st src) (resolve st dst)
    | Faulty fs -> (
        match Hashtbl.find_opt fs.files src with
        | None -> ()
        | Some f ->
            Hashtbl.remove fs.files src;
            Hashtbl.replace fs.files dst f)

  let crash t =
    match t with
    | File _ -> ()
    | Faulty fs ->
        Hashtbl.iter
          (fun _ f ->
            let tail = Buffer.contents f.pending in
            Buffer.clear f.pending;
            let n = String.length tail in
            if n > 0 && hit fs fs.faults.torn_write then begin
              (* a prefix of the unsynced tail reached the medium, cut at
                 an arbitrary byte offset: the torn write recovery must
                 detect and truncate *)
              fs.injected <- fs.injected + 1;
              f.durable <- f.durable ^ String.sub tail 0 (1 + Rng.int fs.rng ~bound:n)
            end)
          fs.files
end

(* ------------------------------------------------------------------ *)
(* The journal                                                         *)
(* ------------------------------------------------------------------ *)

type config = { max_segment_bytes : int; sync_every : int }

let default_config = { max_segment_bytes = 1 lsl 20; sync_every = 1 }

(* rotated segments kept *)
let retain = 3

type meters = {
  m_appends : Lla_obs.Metrics.counter;
  m_bytes : Lla_obs.Metrics.counter;
  m_syncs : Lla_obs.Metrics.counter;
  m_rotations : Lla_obs.Metrics.counter;
  m_wedged : Lla_obs.Metrics.counter;
}

type t = {
  store : Store.t;
  config : config;
  name : string;
  mutable seg_bytes : int;
  mutable since_sync : int;
  mutable wedged : bool;
  mutable appends : int;
  mutable bytes_written : int;
  mutable rotations : int;
  meters : meters option;
}

let mk_meters (obs : Lla_obs.t) =
  let c name help = Lla_obs.Metrics.counter obs.Lla_obs.metrics name ~help in
  {
    m_appends = c "lla_journal_appends_total" "Records appended to the write-ahead journal.";
    m_bytes = c "lla_journal_bytes_total" "Encoded bytes appended to journal segments.";
    m_syncs = c "lla_journal_syncs_total" "Sync barriers issued on the active segment.";
    m_rotations = c "lla_journal_rotations_total" "Active-segment rotations at the size cap.";
    m_wedged = c "lla_journal_wedged_total" "Write failures that wedged the journal.";
  }

let active_name name = name ^ ".wal"

let seg_name name k = Printf.sprintf "%s.wal.%d" name k

let name = "journal"

let create ?obs ?(config = default_config) store =
  if config.max_segment_bytes <= 0 then invalid_arg "Journal.create: non-positive segment cap";
  if config.sync_every < 1 then invalid_arg "Journal.create: sync_every < 1";
  {
    store;
    config;
    name;
    seg_bytes = Store.size store (active_name name);
    since_sync = 0;
    wedged = false;
    appends = 0;
    bytes_written = 0;
    rotations = 0;
    meters = Option.map mk_meters obs;
  }

let active_path t = active_name t.name

let meter t f = match t.meters with Some m -> Lla_obs.Metrics.incr (f m) | None -> ()

let meter_add t f n = match t.meters with Some m -> Lla_obs.Metrics.add (f m) n | None -> ()

(* Degrade to cold-restart recovery, never crash the control plane over
   a full disk. *)
let wedge t =
  if not t.wedged then begin
    t.wedged <- true;
    meter t (fun m -> m.m_wedged)
  end

let sync t =
  match Store.sync t.store (active_path t) with
  | Ok () ->
      t.since_sync <- 0;
      meter t (fun m -> m.m_syncs)
  | Error _ -> wedge t

(* The Rotate shifting idiom: drop the oldest, shift .k -> .(k+1), move
   the active segment to .1, start a fresh active segment. *)
let rotate t =
  sync t;
  Store.remove t.store (seg_name t.name retain);
  for k = retain - 1 downto 1 do
    Store.rename t.store (seg_name t.name k) (seg_name t.name (k + 1))
  done;
  Store.rename t.store (active_path t) (seg_name t.name 1);
  t.seg_bytes <- 0;
  t.rotations <- t.rotations + 1;
  meter t (fun m -> m.m_rotations)

let append t payload =
  if not t.wedged then begin
    let framed = encode_record payload in
    if t.seg_bytes > 0 && t.seg_bytes + String.length framed > t.config.max_segment_bytes then
      rotate t;
    if not t.wedged then
      match Store.append t.store (active_path t) framed with
      | Error _ -> wedge t
      | Ok () ->
          t.since_sync <- t.since_sync + 1;
          if t.since_sync >= t.config.sync_every then sync t;
          if not t.wedged then begin
            t.seg_bytes <- t.seg_bytes + String.length framed;
            t.appends <- t.appends + 1;
            t.bytes_written <- t.bytes_written + String.length framed;
            meter t (fun m -> m.m_appends);
            meter_add t (fun m -> m.m_bytes) (String.length framed)
          end
  end

let truncate_active t contents good_bytes =
  let cut = good_bytes < String.length contents in
  let ok =
    (not cut)
    ||
    match Store.write t.store (active_path t) (String.sub contents 0 good_bytes) with
    | Ok () -> true
    | Error _ ->
        wedge t;
        false
  in
  (* rotation reads this count: it must match what the store holds, not
     what was appended before a crash or a cut dropped the tail, nor
     what a short read returned *)
  t.seg_bytes <- Store.size t.store (active_path t);
  cut && ok

let wedged t = t.wedged

let appends t = t.appends

let bytes_written t = t.bytes_written

let rotations t = t.rotations

let store t = t.store

let segment_paths t =
  let candidates =
    List.init retain (fun i -> seg_name t.name (retain - i)) @ [ active_path t ]
  in
  List.filter (Store.exists t.store) candidates
