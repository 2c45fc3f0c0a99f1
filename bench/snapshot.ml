(* BENCH_<name>.json snapshots: the one writer the snapshot benches
   share, the gate they report to, and the judge that holds a fresh run
   to the committed history ([main.exe compare]).

   A snapshot is the stamp (name, engine, domains, ocaml, cores, seed),
   the bench's fields, and a "judge" member naming each key not judged
   exact: "info" (never compared), "compiler" (a different value skips
   the file, since code generator and float library may both move) or
   {"perf": band} (within a factor of [band], judged only when the
   "cores" stamps match). Any change of an exact key (a seed, a count, a
   convergence tick, a final utility) is a behaviour change. *)

module J = Lla_obs.Jsonl

type judge = Exact | Perf of float | Info | Compiler

type field = { key : string; token : string; judge : judge }

let int ?(judge = Exact) key v = { key; token = string_of_int v; judge }

let num ?(judge = Exact) key fmt v = { key; token = Printf.sprintf fmt v; judge }

let str ?(judge = Exact) key s = { key; token = Printf.sprintf "%S" s; judge }

let bool key b = { key; token = string_of_bool b; judge = Exact }

(* The stamp key the judge compares to tell one host from another. *)
let host_key = "cores"

let judge_json = function
  | Exact -> "\"exact\""
  | Info -> "\"info\""
  | Compiler -> "\"compiler\""
  | Perf band -> Printf.sprintf "{\"perf\": %g}" band

let render fields =
  let judged =
    List.filter_map
      (fun f ->
        if f.judge = Exact then None
        else Some (Printf.sprintf "    %S: %s" f.key (judge_json f.judge)))
      fields
  in
  let members = List.map (fun f -> Printf.sprintf "  %S: %s" f.key f.token) fields in
  Printf.sprintf "{\n%s,\n  \"judge\": {\n%s\n  }\n}\n" (String.concat ",\n" members)
    (String.concat ",\n" judged)

(* Writes BENCH_<name>.json under [dir] (nothing without one): the stamp,
   then [fields]. *)
let write ~dir ~name ?engine ?domains ~seed fields =
  match dir with
  | None -> ()
  | Some dir ->
    let stamp =
      List.filter_map Fun.id
        [
          Some (str "name" name);
          Option.map (str "engine") engine;
          Option.map (int ~judge:Info "domains") domains;
          Some (str ~judge:Compiler "ocaml" Sys.ocaml_version);
          Some (int ~judge:Info host_key (Domain.recommended_domain_count ()));
          Some (int "seed" seed);
        ]
    in
    let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
    Out_channel.with_open_bin path (fun oc -> output_string oc (render (stamp @ fields)));
    Printf.printf "  snapshot written to %s\n" path

(* ------------------------------------------------------------------ *)
(* Gate                                                                *)
(* ------------------------------------------------------------------ *)

(* A bench's acceptance checks: each failure prints a FAIL line, and
   [finish] exits 1 after any of them, or prints PASS when asked. *)
type gate = { mutable failed : bool }

let gate () = { failed = false }

let fail g fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "  FAIL: %s\n" msg;
      g.failed <- true)
    fmt

(* A failure the bench cannot continue past. *)
let abort fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.printf "  FAIL: %s\n" msg;
      exit 1)
    fmt

let finish g ~pass =
  if g.failed then exit 1;
  if pass then print_string "  PASS\n"

(* ------------------------------------------------------------------ *)
(* Judge                                                               *)
(* ------------------------------------------------------------------ *)

(* A snapshot as the judge reads it: each key with its value and its
   declared judge. *)
let read path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok (J.Obj members) -> (
    let declared = match List.assoc_opt "judge" members with Some (J.Obj js) -> js | _ -> [] in
    let judge k =
      match List.assoc_opt k declared with
      | None -> Exact
      | Some (J.Str "info") -> Info
      | Some (J.Str "compiler") -> Compiler
      | Some (J.Obj [ ("perf", J.Num band) ]) -> Perf band
      | Some _ -> failwith (Printf.sprintf "bad judge for %S" k)
    in
    match List.map (fun (k, v) -> (k, (v, judge k))) (List.remove_assoc "judge" members) with
    | snapshot -> Ok snapshot
    | exception Failure e -> Error e)
  | Ok _ -> Error "not a JSON object"
  | Error e -> Error e

(* A value for a verdict line: strings unquoted, numbers in the fewest
   digits that read back to the same float. *)
let show = function
  | J.Str s -> s
  | J.Num x when Float.is_integer x -> Printf.sprintf "%.0f" x
  | J.Num x ->
    let rec go p =
      let s = Printf.sprintf "%.*g" p x in
      if p >= 17 || float_of_string s = x then s else go (p + 1)
    in
    go 1
  | v -> J.to_string v

(* One file's verdict, printed through [out]; [true] when it failed. *)
let judge_file ~out name ~base ~fresh =
  let line fmt = Printf.ksprintf out fmt in
  let value snap k = Option.map fst (List.assoc_opt k snap) in
  let compiler_moved (k, (v, judge)) =
    judge = Compiler
    && match List.assoc_opt k fresh with Some (f, Compiler) -> compare v f <> 0 | _ -> false
  in
  match List.find_opt compiler_moved base with
  | Some (k, (v, _)) ->
    line "  skip  %s: compiler differs (%s vs %s)" name (show v)
      (show (fst (List.assoc k fresh)));
    false
  | None ->
    let host snap = Option.fold ~none:"-" ~some:show (value snap host_key) in
    let same_host = value base host_key <> None && host base = host fresh in
    let fails = ref 0 and skipped = ref [] in
    let fail fmt =
      incr fails;
      line ("  FAIL  %s: " ^^ fmt) name
    in
    let magnitude = function J.Num x -> Float.abs x | _ -> 0. in
    List.iter
      (fun (k, (b, judge)) ->
        match List.assoc_opt k fresh with
        | None -> if judge <> Info && judge <> Compiler then fail "key %S missing from fresh run" k
        | Some (_, judge') when judge' <> judge ->
          fail "key %S judged %s, committed snapshot says %s (regenerate it)" k (judge_json judge')
            (judge_json judge)
        | Some (f, _) -> (
          match judge with
          | Info | Compiler -> ()
          | Exact ->
            if compare b f <> 0 then fail "%s = %s, committed snapshot has %s" k (show f) (show b)
          | Perf band ->
            let lo = Float.min (magnitude b) (magnitude f)
            and hi = Float.max (magnitude b) (magnitude f) in
            if not same_host then skipped := k :: !skipped
              (* zero against zero is fine; zero against tiny is below
                 measurement noise *)
            else if hi > 1e-6 && (lo <= 0. || hi /. lo > band) then
              fail "%s = %s drifted beyond %.0fx of committed %s" k (show f) band (show b)))
      base;
    List.iter
      (fun (k, (_, judge)) ->
        if judge <> Info && not (List.mem_assoc k base) then
          fail "new key %S absent from committed snapshot (regenerate it)" k)
      fresh;
    if !skipped <> [] then
      line "  note  %s: cores differ (%s vs %s), perf keys skipped: %s" name (host base)
        (host fresh)
        (String.concat ", " (List.rev !skipped));
    if !fails = 0 then line "  ok    %s" name;
    !fails > 0

(* Judges every BENCH_*.json in [base] that [fresh] also holds, one
   verdict per file through [out]: [Ok true] when all passed, [Ok false]
   when one failed, [Error] when [fresh] is missing or no snapshot is
   common to both. *)
let compare_dirs ~out ~fresh ~base =
  let snapshots dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      List.filter
        (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
        (List.sort compare (Array.to_list (Sys.readdir dir)))
    else []
  in
  if not (Sys.file_exists fresh && Sys.is_directory fresh) then
    Error (Printf.sprintf "fresh directory '%s' does not exist" fresh)
  else
    let judged =
      List.filter_map
        (fun name ->
          if not (Sys.file_exists (Filename.concat fresh name)) then begin
            out (Printf.sprintf "  skip  %s: no fresh run in %s" name fresh);
            None
          end
          else
            match (read (Filename.concat base name), read (Filename.concat fresh name)) with
            | Ok base, Ok fresh -> Some (judge_file ~out name ~base ~fresh)
            | Error e, _ | _, Error e ->
              out (Printf.sprintf "  FAIL  %s: unreadable snapshot (%s)" name e);
              Some true)
        (snapshots base)
    in
    if judged = [] then Error "no committed BENCH_*.json had a fresh counterpart"
    else Ok (not (List.mem true judged))
