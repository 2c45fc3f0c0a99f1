(* A number as measured, all its digits; JSON has no NaN or infinity. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Report.number: non-finite metric";
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_line ~correct ~(tally : Stats.tally) metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit)
      metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    tally.attempted tally.failed (String.concat ", " fields)

(* Pick [spec]'s metrics out of [values], in [spec] order; a missing
   value is a bug in the workload, not a zero. *)
let select spec values =
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> (name, unit, v)
      | None -> failwith (Printf.sprintf "metric %s was not measured" name))
    spec

(* A tick percentile in microseconds from per-operation wall seconds:
   the median over parts of each part's percentile. *)
let tick_us walls ~p =
  match Stats.part_percentiles (Array.map (fun w -> w *. 1e6) walls) ~p with
  | Ok vs -> Stats.median vs
  | Error e -> failwith (Printf.sprintf "p%g of %d samples: %s" p (Array.length walls) e)

(* The parts' p50s and their quartile spread: how far the host moved
   during this run. *)
let parts_line walls =
  match Stats.part_percentiles (Array.map (fun w -> w *. 1e6) walls) ~p:50. with
  | Ok vs when Array.length vs >= 2 ->
      Printf.sprintf "tick p50 by part: %s us; quartile spread %.3f of their median"
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.1f") vs)))
        (Stats.iqr_share vs)
  | _ -> "tick p50 by part: a single part"

(* Work per second: the median over parts of each part's rate. *)
let rate walls ~per_sample =
  match Stats.part_rates walls ~per_sample with
  | Ok vs -> Stats.median vs
  | Error e -> failwith e

(* What one pass of a workload hands back. [e2e] and [counts] are keyed
   by the names in [Spec]; [exact] holds the values that must repeat
   bit-for-bit between an untraced and a traced pass of one seed. *)
type pass = {
  e2e : (string * float) list;
  counts : (string * float) list;
  tally : Stats.tally;
  gates : string list;  (** correctness gates that failed *)
  ops : int;  (** operations the per-op ratios divide by *)
  gc : Probe.gc_delta;  (** over the measured phases *)
  exact : (string * float) list;
  summary : string list;  (** human-readable lines *)
}

let add_gc (a : Probe.gc_delta) (b : Probe.gc_delta) =
  {
    Probe.minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
  }

let sub_gc (a : Probe.gc_delta) (b : Probe.gc_delta) =
  {
    Probe.minor_words = a.minor_words -. b.minor_words;
    promoted_words = a.promoted_words -. b.promoted_words;
    minor_gcs = a.minor_gcs - b.minor_gcs;
    major_gcs = a.major_gcs - b.major_gcs;
  }

let no_gc = { Probe.minor_words = 0.; promoted_words = 0.; minor_gcs = 0; major_gcs = 0 }
