let default_tolerance = 0.015

let settling_time ?(tolerance = default_tolerance) ~target series =
  if series = [] || not (Float.is_finite target) then None
  else begin
    let arr = Array.of_list series in
    let n = Array.length arr in
    let scale = Float.max (Float.abs target) 1e-12 in
    let within (_, v) = Float.is_finite v && Float.abs (v -. target) <= tolerance *. scale in
    (* Earliest index whose entire suffix stays inside the band (the
       Fig. 5 "settled" criterion: entering the band doesn't count if
       the trajectory leaves it again). *)
    let start = ref n in
    (try
       for i = n - 1 downto 0 do
         if within arr.(i) then start := i else raise Exit
       done
     with Exit -> ());
    if !start >= n then None else Some (fst arr.(!start))
  end

type oscillation = { amplitude : float; period : float option }

let tail_half l =
  let n = List.length l in
  List.filteri (fun i _ -> i >= n / 2) l

let oscillation series =
  match tail_half series with
  | [] | [ _ ] -> None
  | tail ->
    let vs = List.map snd tail in
    let finite = List.filter Float.is_finite vs in
    if finite = [] then None
    else begin
      let lo = List.fold_left Float.min infinity finite in
      let hi = List.fold_left Float.max neg_infinity finite in
      let amplitude = (hi -. lo) /. 2. in
      (* Period from successive local maxima of the tail. *)
      let arr = Array.of_list tail in
      let maxima = ref [] in
      for i = 1 to Array.length arr - 2 do
        let v p = snd arr.(p) in
        if v i > v (i - 1) && v i >= v (i + 1) then maxima := fst arr.(i) :: !maxima
      done;
      let period =
        match List.rev !maxima with
        | first :: (_ :: _ as rest) ->
          let last = List.nth rest (List.length rest - 1) in
          Some ((last -. first) /. float_of_int (List.length rest))
        | _ -> None
      in
      Some { amplitude; period }
    end

let dispersion series =
  match List.map snd (tail_half series) with
  | [] -> 0.
  | vs ->
    let n = float_of_int (List.length vs) in
    let mean = List.fold_left ( +. ) 0. vs /. n in
    let var = List.fold_left (fun acc v -> acc +. ((v -. mean) ** 2.)) 0. vs /. n in
    sqrt var

let episodes series =
  let out = ref [] in
  let current = ref None in
  List.iter
    (fun (at, v) ->
      if v > 1. then
        match !current with
        | None -> current := Some (at, at)
        | Some (s, _) -> current := Some (s, at)
      else
        match !current with
        | None -> ()
        | Some ep ->
          out := ep :: !out;
          current := None)
    series;
  (match !current with None -> () | Some ep -> out := ep :: !out);
  List.rev !out

type latency = { count : int; mean : float; p50 : float; p90 : float; p99 : float; max : float }

let latency_of_samples samples =
  match samples with
  | [] -> None
  | _ ->
    (* Route the raw samples through a Metrics histogram so the offline
       view quotes the same bucket-interpolated quantiles the online
       [lla_control_latency_ms] histogram exposes. *)
    let reg = Metrics.create () in
    let h = Metrics.histogram reg "analyze_latency_ms" in
    List.iter (Metrics.observe h) samples;
    let pct q = Option.value ~default:nan (Metrics.quantile h ~q) in
    Some
      {
        count = List.length samples;
        mean = List.fold_left ( +. ) 0. samples /. float_of_int (List.length samples);
        p50 = pct 0.5;
        p90 = pct 0.9;
        p99 = pct 0.99;
        max = List.fold_left Float.max neg_infinity samples;
      }

type resource_report = {
  resource : int;
  final_price : float;
  price_dispersion : float;
  overload : (float * float) list;
}

type report = {
  records : int;
  span_count : int;
  tolerance : float;
  optimum : float option;
  final_utility : float option;
  settling : float option;
  utility_oscillation : oscillation option;
  resources : resource_report list;
  control_latency : latency option;
}

let analyze ?(tolerance = default_tolerance) ?optimum records =
  let utility = Series.utility records in
  let final_utility = match List.rev utility with (_, v) :: _ -> Some v | [] -> None in
  let target = match optimum with Some o -> Some o | None -> final_utility in
  let settling =
    match target with Some t -> settling_time ~tolerance ~target:t utility | None -> None
  in
  let prices = Series.prices records in
  let congestion = Series.congestion records in
  let resources =
    List.map
      (fun (resource, series) ->
        let final_price = match List.rev series with (_, v) :: _ -> v | [] -> nan in
        let overload =
          match List.assoc_opt resource congestion with
          | Some c -> episodes c
          | None -> []
        in
        { resource; final_price; price_dispersion = dispersion series; overload })
      prices
  in
  {
    records = List.length records;
    span_count = List.length (Causal.spans records);
    tolerance;
    optimum;
    final_utility;
    settling;
    utility_oscillation = oscillation utility;
    resources;
    control_latency = latency_of_samples (Causal.control_latencies records);
  }

let render r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "records: %d (spans: %d)" r.records r.span_count;
  (match r.final_utility with
  | Some u -> line "final utility: %.6f" u
  | None -> line "final utility: n/a (no utility events)");
  (match (r.optimum, r.final_utility) with
  | Some opt, Some u ->
    line "offline optimum: %.6f (gap %.3f%%)" opt (Float.abs (u -. opt) /. Float.abs opt *. 100.)
  | _ -> ());
  (match r.settling with
  | Some t -> line "settling time: %.3f (to within %.1f%% of %s)" t (r.tolerance *. 100.)
       (match r.optimum with Some _ -> "optimum" | None -> "final value")
  | None -> line "settling time: not settled within %.1f%% band" (r.tolerance *. 100.));
  (match r.utility_oscillation with
  | Some { amplitude; period } ->
    line "utility oscillation: amplitude %.6f%s" amplitude
      (match period with Some p -> Printf.sprintf ", period %.3f" p | None -> "")
  | None -> ());
  List.iter
    (fun res ->
      line "resource %d: final mu=%.6f dispersion=%.6f overload episodes=%d%s" res.resource
        res.final_price res.price_dispersion (List.length res.overload)
        (match res.overload with
        | [] -> ""
        | eps ->
          let total = List.fold_left (fun acc (s, e) -> acc +. (e -. s)) 0. eps in
          Printf.sprintf " (%.3f time units overloaded)" total))
    r.resources;
  (match r.control_latency with
  | Some l ->
    line "control latency (price -> applied allocation): count=%d mean=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
      l.count l.mean l.p50 l.p90 l.p99 l.max
  | None -> line "control latency: no causal spans in stream");
  Buffer.contents buf
