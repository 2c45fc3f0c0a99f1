type spec =
  | Linear_spec of { k : float }
  | Negative_spec
  | Logarithmic_spec of { k : float; weight : float }
  | Soft_deadline_spec of { sharpness : float; scale : float }
  | Quadratic_spec of { weight : float }
  | Constant_spec of { value : float }

type t = {
  name : string;
  f : float -> float;
  df : float -> float;
  spec : spec option;
}

type variant =
  | Sum
  | Path_weighted

let variant_to_string = function Sum -> "sum" | Path_weighted -> "path-weighted"

(* The C conversion behind Printf's %f: the same bytes without
   interpreting a format, which the generator pays once per task. *)
external format_float : string -> float -> string = "caml_format_float"

let linear ~k ~critical_time =
  if k < 1. then invalid_arg "Utility.linear: k < 1";
  if critical_time <= 0. then invalid_arg "Utility.linear: critical_time <= 0";
  {
    name =
      String.concat ""
        [ "linear(k="; format_float "%.1f" k; ", C="; format_float "%.0f" critical_time; ")" ];
    f = (fun x -> (k *. critical_time) -. x);
    df = (fun _ -> -1.);
    spec = Some (Linear_spec { k });
  }

let negative_latency () =
  { name = "-latency"; f = (fun x -> -.x); df = (fun _ -> -1.); spec = Some Negative_spec }

let logarithmic ?(weight = 1.) ~k ~critical_time () =
  if k <= 1. then invalid_arg "Utility.logarithmic: k <= 1";
  if weight <= 0. then invalid_arg "Utility.logarithmic: weight <= 0";
  if critical_time <= 0. then invalid_arg "Utility.logarithmic: critical_time <= 0";
  let ceiling = k *. critical_time in
  (* Guard the singularity at x = k*C: clamp the argument of log away from
     zero so the solver can evaluate tentative over-budget latencies. *)
  let margin = 1e-9 *. ceiling in
  {
    name = Printf.sprintf "log(k=%.1f, C=%.0f)" k critical_time;
    f = (fun x -> weight *. log (Float.max margin (ceiling -. x)));
    df = (fun x -> -.weight /. Float.max margin (ceiling -. x));
    spec = Some (Logarithmic_spec { k; weight });
  }

let soft_deadline ?(scale = 1.) ~sharpness ~critical_time () =
  if sharpness <= 0. then invalid_arg "Utility.soft_deadline: sharpness <= 0";
  if scale <= 0. then invalid_arg "Utility.soft_deadline: scale <= 0";
  if critical_time <= 0. then invalid_arg "Utility.soft_deadline: critical_time <= 0";
  {
    name = Printf.sprintf "soft-deadline(C=%.0f, tau=%.1f)" critical_time sharpness;
    f = (fun x -> scale *. (1. -. exp ((x -. critical_time) /. sharpness)));
    df = (fun x -> -.scale /. sharpness *. exp ((x -. critical_time) /. sharpness));
    spec = Some (Soft_deadline_spec { sharpness; scale });
  }

let quadratic ?(weight = 1.) () =
  if weight <= 0. then invalid_arg "Utility.quadratic: weight <= 0";
  {
    name = Printf.sprintf "quadratic(w=%g)" weight;
    f = (fun x -> -.weight *. x *. x);
    df = (fun x -> -2. *. weight *. x);
    spec = Some (Quadratic_spec { weight });
  }

let constant ~value =
  { name = "constant"; f = (fun _ -> value); df = (fun _ -> 0.); spec = Some (Constant_spec { value }) }

let custom ~name ~f ~df = { name; f; df; spec = None }

let check_concave_decreasing t ~lo ~hi ~samples =
  if samples < 3 then invalid_arg "Utility.check_concave_decreasing: samples < 3";
  if not (lo < hi) then invalid_arg "Utility.check_concave_decreasing: lo >= hi";
  let step = (hi -. lo) /. float_of_int (samples - 1) in
  let point i = lo +. (step *. float_of_int i) in
  let failure = ref None in
  let record msg = if !failure = None then failure := Some msg in
  for i = 0 to samples - 2 do
    let x = point i and x' = point (i + 1) in
    (* Non-increasing. *)
    if t.f x' > t.f x +. 1e-9 *. Float.max 1. (Float.abs (t.f x)) then
      record (Printf.sprintf "%s: f increases between %g and %g" t.name x x');
    (* Midpoint concavity: f((x+x')/2) >= (f x + f x') / 2. *)
    let mid = 0.5 *. (x +. x') in
    let chord = 0.5 *. (t.f x +. t.f x') in
    if t.f mid < chord -. 1e-9 *. Float.max 1. (Float.abs chord) then
      record (Printf.sprintf "%s: f not concave near %g" t.name mid);
    (* df consistent with a finite difference. *)
    let numeric = Lla_numeric.Solve.derivative t.f mid in
    let analytic = t.df mid in
    let scale = Float.max 1e-6 (Float.max (Float.abs numeric) (Float.abs analytic)) in
    if Float.abs (numeric -. analytic) /. scale > 1e-3 then
      record
        (Printf.sprintf "%s: df(%g)=%g disagrees with finite difference %g" t.name mid analytic
           numeric)
  done;
  match !failure with None -> Ok () | Some msg -> Error msg
