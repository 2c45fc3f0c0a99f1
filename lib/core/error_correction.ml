type t = {
  percentile : float;
  window : Lla_stdx.Percentile.Window.t;
  error : Lla_stdx.Ewma.t;
  obs : Lla_obs.t option;
  name : string;
  mutable rounds : int;
  mutable skipped : int;
}

let create ?obs ?(name = "corrector") ?(percentile = 95.) () =
  if percentile <= 0. || percentile > 100. then
    invalid_arg "Error_correction.create: percentile outside (0, 100]";
  {
    percentile;
    window = Lla_stdx.Percentile.Window.create ~capacity:256;
    error = Lla_stdx.Ewma.create ~alpha:0.3;
    obs;
    name;
    rounds = 0;
    skipped = 0;
  }

(* A single NaN measurement admitted to the window would make every
   subsequent percentile NaN and poison the EWMA offset forever (the
   smoothing never forgets a NaN). Skip and count instead. *)
let observe ?(at = 0.) t ~measured_latency =
  if Float.is_finite measured_latency then
    Lla_stdx.Percentile.Window.add t.window measured_latency
  else begin
    t.skipped <- t.skipped + 1;
    Lla_obs.emit_opt t.obs ~at (Lla_obs.Trace.Guard_fired { site = t.name ^ ".observe" })
  end

let sample_count t = Lla_stdx.Percentile.Window.count t.window

let skipped_samples t = t.skipped

let offset t = Lla_stdx.Ewma.value t.error

let corrections t = t.rounds

let correct ?(at = 0.) t ~predicted =
  if not (Float.is_finite predicted) then begin
    (* A poisoned prediction would corrupt the smoothed error exactly like
       a poisoned measurement; skip the round, keep the window. *)
    t.skipped <- t.skipped + 1;
    Lla_obs.emit_opt t.obs ~at (Lla_obs.Trace.Guard_fired { site = t.name ^ ".correct" });
    None
  end
  else begin
    match Lla_stdx.Percentile.Window.percentile t.window ~p:t.percentile with
    | None -> None
    | Some measured ->
      Lla_stdx.Ewma.add t.error (measured -. predicted);
      Lla_stdx.Percentile.Window.clear t.window;
      t.rounds <- t.rounds + 1;
      let offset = Lla_stdx.Ewma.value t.error in
      Lla_obs.emit_opt t.obs ~at
        (Lla_obs.Trace.Correction_applied { subtask = t.name; offset });
      Some offset
  end
