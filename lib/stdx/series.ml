type t = {
  mutable xs : float array;
  mutable ys : float array;
  mutable len : int;
}

let create () = { xs = [||]; ys = [||]; len = 0 }

let grow t =
  let cap = Array.length t.xs in
  if t.len = cap then begin
    let cap' = if cap = 0 then 64 else 2 * cap in
    let xs' = Array.make cap' 0. and ys' = Array.make cap' 0. in
    Array.blit t.xs 0 xs' 0 t.len;
    Array.blit t.ys 0 ys' 0 t.len;
    t.xs <- xs';
    t.ys <- ys'
  end

let add t ~x ~y =
  grow t;
  t.xs.(t.len) <- x;
  t.ys.(t.len) <- y;
  t.len <- t.len + 1

let length t = t.len

let last t = if t.len = 0 then None else Some (t.xs.(t.len - 1), t.ys.(t.len - 1))

let iter t f =
  for i = 0 to t.len - 1 do
    f t.xs.(i) t.ys.(i)
  done

let to_arrays t = (Array.sub t.xs 0 t.len, Array.sub t.ys 0 t.len)

let ys t = Array.sub t.ys 0 t.len

let downsample t ~max_points =
  if max_points <= 0 then invalid_arg "Series.downsample: max_points <= 0";
  if t.len = 0 then []
  else if t.len <= max_points then List.init t.len (fun i -> (t.xs.(i), t.ys.(i)))
  else begin
    let stride = float_of_int (t.len - 1) /. float_of_int (max_points - 1) in
    List.init max_points (fun i ->
        let j = int_of_float (Float.round (float_of_int i *. stride)) in
        let j = Stdlib.min j (t.len - 1) in
        (t.xs.(j), t.ys.(j)))
  end

let y_stats_from t ~from =
  let stats = Stats.create () in
  for i = Stdlib.max 0 from to t.len - 1 do
    Stats.add stats t.ys.(i)
  done;
  Stats.summary stats

let converged_at t ~tolerance ~window =
  if window <= 0 then invalid_arg "Series.converged_at: window <= 0";
  if t.len < window then None
  else begin
    (* Scan backwards: find the longest suffix over which every
       [window]-sized span keeps its relative spread under tolerance. *)
    let spread_ok from until =
      let mn = ref infinity and mx = ref neg_infinity and sum = ref 0. in
      for i = from to until do
        let y = t.ys.(i) in
        if y < !mn then mn := y;
        if y > !mx then mx := y;
        sum := !sum +. y
      done;
      let mean = !sum /. float_of_int (until - from + 1) in
      (!mx -. !mn) /. Float.max 1. (Float.abs mean) < tolerance
    in
    let rec scan i best =
      if i < 0 then best
      else begin
        let until = Stdlib.min (i + window - 1) (t.len - 1) in
        if spread_ok i until then scan (i - 1) (Some i) else best
      end
    in
    scan (t.len - window) None
  end
