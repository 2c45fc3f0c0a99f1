exception No_bracket of string

let check_bracket name flo fhi =
  if flo *. fhi > 0. then
    raise
      (No_bracket (Printf.sprintf "%s: f(lo)=%g and f(hi)=%g have the same sign" name flo fhi))

let bisect ~lo ~hi f =
  let flo = f lo and fhi = f hi in
  if flo = 0. then lo
  else if fhi = 0. then hi
  else begin
    check_bracket "Solve.bisect" flo fhi;
    let rec loop lo hi flo iterations =
      let mid = 0.5 *. (lo +. hi) in
      if hi -. lo < 1e-10 || iterations = 0 then mid
      else begin
        let fmid = f mid in
        if fmid = 0. then mid
        else if flo *. fmid < 0. then loop lo mid flo (iterations - 1)
        else loop mid hi fmid (iterations - 1)
      end
    in
    loop lo hi flo 200
  end

let derivative f x =
  let h = 1e-6 *. Float.max 1. (Float.abs x) in
  (f (x +. h) -. f (x -. h)) /. (2. *. h)

let clamp ~lo ~hi x =
  if not (lo <= hi) then invalid_arg "Solve.clamp: lo > hi";
  Float.min hi (Float.max lo x)
