type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
  mutable sum : float;
}

let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity; sum = 0. }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean));
  if x < t.min then t.min <- x;
  if x > t.max then t.max <- x;
  t.sum <- t.sum +. x

let mean t = if t.n = 0 then 0. else t.mean

let variance t = if t.n < 2 then 0. else t.m2 /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)

let max t = t.max

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  sum : float;
}

let summary t =
  let sample_mean = mean t and sample_stddev = stddev t in
  {
    n = t.n;
    mean = sample_mean;
    stddev = sample_stddev;
    min = t.min;
    max = t.max;
    sum = t.sum;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4g sd=%.4g min=%.4g max=%.4g" s.n s.mean s.stddev s.min s.max
