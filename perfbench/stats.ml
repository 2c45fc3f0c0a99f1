let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: no samples";
  let s = sorted xs in
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let quartiles xs =
  let n = Array.length xs in
  if n < 2 then invalid_arg "Stats.quartiles: fewer than two samples";
  let s = sorted xs in
  (* Python's exclusive method, integer arithmetic included: the
     position k (n + 1) / 4 splits into j and delta / 4, with j clamped
     to [1, n - 1] *)
  let at k =
    let j = max 1 (min (n - 1) (k * (n + 1) / 4)) in
    let delta = (k * (n + 1)) - (j * 4) in
    ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.
  in
  (at 1, at 2, at 3)

let iqr_share xs =
  let q1, m, q3 = quartiles xs in
  if m = 0. then infinity else (q3 -. q1) /. Float.abs m

let min_beyond = 10

let percentile xs ~p =
  let n = Array.length xs in
  if not (p > 0. && p < 100.) then invalid_arg "Stats.percentile: p outside (0, 100)";
  let rank = int_of_float (Float.ceil (p *. float_of_int n /. 100.)) in
  let beyond = n - rank in
  if rank < 1 || beyond < min_beyond then
    Error
      (Printf.sprintf "p%g over %d samples leaves %d beyond it (need %d)" p n (max 0 beyond)
         min_beyond)
  else Ok (sorted xs).(rank - 1)

let part_size = 1000

let max_parts = 5

let parts n =
  let k = max 1 (min max_parts (n / part_size)) in
  List.init k (fun i ->
      let lo = i * n / k in
      (lo, ((i + 1) * n / k) - lo))

let part_percentiles xs ~p =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | (lo, len) :: rest -> (
        match percentile (Array.sub xs lo len) ~p with
        | Ok v -> go (v :: acc) rest
        | Error e -> Error e)
  in
  go [] (parts (Array.length xs))

let part_rates walls ~per_sample =
  let n = Array.length walls in
  if n < part_size then Error (Printf.sprintf "%d samples, need %d for a rate" n part_size)
  else
    Ok
      (Array.of_list
         (List.map
            (fun (lo, len) ->
              let work = ref 0. and wall = ref 0. in
              for i = lo to lo + len - 1 do
                work := !work +. per_sample i;
                wall := !wall +. walls.(i)
              done;
              !work /. !wall)
            (parts n)))

type tally = { attempted : int; failed : int }

let tally () = { attempted = 0; failed = 0 }

let record t ~ok = { attempted = t.attempted + 1; failed = (t.failed + if ok then 0 else 1) }

let failed_share t =
  if t.attempted <= 0 then invalid_arg "Stats.failed_share: nothing attempted";
  if t.failed < 0 || t.failed > t.attempted then
    invalid_arg "Stats.failed_share: failed outside [0, attempted]";
  float_of_int t.failed /. float_of_int t.attempted

let ok_share t = 1. -. failed_share t
