type t =
  | Constant of float
  | Jittered of { base : float; jitter : float }

let constant d =
  if d < 0. then invalid_arg "Delay_model.constant: negative delay";
  Constant d

let jittered ~base ~jitter =
  if base < 0. || jitter < 0. then invalid_arg "Delay_model.jittered: negative parameter";
  Jittered { base; jitter }

let sample t rng =
  match t with
  | Constant d -> d
  | Jittered { base; jitter } ->
    let lo = Float.max 0. (base *. (1. -. jitter)) and hi = base *. (1. +. jitter) in
    if hi > lo then Lla_stdx.Rng.uniform rng ~lo ~hi else lo
