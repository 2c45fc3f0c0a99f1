type t = { alpha : float; mutable value : float; mutable count : int }

let create ~alpha =
  if alpha <= 0. || alpha > 1. then invalid_arg "Ewma.create: alpha outside (0, 1]";
  { alpha; value = 0.; count = 0 }

let add t x =
  if t.count = 0 then t.value <- x
  else t.value <- (t.alpha *. x) +. ((1. -. t.alpha) *. t.value);
  t.count <- t.count + 1

let value t = t.value
