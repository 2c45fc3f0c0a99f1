let exact samples ~p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Percentile.exact: empty array";
  if p < 0. || p > 100. then invalid_arg "Percentile.exact: p outside [0, 100]";
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

(* Below [capacity], [data] holds the samples in order from index 0 and
   doubles when full; at [capacity] it becomes the ring. A transport
   keeps one window per channel, most of which see few samples in a
   short deployment, and a full-size float array per window would be
   allocated straight in the major heap, whose collector is paced by
   the words allocated there. *)
module Window = struct
  type t = { capacity : int; mutable data : float array; mutable total : int }

  let create ~capacity =
    if capacity <= 0 then invalid_arg "Percentile.Window.create: capacity <= 0";
    { capacity; data = Array.make (Stdlib.min capacity 16) 0.; total = 0 }

  let add t x =
    let len = Array.length t.data in
    if t.total = len && len < t.capacity then begin
      let data = Array.make (Stdlib.min (2 * len) t.capacity) 0. in
      Array.blit t.data 0 data 0 len;
      t.data <- data
    end;
    t.data.(t.total mod Array.length t.data) <- x;
    t.total <- t.total + 1

  let count t = Stdlib.min t.total (Array.length t.data)

  let percentile t ~p =
    let n = count t in
    if n = 0 then None else Some (exact (Array.sub t.data 0 n) ~p)

  let clear t = t.total <- 0
end
