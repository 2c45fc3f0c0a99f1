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

module P2 = struct
  (* Jain & Chlamtac's P-squared algorithm: five markers track the min, the
     p/2, p, (1+p)/2 quantiles and the max; marker heights are adjusted with
     a piecewise-parabolic prediction as samples stream in. *)
  type t = {
    p : float;
    q : float array; (* marker heights *)
    np : float array; (* desired marker positions *)
    pos : int array; (* actual marker positions *)
    dn : float array; (* desired position increments *)
    mutable n : int;
    init : float array; (* first five samples *)
  }

  let create ~p =
    if p <= 0. || p >= 100. then invalid_arg "Percentile.P2.create: p outside (0, 100)";
    let p = p /. 100. in
    {
      p;
      q = Array.make 5 0.;
      np = [| 0.; 2. *. p; 4. *. p; 2. +. (2. *. p); 4. |];
      pos = [| 0; 1; 2; 3; 4 |];
      dn = [| 0.; p /. 2.; p; (1. +. p) /. 2.; 1. |];
      n = 0;
      init = Array.make 5 0.;
    }

  let parabolic t i d =
    let q = t.q and pos = t.pos in
    let fi j = float_of_int pos.(j) in
    q.(i)
    +. (d /. (fi (i + 1) -. fi (i - 1))
       *. (((fi i -. fi (i - 1) +. d) *. (q.(i + 1) -. q.(i)) /. (fi (i + 1) -. fi i))
          +. ((fi (i + 1) -. fi i -. d) *. (q.(i) -. q.(i - 1)) /. (fi i -. fi (i - 1)))))

  let linear t i d =
    let q = t.q and pos = t.pos in
    let j = if d > 0. then i + 1 else i - 1 in
    q.(i) +. (d *. (q.(j) -. q.(i)) /. float_of_int (pos.(j) - pos.(i)))

  let add t x =
    if t.n < 5 then begin
      t.init.(t.n) <- x;
      t.n <- t.n + 1;
      if t.n = 5 then begin
        Array.sort compare t.init;
        Array.blit t.init 0 t.q 0 5
      end
    end
    else begin
      t.n <- t.n + 1;
      let k =
        if x < t.q.(0) then begin
          t.q.(0) <- x;
          0
        end
        else if x >= t.q.(4) then begin
          t.q.(4) <- x;
          3
        end
        else begin
          let rec find i = if x < t.q.(i + 1) then i else find (i + 1) in
          find 0
        end
      in
      for i = k + 1 to 4 do
        t.pos.(i) <- t.pos.(i) + 1
      done;
      for i = 0 to 4 do
        t.np.(i) <- t.np.(i) +. t.dn.(i)
      done;
      for i = 1 to 3 do
        let d = t.np.(i) -. float_of_int t.pos.(i) in
        let right = t.pos.(i + 1) - t.pos.(i) and left = t.pos.(i - 1) - t.pos.(i) in
        if (d >= 1. && right > 1) || (d <= -1. && left < -1) then begin
          let d = if d >= 0. then 1. else -1. in
          let q' = parabolic t i d in
          let q' = if t.q.(i - 1) < q' && q' < t.q.(i + 1) then q' else linear t i d in
          t.q.(i) <- q';
          t.pos.(i) <- t.pos.(i) + int_of_float d
        end
      done
    end

  let get t =
    if t.n = 0 then None
    else if t.n < 5 then begin
      let first = Array.sub t.init 0 t.n in
      Some (exact first ~p:(t.p *. 100.))
    end
    else Some t.q.(2)
end
