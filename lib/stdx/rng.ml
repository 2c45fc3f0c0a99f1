(* The xoshiro256++ state s0..s3 lives in one 32-byte buffer, read and
   written as little-endian int64s. The accessors are unboxed primitives,
   so a draw keeps every intermediate in registers and allocates nothing
   beyond a boxed result. *)
type t = Bytes.t

let get t i = Bytes.get_int64_le t (i * 8) [@@inline]

let set t i v = Bytes.set_int64_le t (i * 8) v [@@inline]

(* splitmix64: seeds the xoshiro state from a single integer, and is also
   used to derive split streams. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_seed_state state =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set t i (splitmix64 state)
  done;
  t

let create ~seed =
  let state = ref (Int64.of_int seed) in
  of_seed_state state

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))
[@@inline]

let int64 t =
  let open Int64 in
  let s0 = get t 0 and s1 = get t 1 and s2 = get t 2 and s3 = get t 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let s2 = logxor s2 s0 and s3 = logxor s3 s1 in
  set t 0 (logxor s0 s3);
  set t 1 (logxor s1 s2);
  set t 2 (logxor s2 (shift_left s1 17));
  set t 3 (rotl s3 45);
  result
[@@inline]

let split t =
  let state = ref (int64 t) in
  of_seed_state state

let float t =
  (* Top 53 bits give a uniform double in [0, 1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. 0x1p-53
[@@inline]

let uniform t ~lo ~hi =
  if not (lo <= hi) then invalid_arg "Rng.uniform: lo > hi";
  lo +. ((hi -. lo) *. float t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound <= 0";
  (* Rejection sampling to avoid modulo bias. A loop rather than a
     recursive helper, so that no int64 crosses a call boundary boxed. *)
  let b = Int64.of_int bound in
  let limit = Int64.sub Int64.max_int (Int64.rem Int64.max_int b) in
  let v = ref (Int64.shift_right_logical (int64 t) 1) in
  while !v >= limit do
    v := Int64.shift_right_logical (int64 t) 1
  done;
  Int64.to_int (Int64.rem !v b)

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate <= 0";
  let u = 1. -. float t in
  -.log u /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t ~bound:(Array.length a))
