(* Hashtbl.Make indexes buckets by the low bits of [hash]. A multiply
   by an odd constant lets every bit of the key reach the high bits, and
   folding those back down keeps strided keys (all multiples of 8, say)
   from sharing a few buckets, as the identity would. *)
let hash i =
  let h = i * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = hash
end)
