(* Monotonic nanosecond clock (CLOCK_MONOTONIC). [Unix.gettimeofday]
   is wall time at microsecond resolution, too coarse against ticks of a
   few tens of microseconds and not immune to clock steps.

   [ns] is bechamel's [Monotonic_clock] stub, declared here as an
   unboxed, non-allocating external: a reading bound with [let] and
   subtracted from another stays unboxed, so timing a zero-alloc kernel
   tick allocates nothing. *)
external ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let base = ns ()

(* seconds since program start *)
let now () = Int64.to_float (Int64.sub (ns ()) base) *. 1e-9
