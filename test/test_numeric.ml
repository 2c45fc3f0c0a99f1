(* Tests for the lla_numeric solvers. *)

open Lla_numeric

let check_close ?(eps = 1e-8) msg expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s (expected %g, got %g)" msg expected actual)
    true
    (Float.abs (expected -. actual) <= eps)

(* ------------------------------------------------------------------ *)
(* bisect                                                              *)
(* ------------------------------------------------------------------ *)

let test_bisect_linear () =
  check_close "root of 2x - 4" 2. (Solve.bisect ~lo:0. ~hi:10. (fun x -> (2. *. x) -. 4.))

let test_bisect_transcendental () =
  (* x = cos x near 0.739085 *)
  check_close ~eps:1e-9 "x = cos x" 0.7390851332
    (Solve.bisect ~lo:0. ~hi:1.5 (fun x -> x -. cos x))

let test_bisect_endpoint_roots () =
  check_close "root at lo" 0. (Solve.bisect ~lo:0. ~hi:5. (fun x -> x));
  check_close "root at hi" 5. (Solve.bisect ~lo:0. ~hi:5. (fun x -> x -. 5.))

let test_bisect_no_bracket () =
  Alcotest.check_raises "same sign"
    (Solve.No_bracket "Solve.bisect: f(lo)=1 and f(hi)=11 have the same sign") (fun () ->
      ignore (Solve.bisect ~lo:0. ~hi:10. (fun x -> x +. 1.)))

let test_bisect_decreasing () =
  check_close "decreasing function" 3. (Solve.bisect ~lo:0. ~hi:10. (fun x -> 9. -. (3. *. x)))

(* ------------------------------------------------------------------ *)
(* derivative / clamp                                                  *)
(* ------------------------------------------------------------------ *)

let test_derivative () =
  check_close ~eps:1e-5 "d/dx x^2 at 3" 6. (Solve.derivative (fun x -> x *. x) 3.);
  check_close ~eps:1e-5 "d/dx sin at 0" 1. (Solve.derivative sin 0.)

let test_clamp () =
  check_close "below" 1. (Solve.clamp ~lo:1. ~hi:2. 0.);
  check_close "above" 2. (Solve.clamp ~lo:1. ~hi:2. 3.);
  check_close "inside" 1.5 (Solve.clamp ~lo:1. ~hi:2. 1.5);
  Alcotest.check_raises "inverted bounds" (Invalid_argument "Solve.clamp: lo > hi") (fun () ->
      ignore (Solve.clamp ~lo:2. ~hi:1. 0.))

let () =
  Alcotest.run "lla_numeric"
    [
      ( "bisect",
        [
          Alcotest.test_case "linear" `Quick test_bisect_linear;
          Alcotest.test_case "transcendental" `Quick test_bisect_transcendental;
          Alcotest.test_case "roots at endpoints" `Quick test_bisect_endpoint_roots;
          Alcotest.test_case "no bracket raises" `Quick test_bisect_no_bracket;
          Alcotest.test_case "decreasing function" `Quick test_bisect_decreasing;
        ] );
      ( "misc",
        [
          Alcotest.test_case "finite difference" `Quick test_derivative;
          Alcotest.test_case "clamp" `Quick test_clamp;
        ] );
    ]
