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
(* newton_bisect                                                       *)
(* ------------------------------------------------------------------ *)

let test_newton_cubic () =
  let f x = (x *. x *. x) -. 8. and df x = 3. *. x *. x in
  check_close ~eps:1e-9 "cube root of 8" 2. (Solve.newton_bisect ~df ~lo:0. ~hi:5. f)

let test_newton_matches_bisect () =
  (* The stationarity equation shape used by the allocation step:
     g(lat) = -w - lsum + mu * (c + l) / lat^2. *)
  let mu = 40. and work = 5. and pressure = 2.5 in
  let f lat = -.pressure +. (mu *. work /. (lat *. lat)) in
  let df lat = -2. *. mu *. work /. (lat *. lat *. lat) in
  let by_newton = Solve.newton_bisect ~df ~lo:0.1 ~hi:100. f in
  let by_bisect = Solve.bisect ~lo:0.1 ~hi:100. f in
  let analytic = sqrt (mu *. work /. pressure) in
  check_close ~eps:1e-6 "newton vs analytic" analytic by_newton;
  check_close ~eps:1e-6 "bisect vs analytic" analytic by_bisect

let test_newton_flat_derivative_falls_back () =
  (* df = 0 everywhere forces pure bisection; must still find the root. *)
  check_close ~eps:1e-6 "flat derivative" 1.
    (Solve.newton_bisect ~df:(fun _ -> 0.) ~lo:0. ~hi:3. (fun x -> x -. 1.))

let prop_newton_root_is_root =
  QCheck.Test.make ~name:"newton_bisect: returned point is a root of a random quadratic"
    QCheck.(pair (float_range 0.5 20.) (float_range 0.5 20.))
    (fun (a, b) ->
      (* f(x) = a * x^2 - b has a positive root sqrt(b / a). *)
      let f x = (a *. x *. x) -. b and df x = 2. *. a *. x in
      let hi = sqrt (b /. a) +. 10. in
      let root = Solve.newton_bisect ~df ~lo:0. ~hi f in
      Float.abs (f root) < 1e-6)

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

let qcheck tests = List.map QCheck_alcotest.to_alcotest tests

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
      ( "newton",
        [
          Alcotest.test_case "cubic" `Quick test_newton_cubic;
          Alcotest.test_case "allocation-shaped equation" `Quick test_newton_matches_bisect;
          Alcotest.test_case "flat derivative fallback" `Quick
            test_newton_flat_derivative_falls_back;
        ]
        @ qcheck [ prop_newton_root_is_root ] );
      ( "misc",
        [
          Alcotest.test_case "finite difference" `Quick test_derivative;
          Alcotest.test_case "clamp" `Quick test_clamp;
        ] );
    ]
