(* Unit and property tests for the fixed-point arithmetic layer. *)

module Q = Fxp.Q15

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let close ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps

(* --- Constants ---------------------------------------------------------- *)

let test_constants () =
  check_int "Q15 one" 32768 (Q.to_raw Q.one);
  check_int "Q15 zero" 0 (Q.to_raw Q.zero);
  check_int "Q15 half" 16384 (Q.to_raw Q.half);
  check_int "Q15 max" 65535 (Q.to_raw Q.max_value);
  check_bool "Q15 ulp" true (close Q.ulp (1.0 /. 32768.0));
  check_int "fractional bits" 15 Q.fractional_bits

let test_of_raw () =
  check_bool "in range" true (Q.of_raw 1234 <> None);
  check_bool "negative" true (Q.of_raw (-1) = None);
  check_bool "too large" true (Q.of_raw 65536 = None);
  check_int "of_raw_exn" 777 (Q.to_raw (Q.of_raw_exn 777));
  Alcotest.check_raises "of_raw_exn raises"
    (Invalid_argument "Fxp.of_raw_exn: -3 out of range") (fun () ->
      ignore (Q.of_raw_exn (-3)))

let test_of_float_clamping () =
  check_int "negative clamps to 0" 0 (Q.to_raw (Q.of_float (-0.5)));
  check_int "huge clamps to max" 65535 (Q.to_raw (Q.of_float 42.0));
  check_int "one" 32768 (Q.to_raw (Q.of_float 1.0));
  check_int "third rounds" 10923 (Q.to_raw (Q.of_float (1.0 /. 3.0)));
  Alcotest.check_raises "nan rejected" (Invalid_argument "Fxp.of_float: nan")
    (fun () -> ignore (Q.of_float Float.nan))

let test_add_sub () =
  let a = Q.of_raw_exn 30000 and b = Q.of_raw_exn 40000 in
  check_int "saturating add" 65535 (Q.to_raw (Q.add a b));
  check_int "normal add" 50000 (Q.to_raw (Q.add a (Q.of_raw_exn 20000)));
  check_int "monus floor" 0 (Q.to_raw (Q.sub a b));
  check_int "normal sub" 10000 (Q.to_raw (Q.sub b a))

let test_mul () =
  check_int "one * one" 32768 (Q.to_raw (Q.mul Q.one Q.one));
  check_int "half * half" 8192 (Q.to_raw (Q.mul Q.half Q.half));
  check_int "zero * max" 0 (Q.to_raw (Q.mul Q.zero Q.max_value));
  (* max * max = (65535^2 + 16384) >> 15, saturated. *)
  check_int "max * max saturates" 65535 (Q.to_raw (Q.mul Q.max_value Q.max_value))

let test_mul_int () =
  check_int "times zero" 0 (Q.to_raw (Q.mul_int Q.one 0));
  check_int "times one" 32768 (Q.to_raw (Q.mul_int Q.one 1));
  check_int "saturates" 65535 (Q.to_raw (Q.mul_int Q.one 3));
  Alcotest.check_raises "negative scale"
    (Invalid_argument "Fxp.mul_int: negative scale") (fun () ->
      ignore (Q.mul_int Q.one (-1)))

let test_div () =
  check_int "x / one = x" 12345 (Q.to_raw (Q.div (Q.of_raw_exn 12345) Q.one));
  check_int "one / half = 2" 65535 (Q.to_raw (Q.div Q.one Q.half));
  (* 2.0 saturates Q15's [0, ~2) range at max. *)
  Alcotest.check_raises "divide by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero))

let test_recip_succ () =
  check_int "recip of 0 is one" 32768 (Q.to_raw (Q.recip_succ 0));
  check_int "recip of 1 is half" 16384 (Q.to_raw (Q.recip_succ 1));
  (* The paper's dmax=36 supplemental constant: round(32768/37) = 886. *)
  check_int "recip of dmax 36" 886 (Q.to_raw (Q.recip_succ 36));
  check_int "recip of dmax 8" 3641 (Q.to_raw (Q.recip_succ 8));
  check_int "recip of dmax 2" 10923 (Q.to_raw (Q.recip_succ 2));
  Alcotest.check_raises "negative dmax"
    (Invalid_argument "Fxp.recip_succ: negative distance bound") (fun () ->
      ignore (Q.recip_succ (-1)))

let test_complement () =
  check_int "complement zero" 32768 (Q.to_raw (Q.complement_to_one Q.zero));
  check_int "complement one" 0 (Q.to_raw (Q.complement_to_one Q.one));
  check_int "complement above one clamps" 0
    (Q.to_raw (Q.complement_to_one Q.max_value));
  check_int "complement half" 16384 (Q.to_raw (Q.complement_to_one Q.half))

let test_mul_ties () =
  (* mul is (a*b + half) >> 15: an exact half-ulp product rounds up
     (round-half-up, matching the datapath's adder-before-shift). *)
  let q = Q.of_raw_exn in
  check_int "0.5 ulp tie rounds up" 1 (Q.to_raw (Q.mul (q 1) Q.half));
  check_int "1.5 ulp tie rounds up" 2 (Q.to_raw (Q.mul (q 3) Q.half));
  check_int "2.5 ulp tie rounds up" 3 (Q.to_raw (Q.mul (q 5) Q.half));
  (* Just below the tie truncates down: 3 * 16383 = 1.49994 ulp. *)
  check_int "just below tie rounds down" 1 (Q.to_raw (Q.mul (q 3) (q 16383)))

let test_saturation_edges () =
  check_int "max + 1 ulp saturates" 65535
    (Q.to_raw (Q.add Q.max_value (Q.of_raw_exn 1)));
  check_int "max + max saturates" 65535
    (Q.to_raw (Q.add Q.max_value Q.max_value));
  check_int "max + zero stays" 65535 (Q.to_raw (Q.add Q.max_value Q.zero));
  check_int "just reaching max is exact" 65535
    (Q.to_raw (Q.add (Q.of_raw_exn 65534) (Q.of_raw_exn 1)));
  check_int "monus at zero" 0 (Q.to_raw (Q.sub Q.zero (Q.of_raw_exn 1)));
  check_int "monus of equals" 0
    (Q.to_raw (Q.sub (Q.of_raw_exn 123) (Q.of_raw_exn 123)));
  check_int "monus zero minus max" 0 (Q.to_raw (Q.sub Q.zero Q.max_value))

let test_of_float_boundaries () =
  check_int "2.0 clamps to max" 65535 (Q.to_raw (Q.of_float 2.0));
  check_int "largest representable is exact" 65535
    (Q.to_raw (Q.of_float (65535.0 /. 32768.0)));
  check_int "half an ulp above max clamps" 65535
    (Q.to_raw (Q.of_float (65535.5 /. 32768.0)));
  check_int "tiny negative clamps to zero" 0 (Q.to_raw (Q.of_float (-1e-9)));
  check_int "half-ulp input rounds away from zero" 1
    (Q.to_raw (Q.of_float (0.5 /. 32768.0)))

let test_compare_minmax () =
  let a = Q.of_raw_exn 100 and b = Q.of_raw_exn 200 in
  check_bool "compare lt" true (Q.compare a b < 0);
  check_bool "equal" true (Q.equal a (Q.of_raw_exn 100));
  check_int "min" 100 (Q.to_raw (Q.min a b));
  check_int "max" 200 (Q.to_raw (Q.max a b))

let test_abs_diff () =
  check_int "symmetric 1" 8 (Q.abs_diff_int 16 8);
  check_int "symmetric 2" 8 (Q.abs_diff_int 8 16);
  check_int "zero" 0 (Q.abs_diff_int 44 44)

(* --- Properties --------------------------------------------------------- *)

let raw_gen = QCheck2.Gen.int_range 0 65535

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "to_float/of_float round-trips raw" raw_gen (fun r ->
        Q.to_raw (Q.of_float (Q.to_float (Q.of_raw_exn r))) = r);
    prop "add is commutative" (QCheck2.Gen.pair raw_gen raw_gen) (fun (a, b) ->
        let a = Q.of_raw_exn a and b = Q.of_raw_exn b in
        Q.equal (Q.add a b) (Q.add b a));
    prop "mul is commutative" (QCheck2.Gen.pair raw_gen raw_gen) (fun (a, b) ->
        let a = Q.of_raw_exn a and b = Q.of_raw_exn b in
        Q.equal (Q.mul a b) (Q.mul b a));
    prop "mul by one is identity" raw_gen (fun r ->
        Q.equal (Q.mul (Q.of_raw_exn r) Q.one) (Q.of_raw_exn r));
    prop "mul error vs float within 1 ulp"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 32768)
         (QCheck2.Gen.int_range 0 32768))
      (fun (a, b) ->
        let qa = Q.of_raw_exn a and qb = Q.of_raw_exn b in
        let exact = Q.to_float qa *. Q.to_float qb in
        Float.abs (Q.to_float (Q.mul qa qb) -. exact) <= Q.ulp);
    prop "mul rounds to nearest (within half an ulp, raw)"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 32768)
         (QCheck2.Gen.int_range 0 32768))
      (fun (a, b) ->
        let r = Q.to_raw (Q.mul (Q.of_raw_exn a) (Q.of_raw_exn b)) in
        (* |r - a*b/2^15| <= 1/2, checked exactly in integers. *)
        abs ((r lsl 16) - (2 * a * b)) <= 65536 / 2);
    prop "sub then add restores when no clip"
      (QCheck2.Gen.pair raw_gen raw_gen)
      (fun (a, b) ->
        let hi = max a b and lo = min a b in
        let hi = Q.of_raw_exn hi and lo = Q.of_raw_exn lo in
        Q.equal (Q.add (Q.sub hi lo) lo) hi);
    prop "complement involutive below one" (QCheck2.Gen.int_range 0 32768)
      (fun r ->
        let x = Q.of_raw_exn r in
        Q.equal (Q.complement_to_one (Q.complement_to_one x)) x);
    prop "recip_succ decreases with dmax" (QCheck2.Gen.int_range 0 60000)
      (fun d -> Q.compare (Q.recip_succ (d + 1)) (Q.recip_succ d) <= 0);
    prop "recip_succ within half ulp of exact" (QCheck2.Gen.int_range 0 65535)
      (fun d ->
        let exact = 1.0 /. float_of_int (d + 1) in
        Float.abs (Q.to_float (Q.recip_succ d) -. exact) <= Q.ulp /. 2.0);
    prop "abs_diff triangle inequality"
      QCheck2.Gen.(triple (int_range 0 65535) (int_range 0 65535) (int_range 0 65535))
      (fun (a, b, c) ->
        Q.abs_diff_int a c <= Q.abs_diff_int a b + Q.abs_diff_int b c);
    prop "div then mul stays close"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 32768)
         (QCheck2.Gen.int_range 1 32768))
      (fun (a, b) ->
        let qa = Q.of_raw_exn a and qb = Q.of_raw_exn b in
        if Q.compare qa qb > 0 then true (* quotient saturates; skip *)
        else
          let q = Q.div qa qb in
          Float.abs (Q.to_float (Q.mul q qb) -. Q.to_float qa) <= 4.0 *. Q.ulp);
  ]

let () =
  Alcotest.run "fxp"
    [
      ( "unit",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "of_raw" `Quick test_of_raw;
          Alcotest.test_case "of_float clamping" `Quick test_of_float_clamping;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "mul_int" `Quick test_mul_int;
          Alcotest.test_case "div" `Quick test_div;
          Alcotest.test_case "recip_succ" `Quick test_recip_succ;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "mul ties" `Quick test_mul_ties;
          Alcotest.test_case "saturation edges" `Quick test_saturation_edges;
          Alcotest.test_case "of_float boundaries" `Quick
            test_of_float_boundaries;
          Alcotest.test_case "compare/min/max" `Quick test_compare_minmax;
          Alcotest.test_case "abs_diff" `Quick test_abs_diff;
        ] );
      ("properties", props);
    ]
