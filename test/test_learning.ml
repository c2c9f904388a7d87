(* Tests for dynamic case-base maintenance (CBR retain/revise, the
   paper's Sec. 5 self-learning outlook). *)

open Qos_core

let get = function Ok x -> x | Error e -> Alcotest.fail e
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

let asic_variant =
  get (Impl.make ~id:4 ~target:Target.Asic [ (1, 16); (3, 1); (4, 44) ])

(* --- retain -------------------------------------------------------------- *)

let test_retain_variant () =
  let learned = get (Learning.retain_variant cb ~type_id:1 asic_variant) in
  check_int "variant added" 4
    (Ftype.impl_count (Option.get (Casebase.find_type learned 1)));
  check_bool "original untouched" true
    (Ftype.impl_count (Option.get (Casebase.find_type cb 1)) = 3);
  (* The perfect-match variant now wins retrieval. *)
  let exact =
    get (Request.make ~type_id:1 [ (1, 16, 1.0); (3, 1, 1.0); (4, 44, 1.0) ])
  in
  let best =
    match Engine_float.best learned exact with
    | Ok r -> r.Retrieval.impl.Impl.id
    | Error e -> Alcotest.fail (Retrieval.error_to_string e)
  in
  (* impl 2 (DSP) is also a perfect match and is listed first; the
     learned variant must at least tie.  Check it ranks in the top 2. *)
  let top2 =
    match Engine_float.n_best ~n:2 learned exact with
    | Ok rs -> List.map (fun r -> r.Retrieval.impl.Impl.id) rs
    | Error e -> Alcotest.fail (Retrieval.error_to_string e)
  in
  check_bool "learned variant competitive" true
    (best = 2 && List.mem 4 top2)

let test_retain_validation () =
  check_bool "unknown type" true
    (Result.is_error (Learning.retain_variant cb ~type_id:42 asic_variant));
  let duplicate =
    get (Impl.make ~id:2 ~target:Target.Asic [ (1, 16) ])
  in
  check_bool "duplicate id" true
    (Result.is_error (Learning.retain_variant cb ~type_id:1 duplicate));
  let out_of_bounds =
    get (Impl.make ~id:9 ~target:Target.Asic [ (1, 64) ])
  in
  check_bool "out-of-bounds values need widening first" true
    (Result.is_error (Learning.retain_variant cb ~type_id:1 out_of_bounds))

(* --- forget / add / remove ------------------------------------------------ *)

let test_forget_variant () =
  let thinned = get (Learning.forget_variant cb ~type_id:1 ~impl_id:3) in
  check_int "variant removed" 2
    (Ftype.impl_count (Option.get (Casebase.find_type thinned 1)));
  check_bool "missing variant" true
    (Result.is_error (Learning.forget_variant cb ~type_id:1 ~impl_id:42))

let test_add_remove_type () =
  let new_type =
    get
      (Ftype.make ~id:7 ~name:"iir-filter"
         [ get (Impl.make ~id:1 ~target:Target.Dsp [ (1, 16) ]) ])
  in
  let grown = get (Learning.add_type cb new_type) in
  check_bool "type added" true (Casebase.find_type grown 7 <> None);
  check_bool "duplicate type rejected" true
    (Result.is_error (Learning.add_type grown new_type));
  let shrunk = get (Learning.remove_type grown ~type_id:7) in
  check_bool "type removed" true (Casebase.find_type shrunk 7 = None);
  check_bool "unknown removal" true
    (Result.is_error (Learning.remove_type cb ~type_id:42))

(* --- observe (revise) ------------------------------------------------------ *)

let test_observe_smoothing () =
  (* DSP variant reports a measured sample rate of 36 instead of 44. *)
  let revised =
    get
      (Learning.observe cb ~type_id:1 ~impl_id:2 ~measurements:[ (4, 36) ]
         ~smoothing:0.5)
  in
  let impl = Option.get (Casebase.find_impl revised ~type_id:1 ~impl_id:2) in
  check_int "value smoothed halfway" 40 (Option.get (Impl.find_attr impl 4));
  (* Full smoothing jumps straight to the measurement. *)
  let jumped =
    get
      (Learning.observe cb ~type_id:1 ~impl_id:2 ~measurements:[ (4, 36) ]
         ~smoothing:1.0)
  in
  let impl = Option.get (Casebase.find_impl jumped ~type_id:1 ~impl_id:2) in
  check_int "full smoothing" 36 (Option.get (Impl.find_attr impl 4))

let test_observe_clamps_to_bounds () =
  (* Measurement above the design bound clamps to the bound. *)
  let revised =
    get
      (Learning.observe cb ~type_id:1 ~impl_id:2 ~measurements:[ (4, 60) ]
         ~smoothing:1.0)
  in
  let impl = Option.get (Casebase.find_impl revised ~type_id:1 ~impl_id:2) in
  check_int "clamped at upper bound" 44 (Option.get (Impl.find_attr impl 4))

let test_observe_validation () =
  check_bool "bad smoothing" true
    (Result.is_error
       (Learning.observe cb ~type_id:1 ~impl_id:2 ~measurements:[] ~smoothing:0.0));
  check_bool "smoothing above 1" true
    (Result.is_error
       (Learning.observe cb ~type_id:1 ~impl_id:2 ~measurements:[] ~smoothing:1.5));
  check_bool "unknown impl" true
    (Result.is_error
       (Learning.observe cb ~type_id:1 ~impl_id:42 ~measurements:[] ~smoothing:0.5));
  check_bool "measurement of an attribute the variant lacks" true
    (Result.is_error
       (Learning.observe cb ~type_id:2 ~impl_id:1 ~measurements:[ (3, 1) ]
          ~smoothing:0.5))

(* --- widen ------------------------------------------------------------------ *)

let test_widen_schema () =
  let wide_variant =
    get (Impl.make ~id:9 ~target:Target.Fpga [ (1, 64); (77, 5) ])
  in
  let widened = get (Learning.widen_schema_for cb wide_variant) in
  check_int "bitwidth bound extended" 64
    (Option.get (Attr.Schema.find widened.Casebase.schema 1)).Attr.upper;
  check_bool "new attribute registered" true
    (Attr.Schema.mem widened.Casebase.schema 77);
  (* After widening the retain succeeds. *)
  let learned = get (Learning.retain_variant widened ~type_id:1 wide_variant) in
  check_int "retained after widening" 4
    (Ftype.impl_count (Option.get (Casebase.find_type learned 1)));
  (* dmax changed for attr 1: 8..64 now. *)
  check_int "dmax recomputed" 56
    (Option.get (Attr.Schema.dmax learned.Casebase.schema 1))

let test_learned_casebase_still_encodes () =
  let learned = get (Learning.retain_variant cb ~type_id:1 asic_variant) in
  check_bool "layout after learning" true
    (Result.is_ok (Memlayout.build_system learned request));
  (* The full loop: learn, re-layout, run the hardware unit. *)
  match Rtlsim.Machine.retrieve learned request with
  | Ok o -> check_bool "hardware retrieval ok" true (o.Rtlsim.Machine.best_impl_id >= 1)
  | Error e -> Alcotest.fail (Retrieval.error_to_string e)

(* --- properties --------------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "retain then forget restores the variant count"
      (QCheck2.Gen.int_range 0 20_000)
      (fun seed ->
        let cb =
          Workload.Generator.sized_casebase ~seed ~types:3 ~impls:3 ~attrs:4
        in
        let schema_attr =
          List.hd (Attr.Schema.descriptors cb.Casebase.schema)
        in
        match
          Impl.make ~id:99 ~target:Target.Gpp
            [ (schema_attr.Attr.id, schema_attr.Attr.lower) ]
        with
        | Error _ -> false
        | Ok impl -> (
            match Learning.retain_variant cb ~type_id:1 impl with
            | Error _ -> false
            | Ok learned -> (
                match Learning.forget_variant learned ~type_id:1 ~impl_id:99 with
                | Error _ -> false
                | Ok restored ->
                    Ftype.impl_count (Option.get (Casebase.find_type restored 1))
                    = Ftype.impl_count (Option.get (Casebase.find_type cb 1)))));
    prop "observe keeps values within schema bounds"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range 0 20_000)
         (QCheck2.Gen.int_range 0 65535))
      (fun (seed, measured) ->
        let cb =
          Workload.Generator.sized_casebase ~seed ~types:1 ~impls:2 ~attrs:3
        in
        let impl = Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id:1) in
        match Impl.attr_ids impl with
        | [] -> true
        | aid :: _ -> (
            match
              Learning.observe cb ~type_id:1 ~impl_id:1
                ~measurements:[ (aid, measured) ] ~smoothing:0.7
            with
            | Error _ -> false
            | Ok revised ->
                let d = Option.get (Attr.Schema.find revised.Casebase.schema aid) in
                let v =
                  Option.get
                    (Impl.find_attr
                       (Option.get
                          (Casebase.find_impl revised ~type_id:1 ~impl_id:1))
                       aid)
                in
                v >= d.Attr.lower && v <= d.Attr.upper));
  ]

let () =
  Alcotest.run "learning"
    [
      ( "retain",
        [
          Alcotest.test_case "retain variant" `Quick test_retain_variant;
          Alcotest.test_case "validation" `Quick test_retain_validation;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "forget variant" `Quick test_forget_variant;
          Alcotest.test_case "add/remove type" `Quick test_add_remove_type;
        ] );
      ( "observe",
        [
          Alcotest.test_case "smoothing" `Quick test_observe_smoothing;
          Alcotest.test_case "clamping" `Quick test_observe_clamps_to_bounds;
          Alcotest.test_case "validation" `Quick test_observe_validation;
        ] );
      ( "widen",
        [
          Alcotest.test_case "widen schema" `Quick test_widen_schema;
          Alcotest.test_case "learned casebase encodes" `Quick
            test_learned_casebase_still_encodes;
        ] );
      ("properties", props);
    ]
