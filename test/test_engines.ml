(* Tests for the float reference engine and the fixed-point engine,
   including the paper's Table 1 and the float/fixed agreement claim. *)

open Qos_core

let get = function Ok x -> x | Error e -> Alcotest.fail e

let getr = function
  | Ok x -> x
  | Error e -> Alcotest.fail (Retrieval.error_to_string e)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

(* --- Table 1 ------------------------------------------------------------- *)

let test_table1_exact_scores () =
  List.iter
    (fun (impl_id, expected) ->
      let impl = Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id) in
      check_float
        (Printf.sprintf "impl %d full-precision score" impl_id)
        expected
        (Engine_float.score_impl cb.schema request impl))
    Scenario_audio.expected_globals

let test_table1_paper_rounding () =
  List.iter
    (fun (impl_id, paper) ->
      let impl = Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id) in
      let s = Engine_float.score_impl cb.schema request impl in
      Alcotest.(check (float 0.005))
        (Printf.sprintf "impl %d matches Table 1 to 2 decimals" impl_id)
        paper s)
    Scenario_audio.paper_globals

let test_table1_ranking () =
  let ranked = getr (Engine_float.rank_all cb request) in
  Alcotest.(check (list int))
    "order DSP > FPGA > GPP" [ 2; 1; 3 ]
    (List.map (fun r -> r.Retrieval.impl.Impl.id) ranked);
  let best = getr (Engine_float.best cb request) in
  check_int "best is DSP" Scenario_audio.expected_best_impl
    best.Retrieval.impl.Impl.id;
  check_bool "best target" true
    (Target.equal best.Retrieval.impl.Impl.target Target.Dsp)

let test_table1_fixed_engine () =
  let ranked = getr (Engine_fixed.rank_all cb request) in
  Alcotest.(check (list int))
    "fixed order matches" [ 2; 1; 3 ]
    (List.map (fun r -> r.Retrieval.impl.Impl.id) ranked);
  (* Bit-level expectations computed from the Q15 datapath semantics. *)
  let raw =
    List.map (fun r -> Fxp.Q15.to_raw r.Retrieval.score) ranked
  in
  Alcotest.(check (list int)) "raw Q15 scores" [ 31588; 27947; 14102 ] raw

let test_fixed_close_to_float () =
  let float_ranked = getr (Engine_float.rank_all cb request) in
  let fixed_ranked = getr (Engine_fixed.rank_all cb request) in
  List.iter2
    (fun (f : Engine_float.ranked) (x : Engine_fixed.ranked) ->
      check_bool "same impl" true
        (f.Retrieval.impl.Impl.id = x.Retrieval.impl.Impl.id);
      check_bool "score within 4 ulp" true
        (Float.abs (f.Retrieval.score -. Fxp.Q15.to_float x.Retrieval.score)
        <= 4.0 *. Fxp.Q15.ulp))
    float_ranked fixed_ranked

let test_fixed_engine_internals () =
  (* local_fixed against hand-computed Q15 values. *)
  let recip = Fxp.Q15.recip_succ 36 in
  (* d=4: 4 * 886 = 3544; 32768 - 3544 = 29224 (the Table 1 FPGA rate cell). *)
  check_int "local_fixed d=4 dmax=36" 29224
    (Fxp.Q15.to_raw (Engine_fixed.local_fixed ~recip 40 44));
  check_int "local_fixed identical values" 32768
    (Fxp.Q15.to_raw (Engine_fixed.local_fixed ~recip 40 40));
  (* Saturation: distance so large that d * recip overflows one. *)
  check_int "local_fixed saturates to 0" 0
    (Fxp.Q15.to_raw (Engine_fixed.local_fixed ~recip 0 60000));
  (* Fixed n_best and threshold mirror the float API. *)
  let top2 = getr (Engine_fixed.n_best ~n:2 cb request) in
  Alcotest.(check (list int))
    "fixed n_best" [ 2; 1 ]
    (List.map (fun r -> r.Retrieval.impl.Impl.id) top2);
  let half = Fxp.Q15.of_float 0.5 in
  let accepted = getr (Engine_fixed.above_threshold ~threshold:half cb request) in
  check_int "fixed threshold keeps two" 2 (List.length accepted)

(* --- API behaviour ------------------------------------------------------- *)

let test_errors () =
  let missing = get (Request.make ~type_id:77 [ (1, 16, 1.0) ]) in
  (match Engine_float.best cb missing with
  | Error (Retrieval.Unknown_type 77) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_type 77");
  (match Engine_fixed.best cb missing with
  | Error (Retrieval.Unknown_type 77) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_type 77 (fixed)");
  (* Empty implementation list. *)
  let empty_ft = get (Ftype.make ~id:9 ~name:"empty" []) in
  let cb2 =
    get (Casebase.make ~name:"cb2" ~schema:cb.Casebase.schema [ empty_ft ])
  in
  let req9 = get (Request.make ~type_id:9 []) in
  (match Engine_float.best cb2 req9 with
  | Error (Retrieval.No_implementations 9) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected No_implementations")

let test_n_best () =
  let top2 = getr (Engine_float.n_best ~n:2 cb request) in
  Alcotest.(check (list int))
    "n_best 2" [ 2; 1 ]
    (List.map (fun r -> r.Retrieval.impl.Impl.id) top2);
  check_int "n_best 0" 0 (List.length (getr (Engine_float.n_best ~n:0 cb request)));
  check_int "n_best over-asks" 3
    (List.length (getr (Engine_float.n_best ~n:10 cb request)))

let test_threshold () =
  let accepted = getr (Engine_float.above_threshold ~threshold:0.5 cb request) in
  Alcotest.(check (list int))
    "GPP rejected at 0.5" [ 2; 1 ]
    (List.map (fun r -> r.Retrieval.impl.Impl.id) accepted);
  let all = getr (Engine_float.above_threshold ~threshold:0.0 cb request) in
  check_int "all pass at 0" 3 (List.length all);
  let none = getr (Engine_float.above_threshold ~threshold:0.99 cb request) in
  check_int "none pass at 0.99" 0 (List.length none)

let test_tie_breaking_first_listed () =
  (* Two identical variants: the earlier-listed one must win (strict
     greater-than update in the hardware). *)
  let schema = cb.Casebase.schema in
  let twin id = get (Impl.make ~id ~target:Target.Dsp [ (1, 16); (3, 1) ]) in
  let ft = get (Ftype.make ~id:1 ~name:"twins" [ twin 1; twin 2 ]) in
  let cb2 = get (Casebase.make ~name:"twins" ~schema [ ft ]) in
  let req = get (Request.make ~type_id:1 [ (1, 16, 1.0); (3, 1, 1.0) ]) in
  let best_f = getr (Engine_float.best cb2 req) in
  let best_x = getr (Engine_fixed.best cb2 req) in
  check_int "float tie keeps first" 1 best_f.Retrieval.impl.Impl.id;
  check_int "fixed tie keeps first" 1 best_x.Retrieval.impl.Impl.id

let test_missing_attribute_is_zero () =
  (* A request attribute absent from a variant zeroes that local
     similarity but the variant still competes. *)
  let schema = cb.Casebase.schema in
  let partial = get (Impl.make ~id:1 ~target:Target.Dsp [ (1, 16) ]) in
  let full = get (Impl.make ~id:2 ~target:Target.Gpp [ (1, 8); (3, 1) ]) in
  let ft = get (Ftype.make ~id:1 ~name:"f" [ partial; full ]) in
  let cb2 = get (Casebase.make ~name:"partial" ~schema [ ft ]) in
  let req = get (Request.make ~type_id:1 [ (1, 16, 1.0); (3, 1, 1.0) ]) in
  let s_partial = Engine_float.score_impl cb2.Casebase.schema req partial in
  check_float "partial = (1 + 0)/2" 0.5 s_partial;
  let s_full = Engine_float.score_impl cb2.Casebase.schema req full in
  check_float "full = (1/9 + 1)/2" ((1.0 /. 9.0 +. 1.0) /. 2.0) s_full;
  let best = getr (Engine_float.best cb2 req) in
  check_int "full wins despite worse bitwidth" 2 best.Retrieval.impl.Impl.id

let test_unknown_schema_attribute_is_zero () =
  (* Constraint on an attribute the schema does not know: local 0. *)
  let req = get (Request.make ~type_id:1 [ (1, 16, 1.0); (99, 5, 1.0) ]) in
  let impl = Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id:2) in
  check_float "unknown attr halves score" 0.5
    (Engine_float.score_impl cb.Casebase.schema req impl)

let test_empty_request_scores_zero () =
  let req = get (Request.make ~type_id:1 []) in
  let impl = Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id:2) in
  check_float "no constraints -> 0" 0.0
    (Engine_float.score_impl cb.Casebase.schema req impl);
  (* Still ranks (all zeros, first listed wins). *)
  let best = getr (Engine_float.best cb req) in
  check_int "first listed" 1 best.Retrieval.impl.Impl.id

let test_amalgamation_selection () =
  let impl = Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id:1) in
  let wsum = Engine_float.score_impl cb.Casebase.schema request impl in
  let minimum =
    Engine_float.score_impl ~amalgamation:Similarity.Minimum cb.Casebase.schema
      request impl
  in
  check_float "minimum picks weakest local (2/3)" (2.0 /. 3.0) minimum;
  check_bool "minimum <= weighted sum" true (minimum <= wsum)

let test_relaxed_request_scenario () =
  (* Sec. 3: after relaxation the GPP variant becomes acceptable. *)
  let strict = getr (Engine_float.above_threshold ~threshold:0.5 cb request) in
  check_bool "GPP rejected before relaxation" true
    (not
       (List.exists (fun r -> r.Retrieval.impl.Impl.id = 3) strict));
  let relaxed =
    getr
      (Engine_float.above_threshold ~threshold:0.5 cb
         Scenario_audio.relaxed_request)
  in
  check_bool "GPP acceptable after relaxation" true
    (List.exists (fun r -> r.Retrieval.impl.Impl.id = 3) relaxed)

(* --- Cross-engine equivalence (the Engine seam) --------------------------- *)

module E = Engine

let engine_of name c =
  match Result.bind (Engines.of_name name) (fun f -> f c) with
  | Ok e -> e
  | Error m -> Alcotest.fail m

let test_engine_registry () =
  Alcotest.(check (list string))
    "registry names"
    [ "float"; "fixed"; "rtlsim"; "netlist"; "native" ]
    Engines.names;
  check_bool "rtl alias accepted" true (Result.is_ok (Engines.of_name "rtl"));
  check_bool "unknown name rejected" true
    (Result.is_error (Engines.of_name "vhdl"));
  List.iter
    (fun (name, factory) ->
      let e = get (factory cb) in
      Alcotest.(check string) "engine self-names its registry entry" name
        e.E.name;
      check_bool (name ^ " caps match the contract") true
        (e.E.caps.E.bit_accurate = (name <> "float")))
    Engines.all

let cross_scenarios () =
  let generated =
    List.map
      (fun seed ->
        let c =
          Workload.Generator.sized_casebase ~seed ~types:3 ~impls:3 ~attrs:4
        in
        (c, Workload.Generator.sized_request ~seed c))
      [ 1; 7; 42; 1234; 9001 ]
  in
  (cb, request) :: generated

(* The acceptance contract: every bit-accurate engine returns the
   Engine_fixed winner with the identical raw Q15 score on all golden
   workloads. *)
let test_bit_accurate_engines_match_fixed () =
  List.iter
    (fun (c, req) ->
      let expect = getr (Engine_fixed.best c req) in
      List.iter
        (fun (name, factory) ->
          let eng = get (factory c) in
          match eng.E.retrieve req with
          | Error e -> Alcotest.fail (name ^ ": " ^ E.error_to_string e)
          | Ok d ->
              check_int (name ^ " variant") expect.Retrieval.impl.Impl.id
                d.E.impl_id;
              check_int
                (name ^ " raw Q15 score")
                (Fxp.Q15.to_raw expect.Retrieval.score)
                (Fxp.Q15.to_raw d.E.score))
        Engines.bit_accurate)
    (cross_scenarios ())

let test_cycle_reporting_engines_agree () =
  List.iter
    (fun (c, req) ->
      let cycles_of name =
        match (engine_of name c).E.retrieve req with
        | Ok { E.cycles = Some n; _ } -> n
        | Ok _ -> Alcotest.fail (name ^ " reported no cycles")
        | Error e -> Alcotest.fail (name ^ ": " ^ E.error_to_string e)
      in
      check_int "netlist cycles = rtlsim cycles" (cycles_of "rtlsim")
        (cycles_of "netlist"))
    (cross_scenarios ())

let test_native_rom_is_the_encoded_image () =
  (* The native kernels must be compiled from the exact Fig. 4/5 BRAM
     image — the same words Memlayout encodes and Rtlgen prints. *)
  let compiled = get (Netlist.Compile.of_casebase cb) in
  let image = get (Memlayout.encode_cb cb) in
  check_bool "BRAM image identical to the Memlayout encoding" true
    (Netlist.Compile.bram_image compiled = image.Memlayout.cb_words)

(* The hardware's strict greater-than best update, on every
   bit-accurate engine: the first maximum in image order wins. *)
let test_constraint_free_request () =
  let req = get (Request.make ~type_id:1 []) in
  List.iter
    (fun (name, _) ->
      match (engine_of name cb).E.retrieve req with
      | Error e -> Alcotest.fail (name ^ ": " ^ E.error_to_string e)
      | Ok d ->
          check_int (name ^ ": every score 0, first variant wins") 1
            d.E.impl_id;
          check_int (name ^ " raw Q15 score") 0 (Fxp.Q15.to_raw d.E.score))
    Engines.bit_accurate

let test_identical_variants () =
  let schema = cb.Casebase.schema in
  let impl id attrs = get (Impl.make ~id ~target:Target.Dsp attrs) in
  let twin id = impl id [ (1, 16); (3, 1); (4, 36) ] in
  let ft =
    get
      (Ftype.make ~id:1 ~name:"twins"
         [ impl 1 [ (1, 8); (3, 1); (4, 30) ]; twin 2; twin 3 ])
  in
  let c = get (Casebase.make ~name:"twins" ~schema [ ft ]) in
  let req =
    get (Request.make ~type_id:1 [ (1, 16, 1.0); (3, 1, 2.0); (4, 40, 1.0) ])
  in
  let expect = getr (Engine_fixed.best c req) in
  List.iter
    (fun (name, factory) ->
      match (get (factory c)).E.retrieve req with
      | Error e -> Alcotest.fail (name ^ ": " ^ E.error_to_string e)
      | Ok d ->
          check_int (name ^ ": the first twin wins") 2 d.E.impl_id;
          check_int (name ^ " raw Q15 score")
            (Fxp.Q15.to_raw expect.Retrieval.score)
            (Fxp.Q15.to_raw d.E.score))
    Engines.bit_accurate

let test_engine_errors_classified () =
  let missing = get (Request.make ~type_id:77 [ (1, 16, 1.0) ]) in
  List.iter
    (fun (name, _) ->
      match (engine_of name cb).E.retrieve missing with
      | Error (E.Unknown_type 77) -> ()
      | Ok _ | Error _ -> Alcotest.fail (name ^ ": expected Unknown_type 77"))
    Engines.all

(* One error type behind the seam: for an absent type and for a type
   with no variants, every registry engine and the machine model
   itself answer with equal errors. *)
let test_engine_errors_equal () =
  let empty_ft = get (Ftype.make ~id:9 ~name:"empty" []) in
  let c =
    get
      (Casebase.make ~name:"with-empty" ~schema:cb.Casebase.schema
         (empty_ft :: cb.Casebase.ftypes))
  in
  List.iter
    (fun (type_id, expect) ->
      let req = get (Request.make ~type_id [ (1, 16, 1.0) ]) in
      let check name got =
        match got with
        | Error e ->
            check_bool
              (Printf.sprintf "%s, type %d: %s" name type_id
                 (E.error_to_string e))
              true (E.equal_error expect e)
        | Ok _ -> Alcotest.fail (name ^ ": expected an error")
      in
      List.iter
        (fun (name, _) -> check name ((engine_of name c).E.retrieve req))
        Engines.all;
      check "Rtlsim.Machine.retrieve"
        (Result.map ignore (Rtlsim.Machine.retrieve c req)))
    [ (77, E.Unknown_type 77); (9, E.No_implementations 9) ]

let test_batch_matches_single () =
  let reqs = [ request; Scenario_audio.relaxed_request; request ] in
  List.iter
    (fun (name, factory) ->
      let eng = get (factory cb) in
      let batch = eng.E.retrieve_batch reqs in
      check_int (name ^ " batch size") (List.length reqs) (List.length batch);
      List.iter2
        (fun req b ->
          match (b, eng.E.retrieve req) with
          | Ok bd, Ok sd ->
              check_bool (name ^ " batch = single") true
                (E.equal_decision bd sd)
          | Error _, Error _ -> ()
          | _ -> Alcotest.fail (name ^ ": batch/single disagree on success"))
        reqs batch)
    Engines.all

(* --- Properties over generated case bases -------------------------------- *)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let prop_n count name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let scenario_of_seed seed =
  let rng = Workload.Prng.create ~seed in
  let schema =
    Workload.Generator.schema rng
      { Workload.Generator.attr_count = 6; max_bound = 200 }
  in
  let cb =
    Workload.Generator.casebase rng ~schema
      {
        Workload.Generator.type_count = 3;
        impls_per_type = (1, 6);
        attrs_per_impl = (2, 6);
      }
  in
  let req =
    Workload.Generator.request rng ~schema ~type_id:1
      {
        Workload.Generator.constraints = (1, 6);
        weight_profile = `Random;
        value_slack = 0.2;
      }
  in
  (cb, req)

(* The same per seed at the width of the large case bases: up to 15
   types of up to 40 variants over 10-12 attributes, variants missing
   some of them, 1-10 random-weight constraints whose values may lie
   past the design bounds (distances beyond dmax), and one constraint
   on an attribute ID above the schema's largest. *)
let wide_scenario_of_seed seed =
  let rng = Workload.Prng.create ~seed in
  let attr_count = Workload.Prng.int_in rng ~lo:10 ~hi:12 in
  let schema =
    Workload.Generator.schema rng
      { Workload.Generator.attr_count; max_bound = 1000 }
  in
  let types = Workload.Prng.int_in rng ~lo:1 ~hi:15 in
  let cb =
    Workload.Generator.casebase rng ~schema
      {
        Workload.Generator.type_count = types;
        impls_per_type = (1, 40);
        attrs_per_impl = (1, attr_count);
      }
  in
  let req =
    Workload.Generator.request rng ~schema
      ~type_id:(Workload.Prng.int_in rng ~lo:1 ~hi:types)
      {
        Workload.Generator.constraints = (1, 10);
        weight_profile = `Random;
        value_slack = 0.2;
      }
  in
  let unknown =
    ( attr_count + 1 + Workload.Prng.int rng ~bound:100,
      Workload.Prng.int rng ~bound:1000,
      0.1 +. (0.9 *. Workload.Prng.float rng) )
  in
  let triples =
    List.map
      (fun (c : Request.constr) -> (c.Request.attr, c.Request.value, c.weight))
      req.Request.constraints
  in
  (cb, get (Request.make ~type_id:req.Request.type_id (unknown :: triples)))

let seed_gen = QCheck2.Gen.int_range 0 100_000

let props =
  [
    prop "fixed agrees with float on random case bases" seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        Engine_fixed.agrees_with_float cb req);
    prop "rank_all is sorted descending (float)" seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        match Engine_float.rank_all cb req with
        | Error _ -> true
        | Ok ranked ->
            let rec sorted = function
              | [] | [ _ ] -> true
              | a :: (b :: _ as rest) ->
                  a.Retrieval.score >= b.Retrieval.score && sorted rest
            in
            sorted ranked);
    prop "scores lie in [0,1] (float)" seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        match Engine_float.rank_all cb req with
        | Error _ -> true
        | Ok ranked ->
            List.for_all
              (fun r -> r.Retrieval.score >= 0.0 && r.Retrieval.score <= 1.0)
              ranked);
    prop "fixed scores bounded by one + rounding slack" seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        match Engine_fixed.rank_all cb req with
        | Error _ -> true
        | Ok ranked ->
            (* Q15 weight rounding can push the sum a few ulp past one. *)
            List.for_all
              (fun r ->
                Fxp.Q15.to_raw r.Retrieval.score
                <= Fxp.Q15.to_raw Fxp.Q15.one + 8)
              ranked);
    prop "fixed score within the datapath error bound" seed_gen (fun seed ->
        (* The reciprocal constant carries up to 0.5 ulp of rounding
           error that the datapath multiplies by the distance d (the
           paper accepts this; it is what the silicon does).  With the
           generator's bounds (dmax <= 200, 20% slack) the worst case
           is ~0.5 * 240 ulp per attribute before weighting, plus a few
           ulp of weight/product rounding. *)
        let tolerance = ((0.5 *. 240.0) +. 8.0) *. Fxp.Q15.ulp in
        let cb, req = scenario_of_seed seed in
        match (Engine_float.rank_all cb req, Engine_fixed.rank_all cb req) with
        | Ok fs, Ok xs ->
            let fixed_of impl_id =
              List.find
                (fun r -> r.Retrieval.impl.Impl.id = impl_id)
                xs
            in
            List.for_all
              (fun (f : Engine_float.ranked) ->
                let x = fixed_of f.Retrieval.impl.Impl.id in
                Float.abs
                  (f.Retrieval.score -. Fxp.Q15.to_float x.Retrieval.score)
                <= tolerance)
              fs
        | _ -> true);
    prop "fixed, rtlsim and native are decision-identical" seed_gen
      (fun seed ->
        let identical (c, req) =
          let via name =
            match Result.bind (Engines.of_name name) (fun f -> f c) with
            | Error m -> Error (E.Engine_failure m)
            | Ok e -> e.E.retrieve req
          in
          match (via "fixed", via "rtlsim", via "native") with
          | Ok a, Ok b, Ok c ->
              a.E.impl_id = b.E.impl_id
              && b.E.impl_id = c.E.impl_id
              && Fxp.Q15.equal a.E.score b.E.score
              && Fxp.Q15.equal b.E.score c.E.score
          | Error _, Error _, Error _ -> true
          | _ -> false
        in
        identical (scenario_of_seed seed)
        && identical (wide_scenario_of_seed seed));
    prop_n 40 "all five engines agree on small random scenarios" seed_gen
      (fun seed ->
        (* Small sizes keep the gate-level netlist simulation cheap. *)
        let c =
          Workload.Generator.sized_casebase ~seed ~types:2 ~impls:3 ~attrs:3
        in
        let req = Workload.Generator.sized_request ~seed c in
        let via name =
          match Result.bind (Engines.of_name name) (fun f -> f c) with
          | Error m -> Error (E.Engine_failure m)
          | Ok e -> e.E.retrieve req
        in
        match Engine_fixed.best c req with
        | Error _ ->
            List.for_all
              (fun (name, _) -> Result.is_error (via name))
              Engines.bit_accurate
        | Ok expect ->
            let cycles =
              List.filter_map
                (fun (name, _) ->
                  match via name with
                  | Ok { E.cycles = Some n; _ } -> Some n
                  | _ -> None)
                Engines.bit_accurate
            in
            Engine_fixed.agrees_with_float c req
            && List.for_all
                 (fun (name, _) ->
                   match via name with
                   | Ok d ->
                       d.E.impl_id = expect.Retrieval.impl.Impl.id
                       && Fxp.Q15.equal d.E.score expect.Retrieval.score
                   | Error _ -> false)
                 Engines.bit_accurate
            && (match cycles with
               | [] -> false (* rtlsim and netlist must both report *)
               | h :: t -> List.for_all (fun n -> n = h) t));
    prop "n_best is a prefix of rank_all" seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        match (Engine_float.rank_all cb req, Engine_float.n_best ~n:3 cb req) with
        | Ok all, Ok top ->
            List.length top = min 3 (List.length all)
            && List.for_all2
                 (fun a b ->
                   a.Retrieval.impl.Impl.id = b.Retrieval.impl.Impl.id)
                 (List.filteri (fun i _ -> i < List.length top) all)
                 top
        | _ -> true);
  ]

(* --- Allocation ---------------------------------------------------------- *)

(* Minor-heap words per call of [f] over [n] calls.  The figure is exact
   per build: a retrieval allocates the same words every time. *)
let words_per_call n f =
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    f i
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* The native engine allocates its result (the decision record and its
   [Ok], 6 words) and nothing per constraint or per variant.  The
   bound leaves room for another compiler's layout. *)
let check_native_allocation cb requests =
  let retrieve = (get (Netlist.Compile.factory cb)).Engine.retrieve in
  let words =
    words_per_call (Array.length requests) (fun i ->
        ignore (Sys.opaque_identity (retrieve requests.(i))))
  in
  check_bool
    (Printf.sprintf "%.2f words per retrieval, at most 10" words)
    true (words <= 10.0)

let test_native_allocation_reference () =
  let rng = Workload.Prng.create ~seed:51 in
  let templates =
    Array.of_list
      (List.concat_map
         (fun p -> p.Desim.Apps.templates)
         Desim.Apps.standard_apps)
  in
  check_native_allocation Desim.Apps.reference_casebase
    (Array.init 1000 (fun i ->
         Desim.Apps.instantiate rng templates.(i mod Array.length templates)))

let test_native_allocation_sized () =
  let cb =
    Workload.Generator.sized_casebase ~seed:2004 ~types:15 ~impls:40 ~attrs:10
  in
  let rng = Workload.Prng.create ~seed:51 in
  check_native_allocation cb
    (Array.init 1000 (fun i ->
         Workload.Generator.request rng ~schema:cb.schema
           ~type_id:(1 + (i mod 15))
           {
             Workload.Generator.constraints = (10, 10);
             weight_profile = `Random;
             value_slack = 0.0;
           }))

let () =
  Alcotest.run "engines"
    [
      ( "table1",
        [
          Alcotest.test_case "exact scores" `Quick test_table1_exact_scores;
          Alcotest.test_case "paper rounding" `Quick test_table1_paper_rounding;
          Alcotest.test_case "ranking" `Quick test_table1_ranking;
          Alcotest.test_case "fixed engine" `Quick test_table1_fixed_engine;
          Alcotest.test_case "fixed close to float" `Quick
            test_fixed_close_to_float;
          Alcotest.test_case "fixed engine internals" `Quick
            test_fixed_engine_internals;
        ] );
      ( "api",
        [
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "n_best" `Quick test_n_best;
          Alcotest.test_case "threshold" `Quick test_threshold;
          Alcotest.test_case "tie breaking" `Quick test_tie_breaking_first_listed;
          Alcotest.test_case "missing attribute" `Quick
            test_missing_attribute_is_zero;
          Alcotest.test_case "unknown schema attribute" `Quick
            test_unknown_schema_attribute_is_zero;
          Alcotest.test_case "empty request" `Quick test_empty_request_scores_zero;
          Alcotest.test_case "amalgamation selection" `Quick
            test_amalgamation_selection;
          Alcotest.test_case "relaxation scenario" `Quick
            test_relaxed_request_scenario;
        ] );
      ( "cross-engine",
        [
          Alcotest.test_case "registry" `Quick test_engine_registry;
          Alcotest.test_case "bit-accurate engines match fixed" `Quick
            test_bit_accurate_engines_match_fixed;
          Alcotest.test_case "cycle-reporting engines agree" `Quick
            test_cycle_reporting_engines_agree;
          Alcotest.test_case "native ROM is the encoded image" `Quick
            test_native_rom_is_the_encoded_image;
          Alcotest.test_case "constraint-free request" `Quick
            test_constraint_free_request;
          Alcotest.test_case "identical variants" `Quick
            test_identical_variants;
          Alcotest.test_case "errors classified" `Quick
            test_engine_errors_classified;
          Alcotest.test_case "errors equal" `Quick test_engine_errors_equal;
          Alcotest.test_case "batch matches single" `Quick
            test_batch_matches_single;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "native retrieve, reference case base" `Quick
            test_native_allocation_reference;
          Alcotest.test_case "native retrieve, 15x40x10 case base" `Quick
            test_native_allocation_sized;
        ] );
      ("properties", props);
    ]
