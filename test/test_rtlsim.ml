(* Tests for the cycle-accurate hardware retrieval unit model. *)

open Qos_core
module M = Rtlsim.Machine

let get = function Ok x -> x | Error e -> Alcotest.fail e

let getr = function
  | Ok x -> x
  | Error e -> Alcotest.fail (Retrieval.error_to_string e)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

let run ?config ?trace () = M.retrieve ?config ?trace cb request

let get_m what = function
  | Ok o -> o
  | Error e -> Alcotest.fail (what ^ ": " ^ Retrieval.error_to_string e)

(* --- Correctness ---------------------------------------------------------- *)

let test_paper_example () =
  let o = get_m "run" (run ()) in
  check_int "best impl is DSP" 2 o.M.best_impl_id;
  check_int "score bit-equals fixed engine" 31588
    (Fxp.Q15.to_raw o.M.best_score);
  check_int "visits all three variants" 3 o.M.stats.M.impls_visited;
  check_int "nine attribute matches" 9 o.M.stats.M.attrs_matched;
  check_int "no missing attributes" 0 o.M.stats.M.attrs_missing

let test_matches_fixed_engine_exactly () =
  let o = get_m "run" (run ()) in
  let fixed = getr (Engine_fixed.best cb request) in
  check_int "impl" fixed.Retrieval.impl.Impl.id o.M.best_impl_id;
  check_int "raw score"
    (Fxp.Q15.to_raw fixed.Retrieval.score)
    (Fxp.Q15.to_raw o.M.best_score)

let test_errors () =
  let missing = get (Request.make ~type_id:42 [ (1, 16, 1.0) ]) in
  (match M.retrieve cb missing with
  | Error (Retrieval.Unknown_type 42) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_type");
  let empty_ft = get (Ftype.make ~id:9 ~name:"none" []) in
  let cb2 =
    get (Casebase.make ~name:"cb2" ~schema:cb.Casebase.schema [ empty_ft ])
  in
  let req9 = get (Request.make ~type_id:9 [])  in
  (match M.retrieve cb2 req9 with
  | Error (Retrieval.No_implementations 9) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected No_implementations")

let test_malformed_image () =
  (* A type pointer aimed at itself loops; the cycle limit must trip. *)
  let image = get (Memlayout.build_system cb request) in
  let words = Array.copy image.Memlayout.cb_mem in
  words.(1) <- 0 (* type 1's impl-list pointer now loops back to level 0 *);
  let broken = { image with Memlayout.cb_mem = words } in
  match M.run broken with
  | Error (Retrieval.Engine_failure _) -> ()
  | Ok _ ->
      (* Level-0 reinterpreted as impl list still terminates: that is
         acceptable non-looping behaviour, but the score must then be
         meaningless; accept either outcome as long as no exception. *)
      ()
  | Error e -> Alcotest.fail (Retrieval.error_to_string e)

let test_unknown_request_attribute () =
  (* Attribute 99 exists in no schema entry: the supplemental scan must
     report it missing and all engines agree on local similarity 0. *)
  let req = get (Request.make ~type_id:1 [ (1, 16, 1.0); (99, 5, 1.0) ]) in
  let o = get_m "run" (M.retrieve cb req) in
  let fixed = getr (Engine_fixed.best cb req) in
  check_int "same impl" fixed.Retrieval.impl.Impl.id o.M.best_impl_id;
  check_int "same score"
    (Fxp.Q15.to_raw fixed.Retrieval.score)
    (Fxp.Q15.to_raw o.M.best_score);
  check_bool "missing attributes counted" true (o.M.stats.M.attrs_missing > 0)

let test_empty_request () =
  (* No constraints: every variant scores zero; first listed wins. *)
  let req = get (Request.make ~type_id:1 []) in
  let o = get_m "run" (M.retrieve cb req) in
  check_int "first listed wins" 1 o.M.best_impl_id;
  check_int "score zero" 0 (Fxp.Q15.to_raw o.M.best_score);
  check_int "no attribute work" 0
    (o.M.stats.M.attrs_matched + o.M.stats.M.attrs_missing)

let test_far_out_of_bounds_value () =
  (* A request value far outside the bounds drives d * recip past one:
     the complement clamps local similarity to zero (the saturation
     path of the datapath). *)
  let req = get (Request.make ~type_id:1 [ (4, 60000, 1.0) ]) in
  let o = get_m "run" (M.retrieve cb req) in
  let fixed = getr (Engine_fixed.best cb req) in
  check_int "same impl under saturation" fixed.Retrieval.impl.Impl.id
    o.M.best_impl_id;
  check_int "clamped to zero" 0 (Fxp.Q15.to_raw o.M.best_score)

(* --- Cycle model ----------------------------------------------------------- *)

let test_stats_consistency () =
  let o = get_m "run" (run ()) in
  let s = o.M.stats in
  check_bool "cycles cover all counted operations" true
    (s.M.cycles >= s.M.cb_accesses + s.M.req_accesses + s.M.mult_ops);
  check_bool "positive work" true (s.M.cycles > 0 && s.M.cb_accesses > 0);
  (* Each matched attribute costs exactly two multiplies (recip, weight);
     each missing one costs one (weight). *)
  check_int "mult ops" (2 * s.M.attrs_matched + s.M.attrs_missing) s.M.mult_ops

let test_compacted_is_faster () =
  let base = get_m "base" (run ()) in
  let compacted =
    get_m "compacted"
      (run ~config:{ M.paper_config with M.compacted = true } ())
  in
  check_int "same answer" base.M.best_impl_id compacted.M.best_impl_id;
  check_int "same score"
    (Fxp.Q15.to_raw base.M.best_score)
    (Fxp.Q15.to_raw compacted.M.best_score);
  check_bool "fewer cycles" true
    (compacted.M.stats.M.cycles < base.M.stats.M.cycles)

let test_restart_scan_is_slower_or_equal () =
  let base = get_m "base" (run ()) in
  let restart =
    get_m "restart" (run ~config:{ M.paper_config with M.resume_scan = false } ())
  in
  check_int "same answer" base.M.best_impl_id restart.M.best_impl_id;
  check_bool "resume scan never loses" true
    (restart.M.stats.M.cycles >= base.M.stats.M.cycles)

let test_divider_is_slower () =
  let base = get_m "base" (run ()) in
  let divider =
    get_m "divider" (run ~config:{ M.paper_config with M.use_divider = true } ())
  in
  check_int "same answer" base.M.best_impl_id divider.M.best_impl_id;
  check_bool "divider costs cycles" true
    (divider.M.stats.M.cycles > base.M.stats.M.cycles);
  (* Reciprocal-multiply and true division may differ in the last ulp. *)
  check_bool "score within 2 ulp" true
    (abs (Fxp.Q15.to_raw divider.M.best_score - Fxp.Q15.to_raw base.M.best_score)
    <= 2)

let test_registered_bram () =
  let base = get_m "base" (run ()) in
  let registered =
    get_m "registered"
      (run ~config:{ M.paper_config with M.registered_bram = true } ())
  in
  check_int "same answer" base.M.best_impl_id registered.M.best_impl_id;
  (* Every memory access gains exactly one wait state. *)
  check_int "one extra cycle per access"
    (base.M.stats.M.cycles + base.M.stats.M.cb_accesses
   + base.M.stats.M.req_accesses)
    registered.M.stats.M.cycles

let test_trace () =
  let quiet = get_m "quiet" (run ()) in
  check_int "no trace by default" 0 (List.length quiet.M.trace);
  let traced = get_m "traced" (run ~trace:true ()) in
  check_bool "trace collected" true (List.length traced.M.trace > 0);
  check_bool "trace mentions the winner" true
    (List.exists
       (fun line ->
         (* "new best: impl 2 ..." appears for the DSP win. *)
         let has_sub s sub =
           let n = String.length s and m = String.length sub in
           let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
           at 0
         in
         has_sub line "new best: impl 2")
       traced.M.trace)

let test_stream_matches_individual_runs () =
  let requests =
    [
      request;
      Scenario_audio.relaxed_request;
      get (Request.make ~type_id:2 [ (1, 16, 1.0); (4, 40, 1.0) ]);
      get (Request.make ~type_id:42 [ (1, 16, 1.0) ]);
    ]
  in
  match M.retrieve_stream cb requests with
  | Error e -> Alcotest.fail e
  | Ok results ->
      check_int "one result per request" 4 (List.length results);
      List.iter2
        (fun streamed req ->
          match (streamed, M.retrieve cb req) with
          | Ok a, Ok b ->
              check_int "same impl" b.M.best_impl_id a.M.best_impl_id;
              check_int "same score"
                (Fxp.Q15.to_raw b.M.best_score)
                (Fxp.Q15.to_raw a.M.best_score)
          | Error (Retrieval.Unknown_type a), Error (Retrieval.Unknown_type b)
            ->
              check_int "same missing type" b a
          | _ -> Alcotest.fail "stream/individual divergence")
        results requests

(* --- N-best (Sec. 5 extension) ---------------------------------------------- *)

let test_nbest_matches_fixed_engine () =
  let o =
    match M.retrieve_nbest ~k:3 cb request with
    | Ok o -> o
    | Error e -> Alcotest.fail (Retrieval.error_to_string e)
  in
  Alcotest.(check (list (pair int int)))
    "full ranking with scores"
    [ (2, 31588); (1, 27947); (3, 14102) ]
    (List.map (fun (id, s) -> (id, Fxp.Q15.to_raw s)) o.M.ranked)

let test_nbest_truncates () =
  let o =
    match M.retrieve_nbest ~k:2 cb request with
    | Ok o -> o
    | Error e -> Alcotest.fail (Retrieval.error_to_string e)
  in
  check_int "keeps two" 2 (List.length o.M.ranked);
  Alcotest.(check (list int))
    "the two best" [ 2; 1 ]
    (List.map fst o.M.ranked)

let test_nbest_validation () =
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Machine.run_nbest: k must be at least 1") (fun () ->
      ignore
        (M.run_nbest ~k:0 (get (Memlayout.build_system cb request))));
  let missing = get (Request.make ~type_id:42 [ (1, 16, 1.0) ]) in
  match M.retrieve_nbest ~k:2 cb missing with
  | Error (Retrieval.Unknown_type 42) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected Unknown_type"

let test_nbest_costs_more_cycles () =
  let single = get_m "single" (run ()) in
  let o =
    match M.retrieve_nbest ~k:4 cb request with
    | Ok o -> o
    | Error e -> Alcotest.fail (Retrieval.error_to_string e)
  in
  check_bool "insertion chain costs cycles" true
    (o.M.nbest_stats.M.cycles >= single.M.stats.M.cycles)

let test_pipelined_config () =
  let base = get_m "base" (run ()) in
  let piped = get_m "piped" (run ~config:M.pipelined_config ()) in
  check_int "same answer" base.M.best_impl_id piped.M.best_impl_id;
  check_int "same score"
    (Fxp.Q15.to_raw base.M.best_score)
    (Fxp.Q15.to_raw piped.M.best_score);
  check_bool "at least 2x fewer cycles on memory-bound work" true
    (float_of_int base.M.stats.M.cycles
     /. float_of_int piped.M.stats.M.cycles
    >= 1.8);
  (* Operations are still counted even though they cost no cycles. *)
  check_int "mult ops still counted" base.M.stats.M.mult_ops
    piped.M.stats.M.mult_ops

(* --- Waveform / VCD ----------------------------------------------------------- *)

let test_waveform_capture () =
  let quiet = get_m "quiet" (run ()) in
  check_int "no samples by default" 0 (List.length quiet.M.waveform);
  let o = get_m "wave" (M.retrieve ~waveform:true cb request) in
  check_bool "samples recorded" true (List.length o.M.waveform > 50);
  (* The final best_score sample equals the delivered score. *)
  let last_best =
    List.fold_left
      (fun acc (c : Rtlsim.Vcd.change) ->
        if String.equal c.Rtlsim.Vcd.signal "best_score" then
          Some c.Rtlsim.Vcd.value
        else acc)
      None o.M.waveform
  in
  check_int "final best_score sample" (Fxp.Q15.to_raw o.M.best_score)
    (Option.get last_best);
  check_bool "cycles are non-decreasing" true
    (let rec mono last = function
       | [] -> true
       | (c : Rtlsim.Vcd.change) :: rest ->
           c.Rtlsim.Vcd.at_cycle >= last && mono c.Rtlsim.Vcd.at_cycle rest
     in
     mono 0 o.M.waveform)

let test_vcd_render () =
  let o = get_m "wave" (M.retrieve ~waveform:true cb request) in
  match Rtlsim.Vcd.render ~signals:M.waveform_signals o.M.waveform with
  | Error e -> Alcotest.fail e
  | Ok text ->
      let contains needle =
        let n = String.length text and m = String.length needle in
        let rec at i = i + m <= n && (String.sub text i m = needle || at (i + 1)) in
        at 0
      in
      check_bool "header" true (contains "$enddefinitions $end");
      check_bool "declares acc" true (contains "$var wire 16 $ acc $end");
      check_bool "binary values present" true (contains "b0");
      check_bool "timestamped" true (contains "#1")

let test_vcd_validation () =
  let signals = [ { Rtlsim.Vcd.signal_name = "s"; width = 4 } ] in
  check_bool "unknown signal" true
    (Result.is_error
       (Rtlsim.Vcd.render ~signals
          [ { Rtlsim.Vcd.at_cycle = 0; signal = "t"; value = 1 } ]));
  check_bool "value too wide" true
    (Result.is_error
       (Rtlsim.Vcd.render ~signals
          [ { Rtlsim.Vcd.at_cycle = 0; signal = "s"; value = 16 } ]));
  check_bool "negative cycle" true
    (Result.is_error
       (Rtlsim.Vcd.render ~signals
          [ { Rtlsim.Vcd.at_cycle = -1; signal = "s"; value = 1 } ]));
  check_bool "duplicate signals" true
    (Result.is_error
       (Rtlsim.Vcd.render
          ~signals:
            [
              { Rtlsim.Vcd.signal_name = "s"; width = 1 };
              { Rtlsim.Vcd.signal_name = "s"; width = 2 };
            ]
          []));
  check_bool "bad width" true
    (Result.is_error
       (Rtlsim.Vcd.render
          ~signals:[ { Rtlsim.Vcd.signal_name = "s"; width = 0 } ]
          []));
  (* Single-bit signals render scalar style. *)
  match
    Rtlsim.Vcd.render
      ~signals:[ { Rtlsim.Vcd.signal_name = "bit"; width = 1 } ]
      [ { Rtlsim.Vcd.at_cycle = 3; signal = "bit"; value = 1 } ]
  with
  | Ok text ->
      check_bool "scalar change" true
        (let needle = "1!" in
         let n = String.length text and m = String.length needle in
         let rec at i = i + m <= n && (String.sub text i m = needle || at (i + 1)) in
         at 0)
  | Error e -> Alcotest.fail e

(* --- Equivalence properties ------------------------------------------------- *)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

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
        attrs_per_impl = (1, 6);
      }
  in
  let req =
    Workload.Generator.request rng ~schema ~type_id:1
      {
        Workload.Generator.constraints = (1, 6);
        weight_profile = `Random;
        value_slack = 0.15;
      }
  in
  (cb, req)

let seed_gen = QCheck2.Gen.int_range 0 100_000

(* Oracle for the divider configuration: each variant's score, in
   case-base order, with [quotient ~d ~dmax] as the Q15 distance
   d / (dmax + 1) inside [Engine_fixed]'s weighting and sum.  It rounds
   the normalised weights itself, not through [Request.constr.q15], so
   it does not share the weight rule with the code it checks. *)
let oracle_scores ~quotient (cb : Casebase.t) (req : Request.t) =
  match Casebase.find_type cb req.Request.type_id with
  | None -> []
  | Some ft ->
      let weights =
        List.map
          (fun (aid, v, w) -> (aid, v, Fxp.Q15.of_float w))
          (Request.normalized_weights req)
      in
      let score impl =
        List.fold_left
          (fun acc (aid, rvalue, weight) ->
            let local =
              match
                ( Impl.find_attr impl aid,
                  Attr.Schema.dmax cb.Casebase.schema aid )
              with
              | Some cvalue, Some dmax ->
                  Fxp.Q15.complement_to_one
                    (quotient ~d:(Fxp.Q15.abs_diff_int rvalue cvalue) ~dmax)
              | _ -> Fxp.Q15.zero
            in
            Fxp.Q15.add acc (Fxp.Q15.mul local weight))
          Fxp.Q15.zero weights
      in
      List.map (fun impl -> (impl.Impl.id, score impl)) ft.Ftype.impls

(* The reciprocal datapath's quotient: d times the Q15 (1 + dmax)^-1. *)
let reciprocal_quotient ~d ~dmax = Fxp.Q15.mul_int (Fxp.Q15.recip_succ dmax) d

(* The divider's quotient, rounded to nearest as [Machine] divides. *)
let exact_quotient ~d ~dmax =
  let dm1 = dmax + 1 in
  Fxp.Q15.of_raw_exn
    (min (((d lsl 15) + (dm1 / 2)) / dm1) (Fxp.Q15.to_raw Fxp.Q15.max_value))

(* The first variant with the highest score: a later one must score
   strictly higher to replace it, as in the machine. *)
let oracle_best scores =
  List.fold_left
    (fun best (id, score) ->
      match best with
      | Some (_, top) when Fxp.Q15.compare score top <= 0 -> best
      | Some _ | None -> Some (id, score))
    None scores

(* The divider picks the best variant under exact division, with its
   score: the two datapaths round the quotient differently, so on
   near-ties its pick can differ from the reciprocal path's. *)
let divider_picks_exact_best seed =
  let cb, req = scenario_of_seed seed in
  match
    ( M.retrieve ~config:{ M.paper_config with M.use_divider = true } cb req,
      oracle_best (oracle_scores ~quotient:exact_quotient cb req) )
  with
  | Ok o, Some (id, score) ->
      o.M.best_impl_id = id && Fxp.Q15.equal o.M.best_score score
  | Error (Retrieval.Unknown_type _), None
  | Error (Retrieval.No_implementations _), None ->
      true
  | _ -> false

let test_divider_near_ties () =
  (* The two seeds of 0..100,000 at which the divider's pick scores
     more than 8 ulp below the reciprocal path's best. *)
  List.iter
    (fun seed ->
      check_bool
        (Printf.sprintf "seed %d: best under exact division" seed)
        true
        (divider_picks_exact_best seed);
      let cb, req = scenario_of_seed seed in
      let divider =
        get_m "divider"
          (M.retrieve ~config:{ M.paper_config with M.use_divider = true } cb req)
      in
      check_bool
        (Printf.sprintf "seed %d: the reciprocal path picks another" seed)
        true
        ((getr (Engine_fixed.best cb req)).Retrieval.impl.Impl.id
        <> divider.M.best_impl_id))
    [ 37700; 78596 ]

let equivalent config seed =
  let cb, req = scenario_of_seed seed in
  match (M.retrieve ~config cb req, Engine_fixed.best cb req) with
  | Ok o, Ok fixed ->
      o.M.best_impl_id = fixed.Retrieval.impl.Impl.id
      && Fxp.Q15.equal o.M.best_score fixed.Retrieval.score
  | Error (Retrieval.Unknown_type _), Error (Retrieval.Unknown_type _) -> true
  | ( Error (Retrieval.No_implementations _),
      Error (Retrieval.No_implementations _) ) ->
      true
  | _ -> false

let props =
  [
    prop "paper config bit-equals fixed engine" seed_gen
      (equivalent M.paper_config);
    prop "compacted config bit-equals fixed engine" seed_gen
      (equivalent { M.paper_config with M.compacted = true });
    prop "restart-scan config bit-equals fixed engine" seed_gen
      (equivalent { M.paper_config with M.resume_scan = false });
    prop "registered-BRAM config bit-equals fixed engine" seed_gen
      (equivalent { M.paper_config with M.registered_bram = true });
    prop "compacted never uses more cycles" seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        match
          ( M.retrieve cb req,
            M.retrieve ~config:{ M.paper_config with M.compacted = true } cb req
          )
        with
        | Ok a, Ok b -> b.M.stats.M.cycles <= a.M.stats.M.cycles
        | Error _, Error _ -> true
        | _ -> false);
    prop "resume scan never uses more cycles than restart" seed_gen
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match
          ( M.retrieve cb req,
            M.retrieve
              ~config:{ M.paper_config with M.resume_scan = false }
              cb req )
        with
        | Ok resume, Ok restart ->
            resume.M.stats.M.cycles <= restart.M.stats.M.cycles
        | Error _, Error _ -> true
        | _ -> false);
    prop "divider config picks a same-score winner" seed_gen
      divider_picks_exact_best;
    prop "divider oracle on the reciprocal path equals the fixed engine"
      seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        let fixed =
          match Casebase.find_type cb req.Request.type_id with
          | None -> []
          | Some ft ->
              List.map
                (fun impl ->
                  ( impl.Impl.id,
                    Engine_fixed.score_impl cb.Casebase.schema req impl ))
                ft.Ftype.impls
        in
        List.equal
          (fun (a, s) (b, t) -> a = b && Fxp.Q15.equal s t)
          fixed
          (oracle_scores ~quotient:reciprocal_quotient cb req));
  ]

let nbest_props =
  [
    prop "hardware n-best equals the fixed engine's n-best" seed_gen
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match
          (M.retrieve_nbest ~k:3 cb req, Engine_fixed.n_best ~n:3 cb req)
        with
        | Ok o, Ok expected ->
            List.length o.M.ranked = List.length expected
            && List.for_all2
                 (fun (id, s) (r : Engine_fixed.ranked) ->
                   id = r.Retrieval.impl.Impl.id
                   && Fxp.Q15.equal s r.Retrieval.score)
                 o.M.ranked expected
        | Error (Retrieval.Unknown_type _), Error (Retrieval.Unknown_type _) ->
            true
        | ( Error (Retrieval.No_implementations _),
            Error (Retrieval.No_implementations _) ) ->
            true
        | _ -> false);
    prop "n-best with k=1 equals single-best" seed_gen (fun seed ->
        let cb, req = scenario_of_seed seed in
        match (M.retrieve_nbest ~k:1 cb req, M.retrieve cb req) with
        | Ok o, Ok single -> (
            match o.M.ranked with
            | [ (id, s) ] ->
                id = single.M.best_impl_id
                && Fxp.Q15.equal s single.M.best_score
            | _ -> false)
        | Error _, Error _ -> true
        | _ -> false);
    prop "pipelined config bit-equals fixed engine" seed_gen
      (equivalent M.pipelined_config);
  ]

let () =
  Alcotest.run "rtlsim"
    [
      ( "correctness",
        [
          Alcotest.test_case "paper example" `Quick test_paper_example;
          Alcotest.test_case "matches fixed engine" `Quick
            test_matches_fixed_engine_exactly;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "malformed image" `Quick test_malformed_image;
          Alcotest.test_case "unknown request attribute" `Quick
            test_unknown_request_attribute;
          Alcotest.test_case "empty request" `Quick test_empty_request;
          Alcotest.test_case "saturation clamp" `Quick
            test_far_out_of_bounds_value;
        ] );
      ( "cycle model",
        [
          Alcotest.test_case "stats consistency" `Quick test_stats_consistency;
          Alcotest.test_case "compacted faster" `Quick test_compacted_is_faster;
          Alcotest.test_case "restart slower" `Quick
            test_restart_scan_is_slower_or_equal;
          Alcotest.test_case "divider slower" `Quick test_divider_is_slower;
          Alcotest.test_case "divider near ties" `Quick test_divider_near_ties;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "registered bram" `Quick test_registered_bram;
          Alcotest.test_case "pipelined" `Quick test_pipelined_config;
          Alcotest.test_case "stream retrieval" `Quick
            test_stream_matches_individual_runs;
        ] );
      ( "waveform",
        [
          Alcotest.test_case "capture" `Quick test_waveform_capture;
          Alcotest.test_case "vcd render" `Quick test_vcd_render;
          Alcotest.test_case "vcd validation" `Quick test_vcd_validation;
        ] );
      ( "n-best",
        [
          Alcotest.test_case "matches fixed engine" `Quick
            test_nbest_matches_fixed_engine;
          Alcotest.test_case "truncates" `Quick test_nbest_truncates;
          Alcotest.test_case "validation" `Quick test_nbest_validation;
          Alcotest.test_case "insertion cost" `Quick
            test_nbest_costs_more_cycles;
        ] );
      ("properties", props @ nbest_props);
    ]
