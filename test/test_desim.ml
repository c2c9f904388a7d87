(* Tests for the discrete-event engine, the application models and the
   full-system simulation. *)

module H = Desim.Heap
module E = Desim.Engine
module A = Desim.Apps
module S = Desim.Simulate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Heap ------------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = H.create () in
  check_bool "empty" true (H.is_empty h);
  List.iter
    (fun (t, v) -> H.push h ~time:t v)
    [ (5.0, "e"); (1.0, "a"); (3.0, "c"); (2.0, "b"); (4.0, "d") ];
  check_int "size" 5 (H.size h);
  check_bool "peek" true (H.peek_time h = Some 1.0);
  let order = List.init 5 (fun _ -> snd (Option.get (H.pop h))) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d"; "e" ] order;
  check_bool "drained" true (H.pop h = None)

let test_heap_stable_ties () =
  let h = H.create () in
  List.iter (fun v -> H.push h ~time:1.0 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> snd (Option.get (H.pop h))) in
  Alcotest.(check (list int)) "ties fire in insertion order" [ 1; 2; 3; 4 ] order

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let heap_props =
  [
    prop "heap pops in non-decreasing time order"
      QCheck2.Gen.(list_size (int_range 0 200) (float_range 0.0 1000.0))
      (fun times ->
        let h = H.create () in
        List.iter (fun t -> H.push h ~time:t ()) times;
        let rec drain last =
          match H.pop h with
          | None -> true
          | Some (t, ()) -> t >= last && drain t
        in
        drain neg_infinity);
    prop "heap size tracks pushes and pops"
      QCheck2.Gen.(list_size (int_range 0 50) (float_range 0.0 10.0))
      (fun times ->
        let h = H.create () in
        List.iter (fun t -> H.push h ~time:t ()) times;
        H.size h = List.length times);
  ]

(* --- Engine ------------------------------------------------------------------- *)

let test_engine_ordering () =
  let engine = E.create () in
  let log = ref [] in
  E.schedule engine ~delay:10.0 (fun _ -> log := "late" :: !log);
  E.schedule engine ~delay:1.0 (fun e ->
      log := "early" :: !log;
      E.schedule e ~delay:2.0 (fun _ -> log := "nested" :: !log));
  let fired = E.run engine in
  check_int "three events" 3 fired;
  Alcotest.(check (list string))
    "order" [ "early"; "nested"; "late" ] (List.rev !log);
  check_bool "clock at last event" true (E.now engine = 10.0)

let test_engine_until () =
  let engine = E.create () in
  let count = ref 0 in
  List.iter
    (fun d -> E.schedule engine ~delay:d (fun _ -> incr count))
    [ 1.0; 2.0; 50.0 ];
  let fired = E.run ~until:10.0 engine in
  check_int "two within the horizon" 2 fired;
  check_int "one pending" 1 (E.pending engine)

let test_engine_validation () =
  let engine = E.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative or non-finite delay")
    (fun () -> E.schedule engine ~delay:(-1.0) (fun _ -> ()));
  E.schedule engine ~delay:5.0 (fun _ -> ());
  let _ = E.run engine in
  check_bool "schedule in the past rejected" true
    (try
       E.schedule_at engine ~time:1.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* --- Apps --------------------------------------------------------------------- *)

let test_reference_casebase () =
  let stats = Qos_core.Casebase.stats A.reference_casebase in
  check_int "six function types" 6 stats.Qos_core.Casebase.type_count;
  check_int "three variants each" 18 stats.Qos_core.Casebase.impl_count;
  check_int "four applications" 4 (List.length A.standard_apps)

let test_instantiate_jitter () =
  let rng = Workload.Prng.create ~seed:3 in
  let template =
    {
      A.t_type_id = 1;
      t_constraints = [ (1, 16, 4, 1.0); (4, 40, 0, 2.0) ];
    }
  in
  for _ = 1 to 50 do
    let r = A.instantiate rng template in
    let c1 = Option.get (Qos_core.Request.find r 1) in
    let c4 = Option.get (Qos_core.Request.find r 4) in
    check_bool "jitter within bounds" true
      (c1.Qos_core.Request.value >= 12 && c1.Qos_core.Request.value <= 20);
    check_int "no jitter is exact" 40 c4.Qos_core.Request.value
  done

let test_instantiate_clamps () =
  let rng = Workload.Prng.create ~seed:3 in
  let template =
    { A.t_type_id = 1; t_constraints = [ (1, 1, 5, 1.0) ] }
  in
  for _ = 1 to 30 do
    let r = A.instantiate rng template in
    let c = Option.get (Qos_core.Request.find r 1) in
    check_bool "clamped at zero" true (c.Qos_core.Request.value >= 0)
  done

(* A template without jitter compiles to one request that every draw
   returns: no draw from the rng, and no allocation. *)
let test_no_jitter_draw_shares_base () =
  let template = List.hd A.automotive_ecu.A.templates in
  let compiled = Result.get_ok (A.compile template) in
  let rng = Workload.Prng.create ~seed:51 in
  let witness = Workload.Prng.copy rng in
  let first = A.draw rng compiled in
  let others = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    if Sys.opaque_identity (A.draw rng compiled) != first then incr others
  done;
  let words = (Gc.minor_words () -. before) /. 1000.0 in
  check_int "every draw is the base request" 0 !others;
  check_bool (Printf.sprintf "%.2f words per draw" words) true (words = 0.0);
  check_bool "equals Request.make at the nominal values" true
    (Qos_core.Request.equal first
       (Result.get_ok
          (Qos_core.Request.make ~type_id:template.A.t_type_id
             (List.map
                (fun (a, v, _, w) -> (a, v, w))
                template.A.t_constraints))));
  check_bool "no rng draw" true
    (Int64.equal (Workload.Prng.int64 rng) (Workload.Prng.int64 witness))

(* --- Simulation ------------------------------------------------------------------ *)

let test_simulation_deterministic () =
  let spec = S.default_spec () in
  let a = S.run spec in
  let b = S.run spec in
  check_bool "identical reports for identical seeds" true (a = b);
  let c = S.run { spec with S.seed = 43 } in
  check_bool "different seed, different trace" true (a <> c)

let test_simulation_consistency () =
  let report = S.run (S.default_spec ()) in
  let t = report.S.totals in
  check_int "grants + refusals = requests" t.S.requests
    (t.S.grants + t.S.refusals);
  check_bool "work happened" true (t.S.requests > 50);
  check_bool "similarity averages into [0,1]" true
    (S.mean_similarity t >= 0.0 && S.mean_similarity t <= 1.0);
  check_bool "grant rate into [0,1]" true
    (S.grant_rate t >= 0.0 && S.grant_rate t <= 1.0);
  check_bool "bypass tokens get hits in steady state" true
    (t.S.bypass_grants > 0);
  check_bool "per-app sums equal totals" true
    (t.S.requests
    = List.fold_left (fun acc (_, m) -> acc + m.S.requests) 0 report.S.per_app);
  check_bool "resident tasks non-negative" true
    (report.S.tasks_resident_at_end >= 0)

let test_simulation_short_horizon () =
  let spec = { (S.default_spec ()) with S.duration_us = 1_000.0 } in
  let report = S.run spec in
  check_bool "short run, little work" true (report.S.totals.S.requests < 10)

let test_simulation_tight_system () =
  (* A platform with almost no resources refuses or degrades. *)
  let dev id target capacity =
    match Allocator.Device.make ~device_id:id ~target ~capacity () with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let spec =
    {
      (S.default_spec ()) with
      S.devices = [ dev "gpp0" Qos_core.Target.Gpp 2 ];
    }
  in
  let report = S.run spec in
  let generous = S.run (S.default_spec ()) in
  check_bool "tight system satisfies less or worse" true
    (S.grant_rate report.S.totals < S.grant_rate generous.S.totals
    || S.mean_similarity report.S.totals
       < S.mean_similarity generous.S.totals);
  check_bool "still simulates" true (report.S.totals.S.requests > 0)

let test_energy_accounting () =
  let report = S.run (S.default_spec ()) in
  check_bool "energy accumulated" true (report.S.totals.S.energy_uj_sum > 0.0);
  let per_app_total =
    List.fold_left
      (fun acc (_, m) -> acc +. m.S.energy_uj_sum)
      0.0 report.S.per_app
  in
  check_bool "per-app energies sum to total" true
    (Float.abs (per_app_total -. report.S.totals.S.energy_uj_sum) < 1e-6);
  (* A lower-power platform (ASIC/DSP rich) should cost less energy per
     grant than running everything on the GPP at 40 mW/slot... the FPGA
     variants dominate here, so simply check the software-only run
     differs. *)
  let dev id target capacity =
    match Allocator.Device.make ~device_id:id ~target ~capacity () with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let sw_only =
    S.run
      {
        (S.default_spec ()) with
        S.devices = [ dev "gpp0" Qos_core.Target.Gpp 8 ];
      }
  in
  check_bool "platform changes the energy picture" true
    (Float.abs
       (sw_only.S.totals.S.energy_uj_sum -. report.S.totals.S.energy_uj_sum)
    > 1.0)

module T = Desim.Tracefile

let test_trace_collection () =
  let spec = { (S.default_spec ()) with S.collect_trace = true } in
  let report = S.run spec in
  check_int "one row per request" report.S.totals.S.requests
    (List.length report.S.trace);
  let analysis = T.analyze report.S.trace in
  check_int "granted + bypass + refused = rows" analysis.T.total
    (analysis.T.granted + analysis.T.bypassed + analysis.T.refused);
  check_int "bypass rows match metrics" report.S.totals.S.bypass_grants
    analysis.T.bypassed;
  check_bool "rows are time-ordered" true
    (let rec ordered = function
       | [] | [ _ ] -> true
       | a :: (b :: _ as rest) ->
           a.T.time_us <= b.T.time_us && ordered rest
     in
     ordered report.S.trace);
  check_bool "no trace when disabled" true
    ((S.run (S.default_spec ())).S.trace = [])

let test_trace_csv_roundtrip () =
  let spec =
    { (S.default_spec ()) with S.collect_trace = true; S.duration_us = 50_000.0 }
  in
  let report = S.run spec in
  let csv = T.to_csv report.S.trace in
  match T.of_csv csv with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      check_int "row count survives" (List.length report.S.trace)
        (List.length rows);
      check_bool "fields survive" true
        (List.for_all2
           (fun (a : T.row) (b : T.row) ->
             String.equal a.T.app_id b.T.app_id
             && a.T.type_id = b.T.type_id && a.T.outcome = b.T.outcome
             && a.T.impl_id = b.T.impl_id
             && String.equal a.T.device_id b.T.device_id
             && a.T.rounds = b.T.rounds
             && Float.abs (a.T.similarity -. b.T.similarity) < 1e-5
             && Float.abs (a.T.setup_us -. b.T.setup_us) < 1e-2)
           report.S.trace rows)

(* Generator producing rows whose float fields survive the %.3f / %.6f
   formatting of [to_csv] exactly, so equality (not tolerance) can be
   checked after the round-trip. *)
let trace_row_gen =
  let open QCheck2.Gen in
  let ident =
    let* len = int_range 1 8 in
    let* chars =
      list_size (return len)
        (oneof [ char_range 'a' 'z'; char_range '0' '9'; return '_' ])
    in
    return (String.init len (List.nth chars))
  in
  let milli = map (fun k -> float_of_int k /. 1000.0) (int_range 0 5_000_000) in
  let micro = map (fun k -> float_of_int k /. 1e6) (int_range 0 1_000_000) in
  let* time_us = milli in
  let* app_id = ident in
  let* type_id = int_range 0 99 in
  let* outcome = oneofl [ T.Granted; T.Granted_bypass; T.Refused ] in
  let* impl_id = int_range 0 99 in
  let* device_id = ident in
  let* similarity = micro in
  let* setup_us = milli in
  let* rounds = int_range 0 9 in
  return
    {
      T.time_us;
      app_id;
      type_id;
      outcome;
      impl_id;
      device_id;
      similarity;
      setup_us;
      rounds;
    }

let trace_props =
  [
    prop "trace CSV round-trips exactly over generated rows"
      QCheck2.Gen.(list_size (int_range 0 40) trace_row_gen)
      (fun rows ->
        match T.of_csv (T.to_csv rows) with
        | Error _ -> false
        | Ok back -> back = rows);
  ]

(* Templates as anyone could write them: IDs in any order, duplicates
   now and then, jitter 0 or not, nominal values at and beyond both
   ends of the word range, and weights that are sometimes not
   positive. *)
let template_gen =
  let open QCheck2.Gen in
  let top = Qos_core.Attr.max_word in
  let id =
    frequency [ (4, int_range 1 12); (1, pure top); (1, int_range 1 top) ]
  in
  let value =
    frequency
      [
        (2, int_range (-20) 20);
        (2, int_range (top - 20) (top + 20));
        (2, int_range 0 top);
        (1, pure 0);
        (1, pure top);
      ]
  in
  let jitter = frequency [ (1, pure 0); (2, int_range 1 40) ] in
  let weight =
    frequency
      [
        (12, float_range 0.001 10.0);
        (1, pure 0.0);
        (1, float_range (-5.0) 0.0);
      ]
  in
  let constr = tup4 id value jitter weight in
  map2
    (fun t_type_id t_constraints -> { A.t_type_id; t_constraints })
    (int_range 1 top)
    (list_size (int_range 0 8) constr)

(* The reference a compiled draw must equal: jitter in template order,
   clamp, then [Request.make] on the triples. *)
let make_path rng (template : A.template) =
  Qos_core.Request.make ~type_id:template.A.t_type_id
    (List.map
       (fun (aid, value, jitter, weight) ->
         let value =
           if jitter = 0 then value
           else value + Workload.Prng.int_in rng ~lo:(-jitter) ~hi:jitter
         in
         (aid, min (max value 0) Qos_core.Attr.max_word, weight))
       template.A.t_constraints)

let same_request (a : Qos_core.Request.t) (b : Qos_core.Request.t) =
  Qos_core.Request.equal a b
  && List.for_all2
       (fun (x : Qos_core.Request.constr) (y : Qos_core.Request.constr) ->
         Fxp.Q15.equal x.Qos_core.Request.q15 y.Qos_core.Request.q15)
       a.Qos_core.Request.constraints b.Qos_core.Request.constraints

let template_props =
  [
    prop "a compiled draw is Request.make on the jittered values"
      QCheck2.Gen.(pair template_gen (int_range 0 1_000_000))
      (fun (template, seed) ->
        let rng = Workload.Prng.create ~seed in
        let reference = Workload.Prng.copy rng in
        match A.compile template with
        | Error e ->
            (* Refused as [Request.make] refuses the nominal triples. *)
            let nominal = Workload.Prng.create ~seed:0 in
            let zero_jitter =
              {
                template with
                A.t_constraints =
                  List.map (fun (a, v, _, w) -> (a, v, 0, w))
                    template.A.t_constraints;
              }
            in
            make_path nominal zero_jitter = Error e
            && Result.is_error (make_path reference template)
        | Ok compiled ->
            (* Three draws from one compiled template, so a later draw
               cannot disturb an earlier request. *)
            let got = List.init 3 (fun _ -> A.draw rng compiled) in
            let expected =
              List.init 3 (fun _ ->
                  Result.get_ok (make_path reference template))
            in
            List.for_all2 same_request got expected
            && Int64.equal (Workload.Prng.int64 rng)
                 (Workload.Prng.int64 reference));
  ]

let test_trace_csv_field_validation () =
  let row id =
    {
      T.time_us = 1.0;
      app_id = id;
      type_id = 0;
      outcome = T.Granted;
      impl_id = 1;
      device_id = "dev0";
      similarity = 0.5;
      setup_us = 10.0;
      rounds = 1;
    }
  in
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "id %S rejected" bad)
        true
        (try
           ignore (T.to_csv [ row bad ]);
           false
         with Invalid_argument _ -> true))
    [ "a,b"; "a\nb"; "a\rb"; "a\"b" ];
  let bad_dev = { (row "ok") with T.device_id = "d\"ev" } in
  check_bool "device_id is validated too" true
    (try
       ignore (T.to_csv [ bad_dev ]);
       false
     with Invalid_argument _ -> true);
  check_bool "clean IDs pass" true
    (String.length (T.to_csv [ row "audio_app-0" ]) > 0)

let test_trace_csv_errors () =
  check_bool "bad header" true (Result.is_error (T.of_csv "nope\n1,2,3\n"));
  check_bool "bad row" true
    (Result.is_error
       (T.of_csv
          "time_us,app,type,outcome,impl,device,similarity,setup_us,rounds\nbad-line\n"));
  check_bool "unknown outcome" true (Result.is_error (T.outcome_of_string "maybe"));
  List.iter
    (fun o ->
      check_bool "outcome round-trip" true
        (T.outcome_of_string (T.outcome_to_string o) = Ok o))
    [ T.Granted; T.Granted_bypass; T.Refused ]

let test_utilization_metric () =
  let report = S.run (S.default_spec ()) in
  check_int "one entry per device" 5 (List.length report.S.mean_utilization);
  List.iter
    (fun (_, u) -> check_bool "fraction in [0,1]" true (u >= 0.0 && u <= 1.0))
    report.S.mean_utilization;
  check_bool "the DSP is the busiest device here" true
    (let u id = List.assoc id report.S.mean_utilization in
     u "dsp0" > u "gpp0")

let test_metrics_helpers () =
  check_bool "empty metrics" true (S.mean_similarity S.empty_metrics = 0.0);
  check_bool "empty rate" true (S.grant_rate S.empty_metrics = 0.0)

let () =
  Alcotest.run "desim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "stable ties" `Quick test_heap_stable_ties;
        ]
        @ heap_props );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "validation" `Quick test_engine_validation;
        ] );
      ( "apps",
        [
          Alcotest.test_case "reference casebase" `Quick test_reference_casebase;
          Alcotest.test_case "jitter" `Quick test_instantiate_jitter;
          Alcotest.test_case "clamping" `Quick test_instantiate_clamps;
          Alcotest.test_case "no-jitter draw shares its base" `Quick
            test_no_jitter_draw_shares_base;
        ]
        @ template_props );
      ( "simulation",
        [
          Alcotest.test_case "deterministic" `Quick test_simulation_deterministic;
          Alcotest.test_case "consistency" `Quick test_simulation_consistency;
          Alcotest.test_case "short horizon" `Quick test_simulation_short_horizon;
          Alcotest.test_case "tight system" `Quick test_simulation_tight_system;
          Alcotest.test_case "metric helpers" `Quick test_metrics_helpers;
          Alcotest.test_case "energy accounting" `Quick test_energy_accounting;
          Alcotest.test_case "trace collection" `Quick test_trace_collection;
          Alcotest.test_case "trace csv round-trip" `Quick
            test_trace_csv_roundtrip;
          Alcotest.test_case "trace csv errors" `Quick test_trace_csv_errors;
          Alcotest.test_case "trace csv field validation" `Quick
            test_trace_csv_field_validation;
          Alcotest.test_case "utilization metric" `Quick test_utilization_metric;
        ]
        @ trace_props );
    ]
