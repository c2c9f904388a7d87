(* Tests for the observability stack: metrics registry exports, span
   tracer nesting, the structured event log, SLO burn-rate tracking,
   JSON primitives and the cycle-attribution profiler. *)

module M = Obs.Metrics
module Tr = Obs.Tracer
module Ev = Obs.Events
module Slo = Obs.Slo
module P = Obs.Profile
module Mach = Rtlsim.Machine
module S = Desim.Simulate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* --- Metrics ----------------------------------------------------------- *)

let test_counter_basic () =
  let reg = M.create () in
  let c = M.counter reg "t_total" in
  check_int "starts at zero" 0 (M.counter_value c);
  M.inc c;
  M.inc_by c 2;
  check_int "inc and inc_by accumulate" 3 (M.counter_value c);
  check_bool "negative inc_by rejected" true
    (raises_invalid (fun () -> M.inc_by c (-1)));
  check_int "failed update left no trace" 3 (M.counter_value c)

let test_registration_idempotent () =
  let reg = M.create () in
  let c1 = M.counter reg ~labels:[ ("event", "granted") ] "t_events_total" in
  M.inc c1;
  let c2 = M.counter reg ~labels:[ ("event", "granted") ] "t_events_total" in
  M.inc c2;
  check_int "same labels resolve the same cell" 2 (M.counter_value c1);
  let other = M.counter reg ~labels:[ ("event", "refused") ] "t_events_total" in
  check_int "different labels are a fresh cell" 0 (M.counter_value other)

let test_registration_conflicts () =
  let reg = M.create () in
  ignore (M.counter reg "t_conflict");
  check_bool "kind conflict rejected" true
    (raises_invalid (fun () -> M.gauge reg "t_conflict"));
  ignore (M.histogram reg ~buckets:[ 1.0; 2.0 ] "t_hist");
  check_bool "bucket mismatch rejected" true
    (raises_invalid (fun () -> M.histogram reg ~buckets:[ 1.0; 4.0 ] "t_hist"));
  check_bool "bad metric name rejected" true
    (raises_invalid (fun () -> M.counter reg "0bad"));
  check_bool "bad label name rejected" true
    (raises_invalid (fun () ->
         M.counter reg ~labels:[ ("0bad", "x") ] "t_ok"));
  check_bool "duplicate label rejected" true
    (raises_invalid (fun () ->
         M.counter reg ~labels:[ ("a", "1"); ("a", "2") ] "t_ok2"));
  check_bool "empty buckets rejected" true
    (raises_invalid (fun () -> M.histogram reg ~buckets:[] "t_hist2"));
  check_bool "unsorted buckets rejected" true
    (raises_invalid (fun () ->
         M.histogram reg ~buckets:[ 2.0; 1.0 ] "t_hist3"))

let test_histogram_observe () =
  let reg = M.create () in
  let h = M.histogram reg ~buckets:[ 1.0; 2.0 ] "t_lat" in
  M.observe h 1.0;
  (* Boundary value lands in its own bucket (le is inclusive). *)
  M.observe h Float.nan;
  M.observe h Float.infinity;
  let text = M.to_prometheus reg in
  check_str "non-finite observations dropped"
    "# TYPE t_lat histogram\n\
     t_lat_bucket{le=\"1\"} 1\n\
     t_lat_bucket{le=\"2\"} 1\n\
     t_lat_bucket{le=\"+Inf\"} 1\n\
     t_lat_sum 1\n\
     t_lat_count 1\n"
    text

let sample_registry () =
  let reg = M.create () in
  let c =
    M.counter reg ~help:"Requests seen."
      ~labels:[ ("outcome", "ok") ]
      "t_requests_total"
  in
  M.inc c;
  M.inc_by c 2;
  let g = M.gauge reg ~help:"Queue depth." "t_depth" in
  M.set g 1.5;
  let h = M.histogram reg ~help:"Latency us." ~buckets:[ 1.0; 2.0 ] "t_latency_us" in
  M.observe h 0.5;
  M.observe h 1.5;
  M.observe h 10.0;
  reg

let test_prometheus_export () =
  check_str "canonical text exposition"
    "# HELP t_depth Queue depth.\n\
     # TYPE t_depth gauge\n\
     t_depth 1.500000\n\
     # HELP t_latency_us Latency us.\n\
     # TYPE t_latency_us histogram\n\
     t_latency_us_bucket{le=\"1\"} 1\n\
     t_latency_us_bucket{le=\"2\"} 2\n\
     t_latency_us_bucket{le=\"+Inf\"} 3\n\
     t_latency_us_sum 12\n\
     t_latency_us_count 3\n\
     # HELP t_requests_total Requests seen.\n\
     # TYPE t_requests_total counter\n\
     t_requests_total{outcome=\"ok\"} 3\n"
    (M.to_prometheus (sample_registry ()))

let test_json_export () =
  check_str "canonical JSON export"
    ("{\"metrics\":[\n"
    ^ "{\"name\":\"t_depth\",\"type\":\"gauge\",\"help\":\"Queue depth.\",\
       \"series\":[\n\
       {\"labels\":{},\"value\":1.500000}]},\n"
    ^ "{\"name\":\"t_latency_us\",\"type\":\"histogram\",\"help\":\"Latency \
       us.\",\"series\":[\n\
       {\"labels\":{},\"buckets\":[{\"le\":\"1\",\"count\":1},{\"le\":\"2\",\
       \"count\":2},{\"le\":\"+Inf\",\"count\":3}],\"sum\":12,\"count\":3}]},\n"
    ^ "{\"name\":\"t_requests_total\",\"type\":\"counter\",\"help\":\"Requests \
       seen.\",\"series\":[\n\
       {\"labels\":{\"outcome\":\"ok\"},\"value\":3}]}\n\
       ]}\n")
    (M.to_json (sample_registry ()))

let test_export_determinism () =
  (* Same updates, different registration/update interleavings: exports
     are byte-identical because they sort, never relying on hash or
     insertion order. *)
  let a = sample_registry () in
  let b = M.create () in
  let h = M.histogram b ~help:"Latency us." ~buckets:[ 1.0; 2.0 ] "t_latency_us" in
  M.observe h 10.0;
  let g = M.gauge b ~help:"Queue depth." "t_depth" in
  let c =
    M.counter b ~help:"Requests seen."
      ~labels:[ ("outcome", "ok") ]
      "t_requests_total"
  in
  M.inc_by c 3;
  M.set g 1.5;
  M.observe h 1.5;
  M.observe h 0.5;
  check_str "prometheus order-independent" (M.to_prometheus a)
    (M.to_prometheus b);
  check_str "json order-independent" (M.to_json a) (M.to_json b)

(* --- Tracer ------------------------------------------------------------ *)

let test_tracer_noop () =
  let t = Tr.noop () in
  check_bool "disabled" false (Tr.enabled t);
  let s = Tr.begin_span t ~ts:1.0 "a" in
  Tr.complete t ~ts:2.0 ~dur:1.0 "x";
  Tr.end_span t ~ts:3.0 s;
  check_bool "records nothing" true (Tr.events t = []);
  check_int "no open spans" 0 (Tr.open_spans t);
  check_str "empty trace JSON" "{\"traceEvents\":[\n]}\n" (Tr.to_json t)

(* Walk an event list checking the Chrome-trace nesting invariant:
   every E closes the innermost open B of the same name; X events do
   not affect nesting. *)
let well_nested events =
  let rec walk stack = function
    | [] -> stack = []
    | e :: rest -> (
        match e.Tr.ph with
        | Tr.B -> walk (e.Tr.name :: stack) rest
        | Tr.X -> walk stack rest
        | Tr.E -> (
            match stack with
            | top :: stack' when String.equal top e.Tr.name -> walk stack' rest
            | _ -> false))
  in
  walk [] events

let test_tracer_nesting () =
  let t = Tr.collecting () in
  check_bool "enabled" true (Tr.enabled t);
  let a = Tr.begin_span t ~ts:1.0 "outer" in
  let b = Tr.begin_span t ~ts:2.0 ~args:[ ("k", "v") ] "inner" in
  Tr.complete t ~ts:2.5 ~dur:0.5 "work";
  Tr.end_span t ~ts:3.0 b;
  Tr.end_span t ~ts:4.0 a;
  let evs = Tr.events t in
  check_int "five events" 5 (List.length evs);
  check_bool "chronological and well-nested" true (well_nested evs);
  check_int "trace closed" 0 (Tr.open_spans t);
  Alcotest.(check (list string))
    "record order"
    [ "outer"; "inner"; "work"; "inner"; "outer" ]
    (List.map (fun e -> e.Tr.name) evs)

let test_tracer_unbalanced () =
  let t = Tr.collecting () in
  let a = Tr.begin_span t ~ts:1.0 "outer" in
  let _b = Tr.begin_span t ~ts:2.0 "inner" in
  check_bool "closing the outer span first is rejected" true
    (raises_invalid (fun () -> Tr.end_span t ~ts:3.0 a));
  check_int "stack intact after the failed close" 2 (Tr.open_spans t)

let test_tracer_json () =
  let t = Tr.collecting () in
  let a = Tr.begin_span t ~ts:1.5 ~args:[ ("app", "audio") ] "request" in
  Tr.complete t ~ts:1.5 ~dur:2.0 "retrieval";
  Tr.end_span t ~ts:4.0 a;
  check_str "chrome trace-event JSON"
    ("{\"traceEvents\":[\n"
    ^ "{\"name\":\"request\",\"cat\":\"qosalloc\",\"ph\":\"B\",\
       \"ts\":1.500000,\"pid\":1,\"tid\":1,\"args\":{\"app\":\"audio\"}},\n"
    ^ "{\"name\":\"retrieval\",\"cat\":\"qosalloc\",\"ph\":\"X\",\
       \"ts\":1.500000,\"dur\":2,\"pid\":1,\"tid\":1},\n"
    ^ "{\"name\":\"request\",\"cat\":\"qosalloc\",\"ph\":\"E\",\"ts\":4,\
       \"pid\":1,\"tid\":1}\n\
       ]}\n")
    (Tr.to_json t)

(* --- Event log --------------------------------------------------------- *)

let test_events_noop () =
  let t = Ev.noop () in
  check_bool "disabled" false (Ev.enabled t);
  Ev.record t ~ts:1.0 ~request:0 ~node:2 (Ev.Request_failover { from_node = 2 });
  check_int "records nothing" 0 (Ev.recorded t);
  check_int "drops nothing" 0 (Ev.dropped t);
  check_int "no capacity" 0 (Ev.capacity t);
  check_bool "no events" true (Ev.events t = []);
  check_str "summary-only NDJSON"
    "{\"event\":\"eventlog-summary\",\"recorded\":0,\"dropped\":0}\n"
    (Ev.to_ndjson t)

let test_events_ring () =
  check_bool "capacity 0 rejected" true
    (raises_invalid (fun () -> Ev.recording ~capacity:0 ()));
  let t = Ev.recording ~capacity:3 () in
  check_bool "enabled" true (Ev.enabled t);
  for k = 0 to 4 do
    Ev.record t ~ts:(float_of_int k) ~node:k
      (Ev.Node_transition { prev = "up"; next = "suspect" })
  done;
  check_int "all records counted" 5 (Ev.recorded t);
  check_int "overwritten events are the dropped count" 2 (Ev.dropped t);
  Alcotest.(check (list int))
    "survivors are the newest, oldest first" [ 2; 3; 4 ]
    (List.map (fun e -> Option.get e.Ev.node) (Ev.events t));
  check_bool "summary line carries recorded and dropped" true
    (let nd = Ev.to_ndjson t in
     let lines = String.split_on_char '\n' nd in
     List.exists
       (String.equal
          "{\"event\":\"eventlog-summary\",\"recorded\":5,\"dropped\":2}")
       lines)

let test_events_ndjson () =
  let t = Ev.recording () in
  Ev.record t ~ts:12.5 ~request:3 ~node:1
    (Ev.Request_completed { at_node = 1; impl_id = 7; latency_us = 40.0 });
  Ev.record t ~ts:14.0 ~node:2
    (Ev.Breaker_transition { prev = "closed"; next = "open" });
  Ev.record t ~ts:15.0
    (Ev.Slo_alert
       {
         objective = "availability";
         state = "firing";
         burn_fast = 16.666667;
         burn_slow = 12.0;
       });
  check_str "fixed field order, sim-time stamps, summary line"
    ("{\"ts\":12.500000,\"event\":\"request-completed\",\"request\":3,\
      \"node\":1,\"at_node\":1,\"impl\":7,\"latency_us\":40}\n"
    ^ "{\"ts\":14,\"event\":\"breaker-transition\",\"node\":2,\
       \"prev\":\"closed\",\"next\":\"open\"}\n"
    ^ "{\"ts\":15,\"event\":\"slo-alert\",\"objective\":\"availability\",\
       \"state\":\"firing\",\"burn_fast\":16.666667,\"burn_slow\":12}\n"
    ^ "{\"event\":\"eventlog-summary\",\"recorded\":3,\"dropped\":0}\n")
    (Ev.to_ndjson t)

(* --- SLO tracking ------------------------------------------------------ *)

(* Threshold 9.5 keeps every burn comparison away from an exactly-
   representable boundary (1 bad of 10 samples against budget 0.01 is
   9.999... in floats, not 10). *)
let slo_spec =
  {
    Slo.name = "availability";
    target = 0.99;
    fast_window_us = 10.0;
    slow_window_us = 50.0;
    burn_threshold = 9.5;
    min_samples = 5;
  }

let test_slo_validation () =
  let bad f = raises_invalid (fun () -> Slo.create (f slo_spec)) in
  check_bool "target 0 rejected" true (bad (fun s -> { s with Slo.target = 0.0 }));
  check_bool "target > 1 rejected" true
    (bad (fun s -> { s with Slo.target = 1.1 }));
  check_bool "mis-ordered windows rejected" true
    (bad (fun s -> { s with Slo.slow_window_us = 5.0 }));
  check_bool "non-positive threshold rejected" true
    (bad (fun s -> { s with Slo.burn_threshold = 0.0 }));
  check_bool "min_samples 0 rejected" true
    (bad (fun s -> { s with Slo.min_samples = 0 }));
  check_bool "target 1.0 accepted (floored budget)" true
    (match Slo.create { slo_spec with Slo.target = 1.0 } with
    | _ -> true)

let test_slo_burn_fire_resolve () =
  let t = Slo.create slo_spec in
  (* Five goods reach the sample floor without firing. *)
  for k = 1 to 5 do
    match Slo.record t ~at:(float_of_int k) ~good:true with
    | None -> ()
    | Some _ -> Alcotest.fail "good events must not fire"
  done;
  (* One bad out of six in both windows: burn 1/6/0.01 = 16.7 >= 9.5. *)
  (match Slo.record t ~at:6.0 ~good:false with
  | Some { Slo.al_transition = Slo.Fired; al_burn_fast; al_burn_slow; _ } ->
      check_bool "fast burn above threshold" true (al_burn_fast >= 9.5);
      check_bool "slow burn above threshold" true (al_burn_slow >= 9.5)
  | _ -> Alcotest.fail "burn crossing both windows must fire");
  (* Goods dilute both windows; down to 1 bad of 10 samples (burn ~10)
     both stay above the threshold — still firing. *)
  for k = 7 to 10 do
    match Slo.record t ~at:(float_of_int k) ~good:true with
    | None -> ()
    | Some _ -> Alcotest.fail "still firing while both windows burn hot"
  done;
  (* At t=11 the slow window holds 11 samples: burn 9.09 < 9.5 — one
     window dropping below the threshold resolves the alert even
     though the fast window (which evicted its oldest good) still
     burns at ~10. *)
  (match Slo.record t ~at:11.0 ~good:true with
  | Some { Slo.al_transition = Slo.Resolved; _ } -> ()
  | _ -> Alcotest.fail "slow window dropping below threshold must resolve");
  let r = Slo.report t ~at:20.0 in
  check_int "one alert fired" 1 r.Slo.r_alerts_fired;
  check_bool "firing time is fire-to-resolve" true
    (Float.abs (r.Slo.r_firing_us -. 5.0) < 1e-9);
  check_int "two transitions on record" 2 (List.length r.Slo.r_alerts);
  check_bool "attainment is overall good fraction" true
    (Float.abs (r.Slo.r_attained -. (10.0 /. 11.0)) < 1e-9);
  check_bool "objective missed" true (not r.Slo.r_met)

let test_slo_still_firing_charged () =
  let t = Slo.create slo_spec in
  for k = 1 to 5 do
    ignore (Slo.record t ~at:(float_of_int k) ~good:true)
  done;
  (match Slo.record t ~at:6.0 ~good:false with
  | Some { Slo.al_transition = Slo.Fired; _ } -> ()
  | _ -> Alcotest.fail "must fire");
  let r = Slo.report t ~at:11.0 in
  check_bool "open alert charged up to the horizon" true
    (Float.abs (r.Slo.r_firing_us -. 5.0) < 1e-9);
  check_int "no resolve transition yet" 1 (List.length r.Slo.r_alerts)

let test_slo_zero_budget_finite () =
  let t = Slo.create { slo_spec with Slo.target = 1.0; min_samples = 1 } in
  (match Slo.record t ~at:1.0 ~good:false with
  | Some { Slo.al_transition = Slo.Fired; al_burn_fast; _ } ->
      check_bool "burn enormous but finite" true (Float.is_finite al_burn_fast)
  | _ -> Alcotest.fail "any bad event burns a zero budget");
  (* The report must survive the canonical JSON export (float_str
     rejects non-finite values). *)
  check_bool "report exports" true
    (String.length (Slo.reports_to_json [ Slo.report t ~at:2.0 ]) > 0)

(* --- JSON primitives --------------------------------------------------- *)

let test_jsonu_float_str () =
  check_str "integers render bare" "42" (Obs.Jsonu.float_str 42.0);
  check_str "negative zero canonicalized" "0" (Obs.Jsonu.float_str (-0.0));
  check_str "fractions render with six places" "1.500000"
    (Obs.Jsonu.float_str 1.5);
  check_str "negative values keep their sign" "-3" (Obs.Jsonu.float_str (-3.0));
  check_bool "NaN rejected" true
    (raises_invalid (fun () -> Obs.Jsonu.float_str Float.nan));
  check_bool "+inf rejected" true
    (raises_invalid (fun () -> Obs.Jsonu.float_str Float.infinity));
  check_bool "-inf rejected" true
    (raises_invalid (fun () -> Obs.Jsonu.float_str Float.neg_infinity))

(* --- Instrumented simulation ------------------------------------------- *)

let test_instrumented_simulation () =
  let ctx = Obs.Ctx.create ~tracer:(Tr.collecting ()) () in
  let spec = S.default_spec () in
  let report = S.run ~obs:ctx spec in
  let plain = S.run spec in
  check_bool "instrumentation does not perturb the simulation" true
    (report.S.totals = plain.S.totals
    && report.S.events_fired = plain.S.events_fired);
  check_int "every span closed" 0 (Tr.open_spans ctx.Obs.Ctx.tracer);
  check_bool "trace is well-nested" true
    (well_nested (Tr.events ctx.Obs.Ctx.tracer));
  let granted =
    M.counter ctx.Obs.Ctx.registry
      ~labels:[ ("event", "granted") ]
      "qosalloc_alloc_events_total"
  and refused =
    M.counter ctx.Obs.Ctx.registry
      ~labels:[ ("event", "refused") ]
      "qosalloc_alloc_events_total"
  in
  check_int "granted counter matches the report"
    report.S.totals.S.grants
    (M.counter_value granted);
  check_int "refused counter matches the report"
    report.S.totals.S.refusals
    (M.counter_value refused);
  check_bool "one request span per request" true
    (List.length
       (List.filter
          (fun e -> e.Tr.ph = Tr.B && String.equal e.Tr.name "request")
          (Tr.events ctx.Obs.Ctx.tracer))
    = report.S.totals.S.requests)

(* --- Profiler ---------------------------------------------------------- *)

(* The rtlsim machine under the paper configuration, as an engine. *)
let rtlsim cb =
  match Rtlsim.Engine.create cb with Ok eng -> eng | Error e -> Alcotest.fail e

let test_profile_audio () =
  let cb = Qos_core.Scenario_audio.casebase in
  let req = Qos_core.Scenario_audio.request in
  match P.run (rtlsim cb) req with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check_bool "phase sum equals total cycles" true r.P.breakdown.P.consistent;
      check_int "best impl is the DSP variant" 2 r.P.best_impl_id;
      check_int "one point per prefix size"
        (List.length req.Qos_core.Request.constraints + 1)
        (List.length r.P.linearity.P.points);
      check_bool "full-request point matches the breakdown" true
        (snd (List.nth r.P.linearity.P.points
                (List.length r.P.linearity.P.points - 1))
        = r.P.breakdown.P.total_cycles);
      check_bool "effort grows linearly in constraint count" true
        r.P.linearity.P.linear;
      check_bool "cycles strictly increase with request size" true
        (let rec mono = function
           | (_, a) :: ((_, b) :: _ as rest) -> a < b && mono rest
           | _ -> true
         in
         mono r.P.linearity.P.points)

let test_profile_report_renders () =
  let cb = Qos_core.Scenario_audio.casebase in
  let req = Qos_core.Scenario_audio.request in
  match P.run (rtlsim cb) req with
  | Error e -> Alcotest.fail e
  | Ok r ->
      let text = Format.asprintf "%a" P.pp_report r in
      let has needle =
        let n = String.length text and m = String.length needle in
        let rec at i = i + m <= n && (String.sub text i m = needle || at (i + 1)) in
        at 0
      in
      check_bool "text mentions total cycles" true (has "total-cycles=");
      check_bool "text mentions linearity" true (has "linear=true");
      let json = P.report_to_json r in
      check_bool "json has the profile envelope" true
        (String.length json > 0
        && String.sub json 0 11 = "{\"profile\":"
        && json.[String.length json - 1] = '\n')

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

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

let profiler_props =
  [
    prop "phase cycles sum to total on generated scenarios"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match (Mach.retrieve cb req, Rtlsim.Engine.create cb) with
        | Error _, _ -> true
        | Ok _, Error _ -> false
        | Ok o, Ok eng -> (
            match P.run eng req with
            | Error _ -> false
            | Ok r ->
                let b = r.P.breakdown in
                b.P.consistent
                && List.length b.P.phase_cycles
                   = List.length Mach.all_phases
                && List.fold_left (fun acc (_, n) -> acc + n) 0
                     b.P.phase_cycles
                   = o.Mach.stats.Mach.cycles));
    prop "prefix-ladder cycles are monotone on generated scenarios"
      QCheck2.Gen.(int_range 0 100_000)
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match Result.bind (Rtlsim.Engine.create cb) (fun eng -> P.run eng req) with
        | Error _ -> true
        | Ok r ->
            let rec mono = function
              | (_, a) :: ((_, b) :: _ as rest) -> a <= b && mono rest
              | _ -> true
            in
            r.P.breakdown.P.consistent && mono r.P.linearity.P.points);
  ]

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter basics" `Quick test_counter_basic;
          Alcotest.test_case "idempotent registration" `Quick
            test_registration_idempotent;
          Alcotest.test_case "registration conflicts" `Quick
            test_registration_conflicts;
          Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
          Alcotest.test_case "prometheus export" `Quick test_prometheus_export;
          Alcotest.test_case "json export" `Quick test_json_export;
          Alcotest.test_case "export determinism" `Quick
            test_export_determinism;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "noop sink" `Quick test_tracer_noop;
          Alcotest.test_case "span nesting" `Quick test_tracer_nesting;
          Alcotest.test_case "unbalanced close" `Quick test_tracer_unbalanced;
          Alcotest.test_case "trace JSON" `Quick test_tracer_json;
          Alcotest.test_case "instrumented simulation" `Quick
            test_instrumented_simulation;
        ] );
      ( "events",
        [
          Alcotest.test_case "noop sink" `Quick test_events_noop;
          Alcotest.test_case "ring overwrite" `Quick test_events_ring;
          Alcotest.test_case "NDJSON export" `Quick test_events_ndjson;
        ] );
      ( "slo",
        [
          Alcotest.test_case "spec validation" `Quick test_slo_validation;
          Alcotest.test_case "burn fire and resolve" `Quick
            test_slo_burn_fire_resolve;
          Alcotest.test_case "open alert charged" `Quick
            test_slo_still_firing_charged;
          Alcotest.test_case "zero budget stays finite" `Quick
            test_slo_zero_budget_finite;
        ] );
      ( "jsonu",
        [ Alcotest.test_case "float_str contract" `Quick test_jsonu_float_str ]
      );
      ( "profiler",
        [
          Alcotest.test_case "audio scenario" `Quick test_profile_audio;
          Alcotest.test_case "report rendering" `Quick
            test_profile_report_renders;
        ]
        @ profiler_props );
    ]
