(* Tests for devices, the requirement catalog, bypass tokens, the
   allocation manager and the negotiation loop. *)

open Qos_core
module D = Allocator.Device
module Cat = Allocator.Catalog
module B = Allocator.Bypass
module M = Allocator.Manager
module N = Allocator.Negotiation

let get = function Ok x -> x | Error e -> Alcotest.fail e
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

let get_grant what = function
  | Ok (g : M.grant) -> g
  | Error r -> Alcotest.fail (what ^ ": " ^ M.refusal_to_string r)

let get_refusal what = function
  | Ok (_ : M.grant) -> Alcotest.fail (what ^ ": expected a refusal")
  | Error r -> r

(* --- Device ----------------------------------------------------------------- *)

let test_device_validation () =
  check_bool "ok" true
    (Result.is_ok (D.make ~device_id:"d" ~target:Target.Dsp ~capacity:1 ()));
  check_bool "empty id" true
    (Result.is_error (D.make ~device_id:"" ~target:Target.Dsp ~capacity:1 ()));
  check_bool "zero capacity" true
    (Result.is_error (D.make ~device_id:"d" ~target:Target.Dsp ~capacity:0 ()));
  check_bool "negative reconfig" true
    (Result.is_error
       (D.make ~device_id:"d" ~target:Target.Dsp ~capacity:1
          ~reconfig_us_per_unit:(-1.0) ()));
  check_int "default system has five devices" 5
    (List.length (D.default_system ()))

(* --- Catalog ------------------------------------------------------------------ *)

let test_catalog () =
  let req = { Cat.units = 10; config_words = 100 } in
  let c = get (Cat.add ~type_id:1 ~impl_id:1 req Cat.empty) in
  check_bool "find" true (Cat.find c ~type_id:1 ~impl_id:1 <> None);
  check_bool "missing" true (Cat.find c ~type_id:1 ~impl_id:2 = None);
  check_bool "duplicate" true
    (Result.is_error (Cat.add ~type_id:1 ~impl_id:1 req c));
  check_bool "zero units" true
    (Result.is_error
       (Cat.add ~type_id:2 ~impl_id:1 { req with Cat.units = 0 } c));
  let default = Cat.of_casebase_default cb in
  check_int "one entry per variant" 5 (Cat.cardinal default);
  (* FPGA variants must be bigger than GPP ones. *)
  let fpga = Option.get (Cat.find default ~type_id:1 ~impl_id:1) in
  let gpp = Option.get (Cat.find default ~type_id:1 ~impl_id:3) in
  check_bool "fpga bigger than gpp" true (fpga.Cat.units > gpp.Cat.units)

(* --- Bypass -------------------------------------------------------------------- *)

let test_bypass_fingerprint () =
  check_bool "same request, same fingerprint" true
    (B.fingerprint request = B.fingerprint request);
  let other = Scenario_audio.relaxed_request in
  check_bool "different request, different fingerprint" true
    (B.fingerprint request <> B.fingerprint other);
  (* Weights that quantise to the same Q15 word share a fingerprint. *)
  let a = get (Request.make ~type_id:1 [ (1, 16, 1.0); (3, 1, 2.0) ]) in
  let b =
    get (Request.make ~type_id:1 [ (1, 16, 1.0000001); (3, 1, 2.0000002) ])
  in
  check_bool "quantised weights collide" true (B.fingerprint a = B.fingerprint b)

let test_bypass_cache () =
  let t = B.create () in
  let key = B.key_of ~app_id:"app" request in
  check_bool "miss" true (B.lookup t key = None);
  B.remember t key ~impl_id:2;
  check_bool "hit" true (B.lookup t key = Some 2);
  check_int "invalidate impl" 1 (B.invalidate_impl t ~type_id:1 ~impl_id:2);
  check_bool "gone" true (B.lookup t key = None);
  B.remember t key ~impl_id:2;
  check_int "invalidate app" 1 (B.invalidate_app t ~app_id:"app");
  let s = B.stats t in
  check_int "hits" 1 s.B.hits;
  check_int "misses" 2 s.B.misses;
  check_int "no verified misses" 0 s.B.verified_misses;
  check_int "invalidations" 2 s.B.invalidations;
  check_int "tokens" 0 s.B.tokens

(* Regression: a fingerprint collision between two requests with
   different constraints must NOT return the stored variant.  Genuine
   62-bit collisions need ~2^31 birthday work to find, so the test
   injects a deliberately weak hash through the public [?fingerprint]
   seam; the old table trusted the fingerprint blindly and answered
   [Some 7] for the colliding request. *)
let test_bypass_collision_detected () =
  let weak _ = 42 in
  let r1 = get (Request.make ~type_id:1 [ (1, 16, 1.0) ]) in
  let r2 = get (Request.make ~type_id:1 [ (1, 8, 1.0) ]) in
  let t = B.create () in
  let k1 = B.key_of ~fingerprint:weak ~app_id:"app" r1 in
  let k2 = B.key_of ~fingerprint:weak ~app_id:"app" r2 in
  B.remember t k1 ~impl_id:7;
  check_bool "colliding request is refused" true (B.lookup t k2 = None);
  check_bool "original still hits" true (B.lookup t k1 = Some 7);
  check_bool "peek verifies too" true
    (B.peek t k2 = None && B.peek t k1 = Some 7);
  let s = B.stats t in
  check_int "collision counted as verified miss" 1 s.B.verified_misses;
  check_int "one genuine hit" 1 s.B.hits;
  check_int "no plain miss" 0 s.B.misses

(* Signatures quantise weights exactly like the fingerprint, so keys
   built from indistinguishable requests still hit. *)
let test_bypass_signature_quantises () =
  let t = B.create () in
  let a = get (Request.make ~type_id:1 [ (1, 16, 1.0); (3, 1, 2.0) ]) in
  let b =
    get (Request.make ~type_id:1 [ (1, 16, 1.0000001); (3, 1, 2.0000002) ])
  in
  check_bool "signatures collapse quantised weights" true
    (B.signature a = B.signature b);
  B.remember t (B.key_of ~app_id:"app" a) ~impl_id:3;
  check_bool "quantised twin hits" true
    (B.lookup t (B.key_of ~app_id:"app" b) = Some 3)

let bypass_prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

(* Even under a constant (worst-case) fingerprint, [lookup] never
   returns a variant for a request whose constraints differ from the
   remembered one. *)
let bypass_props =
  let gen_request =
    QCheck2.Gen.(
      let triple =
        map2
          (fun aid v -> (aid, v, 1.0))
          (int_range 1 4) (int_range 1 64)
      in
      map
        (fun triples ->
          match Request.make ~type_id:1 triples with
          | Ok r -> r
          | Error _ -> request)
        (list_size (int_range 1 4) triple))
  in
  [
    bypass_prop "lookup never answers for different constraints"
      QCheck2.Gen.(pair gen_request gen_request)
      (fun (r1, r2) ->
        let weak _ = 0 in
        let t = B.create () in
        B.remember t (B.key_of ~fingerprint:weak ~app_id:"a" r1) ~impl_id:9;
        match B.lookup t (B.key_of ~fingerprint:weak ~app_id:"a" r2) with
        | Some _ -> B.signature r1 = B.signature r2
        | None -> B.signature r1 <> B.signature r2);
  ]

(* --- Manager -------------------------------------------------------------------- *)

let device id target capacity =
  get (D.make ~device_id:id ~target ~capacity ())

let standard_manager ?policy () =
  M.create ~casebase:cb
    ~devices:
      [
        device "fpga0" Target.Fpga 400;
        device "dsp0" Target.Dsp 2;
        device "gpp0" Target.Gpp 4;
      ]
    ~catalog:(Cat.of_casebase_default cb) ?policy ()

let test_grant_best_variant () =
  let m = standard_manager () in
  let grant = get_grant "allocate" (M.allocate m ~app_id:"audio" request) in
  check_int "picks the DSP variant" 2 grant.M.task.M.impl_id;
  check_bool "on the DSP device" true
    (String.equal grant.M.task.M.device_id "dsp0");
  check_bool "not via bypass" true (not grant.M.via_bypass);
  check_bool "setup time positive" true (grant.M.setup_time_us > 0.0);
  check_int "one resident task" 1 (List.length (M.tasks m));
  check_int "dsp capacity reduced" 1
    (Option.get (M.free_units m ~device_id:"dsp0"))

let test_bypass_grant_on_repeat () =
  let m = standard_manager () in
  let first = get_grant "first" (M.allocate m ~app_id:"audio" request) in
  let second = get_grant "second" (M.allocate m ~app_id:"audio" request) in
  check_bool "second goes via bypass" true second.M.via_bypass;
  check_int "same task" first.M.task.M.task_id second.M.task.M.task_id;
  check_bool "no extra setup" true (second.M.setup_time_us = 0.0);
  check_int "still one task" 1 (List.length (M.tasks m));
  (* Another app does not share the token. *)
  let third = get_grant "third" (M.allocate m ~app_id:"other" request) in
  check_bool "different app allocates afresh" true (not third.M.via_bypass)

let test_fallback_to_next_candidate () =
  (* Fill the DSP: the second allocation must fall back to the FPGA
     variant (the second-best by similarity). *)
  let m = standard_manager () in
  let _ = get_grant "a" (M.allocate m ~app_id:"a" request) in
  let _ = get_grant "b" (M.allocate m ~app_id:"b" request) in
  (* dsp0 had 2 slots; both are used now. *)
  check_int "dsp full" 0 (Option.get (M.free_units m ~device_id:"dsp0"));
  let third = get_grant "c" (M.allocate m ~app_id:"c" request) in
  check_int "falls back to FPGA variant" 1 third.M.task.M.impl_id;
  check_bool "on the fpga" true (String.equal third.M.task.M.device_id "fpga0")

let test_threshold_refusal () =
  (* A only-GPP case base scores 0.43 < 0.5 on the paper request. *)
  let gpp_only =
    get
      (Ftype.make ~id:1 ~name:"gpp-only"
         [ Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id:3) ])
  in
  let cb2 =
    get (Casebase.make ~name:"weak" ~schema:cb.Casebase.schema [ gpp_only ])
  in
  let m =
    M.create ~casebase:cb2
      ~devices:[ device "gpp0" Target.Gpp 4 ]
      ~catalog:(Cat.of_casebase_default cb2) ()
  in
  match get_refusal "below threshold" (M.allocate m ~app_id:"a" request) with
  | M.All_below_threshold offers ->
      check_int "the rejected variant is reported" 1 (List.length offers)
  | r -> Alcotest.fail ("unexpected refusal: " ^ M.refusal_to_string r)

let test_no_feasible_refusal () =
  (* No device matches any acceptable variant's target. *)
  let m =
    M.create ~casebase:cb
      ~devices:[ device "asic0" Target.Asic 1 ]
      ~catalog:(Cat.of_casebase_default cb) ()
  in
  match get_refusal "no feasible" (M.allocate m ~app_id:"a" request) with
  | M.No_feasible offers -> check_bool "offers reported" true (offers <> [])
  | r -> Alcotest.fail ("unexpected refusal: " ^ M.refusal_to_string r)

let test_unknown_type_refusal () =
  let m = standard_manager () in
  let missing = get (Request.make ~type_id:42 [ (1, 16, 1.0) ]) in
  match get_refusal "unknown" (M.allocate m ~app_id:"a" missing) with
  | M.Unknown_request (Retrieval.Unknown_type 42) -> ()
  | r -> Alcotest.fail ("unexpected refusal: " ^ M.refusal_to_string r)

let test_preemption_by_priority () =
  (* One-slot DSP; a high-priority request evicts the low-priority task. *)
  let m =
    M.create ~casebase:cb
      ~devices:[ device "dsp0" Target.Dsp 1 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~policy:{ M.default_policy with M.max_candidates = 1 }
      ()
  in
  let low = get_grant "low" (M.allocate m ~app_id:"bg" ~priority:1 request) in
  let high = get_grant "high" (M.allocate m ~app_id:"fg" ~priority:9 request) in
  check_int "victim evicted" 1 (List.length high.M.preempted);
  check_int "victim is the low task" low.M.task.M.task_id
    (List.hd high.M.preempted).M.task_id;
  check_int "one resident task" 1 (List.length (M.tasks m));
  (* Equal priority must NOT preempt. *)
  let refusal =
    get_refusal "equal priority" (M.allocate m ~app_id:"x" ~priority:9 request)
  in
  (match refusal with
  | M.No_feasible _ -> ()
  | r -> Alcotest.fail ("unexpected refusal: " ^ M.refusal_to_string r));
  (* Preemption disabled: also refused. *)
  let m2 =
    M.create ~casebase:cb
      ~devices:[ device "dsp0" Target.Dsp 1 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~policy:
        { M.default_policy with M.allow_preemption = false; M.max_candidates = 1 }
      ()
  in
  let _ = get_grant "first" (M.allocate m2 ~app_id:"bg" ~priority:1 request) in
  match get_refusal "no preemption" (M.allocate m2 ~app_id:"fg" ~priority:9 request) with
  | M.No_feasible _ -> ()
  | r -> Alcotest.fail ("unexpected refusal: " ^ M.refusal_to_string r)

let test_release () =
  let m = standard_manager () in
  let grant = get_grant "grant" (M.allocate m ~app_id:"a" request) in
  let task = get (M.release m ~task_id:grant.M.task.M.task_id) in
  check_int "released the task" grant.M.task.M.task_id task.M.task_id;
  check_int "no tasks left" 0 (List.length (M.tasks m));
  check_int "capacity restored" 2 (Option.get (M.free_units m ~device_id:"dsp0"));
  check_bool "double release fails" true
    (Result.is_error (M.release m ~task_id:task.M.task_id));
  (* The bypass token died with the instance. *)
  let again = get_grant "again" (M.allocate m ~app_id:"a" request) in
  check_bool "no stale bypass" true (not again.M.via_bypass)

let test_release_app () =
  let m = standard_manager () in
  let _ = get_grant "a1" (M.allocate m ~app_id:"a" request) in
  let _ =
    get_grant "a2" (M.allocate m ~app_id:"a" Scenario_audio.relaxed_request)
  in
  let _ = get_grant "b" (M.allocate m ~app_id:"b" request) in
  check_int "two of a's tasks released" 2 (M.release_app m ~app_id:"a");
  check_int "b's task remains" 1 (List.length (M.tasks m))

let test_events () =
  let m = standard_manager () in
  let _ = get_grant "grant" (M.allocate m ~app_id:"a" request) in
  let events = M.drain_events m in
  check_int "one event" 1 (List.length events);
  (match events with
  | [ M.Granted _ ] -> ()
  | _ -> Alcotest.fail "expected a Granted event");
  check_int "drained" 0 (List.length (M.drain_events m))

let test_event_counts () =
  let ctx = Obs.Ctx.create () in
  let m =
    M.create ~casebase:cb
      ~devices:[ device "dsp0" Target.Dsp 2 ]
      ~catalog:(Cat.of_casebase_default cb) ~obs:ctx ()
  in
  let g = get_grant "grant" (M.allocate m ~app_id:"a" request) in
  ignore (M.drain_events m);
  let b = get_grant "repeat" (M.allocate m ~app_id:"a" request) in
  check_bool "repeat served by bypass" true b.M.via_bypass;
  ignore (M.release m ~task_id:g.M.task.M.task_id);
  M.record_scrub m ~corrupted_words:3 ~diagnostics:1;
  let counts = M.event_counts m in
  check_int "every kind listed once" 10 (List.length counts);
  check_int "granted, drain included" 2 (List.assoc "granted" counts);
  check_int "released" 1 (List.assoc "released" counts);
  check_int "scrubbed" 1 (List.assoc "scrubbed" counts);
  check_int "each event counted once" 4
    (List.fold_left (fun acc (_, n) -> acc + n) 0 counts);
  ignore (M.drain_events m);
  check_bool "drain leaves the tally" true (M.event_counts m = counts);
  M.publish m;
  let reg = ctx.Obs.Ctx.registry in
  let value ?labels name =
    Obs.Metrics.counter_value (Obs.Metrics.counter reg ?labels name)
  in
  check_int "published granted" 2
    (value ~labels:[ ("event", "granted") ] "qosalloc_alloc_events_total");
  check_bool "every kind exported, labelled with underscores" true
    (List.mem "qosalloc_alloc_events_total{event=\"reconfig_failed\"} 0"
       (String.split_on_char '\n' (Obs.Metrics.to_prometheus reg)));
  check_int "published bypass grants" 1
    (value "qosalloc_alloc_bypass_grants_total");
  check_int "published scrubbed words" 3
    (value "qosalloc_scrub_corrupted_words_total")

let test_retrieval_latency_modelling () =
  let m =
    M.create ~casebase:cb
      ~devices:[ device "dsp0" Target.Dsp 2 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~retrieval_engine:Rtlsim.Engine.factory ()
  in
  let first = get_grant "first" (M.allocate m ~app_id:"a" request) in
  check_bool "retrieval latency charged" true (first.M.retrieval_us > 0.0);
  check_bool "included in setup" true
    (first.M.setup_time_us >= first.M.retrieval_us);
  (* The paper example takes 131 unit cycles: at 75 MHz that is ~1.75us. *)
  check_bool "latency magnitude" true
    (first.M.retrieval_us > 1.0 && first.M.retrieval_us < 3.0);
  let second = get_grant "second" (M.allocate m ~app_id:"a" request) in
  check_bool "bypass skips retrieval" true
    (second.M.via_bypass && second.M.retrieval_us = 0.0);
  (* A manager without an engine charges nothing. *)
  let free = standard_manager () in
  let g = get_grant "free" (M.allocate free ~app_id:"a" request) in
  check_bool "unmodelled latency is zero" true (g.M.retrieval_us = 0.0)

(* --- Fragmented manager mode ------------------------------------------------- *)

let test_fragmented_admission () =
  (* One FPGA of 500 columns; the FIR equalizer's FPGA variant needs
     80 + 24 * (1 + 4 attrs) = 200 columns.  The DSP variant ranks
     first but has no device, so the manager falls back to FPGA. *)
  let m =
    M.create ~casebase:cb
      ~devices:[ device "fpga0" Target.Fpga 500 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~policy:{ M.default_policy with M.allow_preemption = false }
      ~placement_policy:Allocator.Placement.First_fit ()
  in
  let g1 = get_grant "g1" (M.allocate m ~app_id:"a" request) in
  check_bool "task carries an extent" true (g1.M.task.M.extent <> None);
  check_int "fpga variant chosen" 1 g1.M.task.M.impl_id;
  let g2 = get_grant "g2" (M.allocate m ~app_id:"b" request) in
  (* Two 200-column tasks leave 100 columns: a third FPGA task cannot
     fit, and the GPP fallback variant scores below the threshold. *)
  (match M.allocate m ~app_id:"c" request with
  | Error (M.No_feasible _) -> ()
  | Ok _ -> Alcotest.fail "third task should not fit"
  | Error r -> Alcotest.fail (M.refusal_to_string r));
  check_bool "fragmentation metric available" true
    (M.fragmentation m ~device_id:"fpga0" <> None);
  check_int "largest gap" 100 (Option.get (M.largest_gap m ~device_id:"fpga0"));
  (* Releasing the first frees a 200-column gap at the start. *)
  let _ = get (M.release m ~task_id:g1.M.task.M.task_id) in
  check_int "gap after release" 200
    (Option.get (M.largest_gap m ~device_id:"fpga0"));
  let g3 = get_grant "g3" (M.allocate m ~app_id:"c" request) in
  check_int "reuses the freed columns" 0
    (Option.get g3.M.task.M.extent).Allocator.Placement.start;
  ignore g2

let test_fragmented_refusal_despite_capacity () =
  (* Width 500; occupy [0,200) and [200,400), release the first: both
     managers now have 300 free columns and the leading 200-column gap
     restores contiguity, so both admit — the placement manager must
     pick start 0. *)
  let make_manager placement_policy =
    M.create ~casebase:cb
      ~devices:[ device "fpga0" Target.Fpga 500 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~policy:{ M.default_policy with M.allow_preemption = false }
      ?placement_policy ()
  in
  let run_pattern m =
    let a = get_grant "a" (M.allocate m ~app_id:"a" request) in
    let b = get_grant "b" (M.allocate m ~app_id:"b" request) in
    (* Release the first (makes a leading gap), then occupy part of it
       with nothing — the remaining capacity is fragmented only in the
       placement-aware manager.  Release a, leaving [248,496) used. *)
    let _ = get (M.release m ~task_id:a.M.task.M.task_id) in
    ignore b;
    M.allocate m ~app_id:"c" request
  in
  (* Counter manager: always fits (248 needed, 352 free). *)
  (match run_pattern (make_manager None) with
  | Ok _ -> ()
  | Error r -> Alcotest.fail ("counter manager refused: " ^ M.refusal_to_string r));
  (* Placement manager: the leading gap is exactly 248 wide, so it still
     fits here (release restored contiguity) — verify it picks start 0. *)
  match run_pattern (make_manager (Some Allocator.Placement.First_fit)) with
  | Ok g ->
      check_int "fills the leading gap" 0
        (Option.get g.M.task.M.extent).Allocator.Placement.start
  | Error r -> Alcotest.fail (M.refusal_to_string r)

let test_fragmented_preemption_until_gap () =
  let m =
    M.create ~casebase:cb
      ~devices:[ device "fpga0" Target.Fpga 500 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~placement_policy:Allocator.Placement.First_fit ()
  in
  let _ = get_grant "low1" (M.allocate m ~app_id:"bg1" ~priority:1 request) in
  let _ = get_grant "low2" (M.allocate m ~app_id:"bg2" ~priority:1 request) in
  (* 500 - 2*200 = 100 < 200: a high-priority arrival must evict. *)
  let high = get_grant "high" (M.allocate m ~app_id:"fg" ~priority:9 request) in
  check_bool "evicted at least one" true (List.length high.M.preempted >= 1);
  check_bool "got an extent" true (high.M.task.M.extent <> None)

(* --- Column placement ---------------------------------------------------------- *)

module P = Allocator.Placement

let test_placement_basics () =
  let map = P.create ~width:10 in
  check_int "width" 10 (P.width map);
  check_int "free" 10 (P.free_columns map);
  check_int "largest gap" 10 (P.largest_gap map);
  check_bool "fits" true (P.would_fit map ~length:10);
  check_bool "does not overfit" false (P.would_fit map ~length:11);
  let e1 = get (P.place map P.First_fit ~length:4) in
  check_int "first fit starts at 0" 0 e1.P.start;
  check_int "used" 4 (P.used_columns map);
  let e2 = get (P.place map P.First_fit ~length:3) in
  check_int "second placement follows" 4 e2.P.start;
  get (P.release map e1);
  check_int "released" 7 (P.free_columns map);
  check_bool "double release fails" true (Result.is_error (P.release map e1))

let test_placement_fragmentation () =
  let map = P.create ~width:10 in
  let a = get (P.place map P.First_fit ~length:3) in
  let _b = get (P.place map P.First_fit ~length:3) in
  let _c = get (P.place map P.First_fit ~length:3) in
  get (P.release map a);
  (* Free: [0,3) and [9,10) -> 4 free columns but largest gap 3. *)
  check_int "free columns" 4 (P.free_columns map);
  check_int "largest gap" 3 (P.largest_gap map);
  check_bool "4 columns do not fit contiguously" false (P.would_fit map ~length:4);
  check_bool "fragmentation positive" true (P.fragmentation map > 0.0);
  check_bool "placement refuses despite free capacity" true
    (Result.is_error (P.place map P.First_fit ~length:4))

let test_placement_policies () =
  (* Build gaps of sizes 2 (at 0) and 5 (at 5): best-fit picks the 2,
     worst-fit the 5, first-fit the leftmost that fits. *)
  let build () =
    let map = P.create ~width:10 in
    get (P.place_at map { P.start = 2; length = 3 });
    map
  in
  let best = build () in
  let e = get (P.place best P.Best_fit ~length:2) in
  check_int "best-fit picks the snug gap" 0 e.P.start;
  let worst = build () in
  let e = get (P.place worst P.Worst_fit ~length:2) in
  check_int "worst-fit picks the big gap" 5 e.P.start;
  let first = build () in
  let e = get (P.place first P.First_fit ~length:2) in
  check_int "first-fit picks the leftmost" 0 e.P.start

let test_placement_validation () =
  let map = P.create ~width:8 in
  check_bool "zero length" true (Result.is_error (P.place map P.First_fit ~length:0));
  check_bool "out of range" true
    (Result.is_error (P.place_at map { P.start = 7; length = 2 }));
  check_bool "negative start" true
    (Result.is_error (P.place_at map { P.start = -1; length = 2 }));
  get (P.place_at map { P.start = 2; length = 2 });
  check_bool "overlap rejected" true
    (Result.is_error (P.place_at map { P.start = 3; length = 2 }));
  Alcotest.check_raises "bad width"
    (Invalid_argument "Placement.create: width must be positive") (fun () ->
      ignore (P.create ~width:0))

let placement_prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let placement_props =
  [
    placement_prop "free + used = width under random churn"
      QCheck2.Gen.(
        pair (int_range 1 1000)
          (list_size (int_range 0 60) (pair (int_range 1 8) bool)))
      (fun (seed, ops) ->
        let rng = Workload.Prng.create ~seed in
        let map = P.create ~width:32 in
        let placed = ref [] in
        List.iter
          (fun (len, do_place) ->
            if do_place || !placed = [] then (
              match P.place map P.First_fit ~length:len with
              | Ok e -> placed := e :: !placed
              | Error _ -> ())
            else
              let victim =
                List.nth !placed (Workload.Prng.int rng ~bound:(List.length !placed))
              in
              match P.release map victim with
              | Ok () ->
                  placed :=
                    List.filter
                      (fun e -> not (e = victim))
                      !placed
              | Error _ -> ())
          ops;
        P.free_columns map + P.used_columns map = P.width map
        && P.largest_gap map <= P.free_columns map
        && List.for_all (fun g -> g.P.length > 0) (P.gaps map));
    placement_prop "extents never overlap"
      QCheck2.Gen.(list_size (int_range 0 40) (int_range 1 6))
      (fun lengths ->
        let map = P.create ~width:64 in
        List.iter
          (fun len -> ignore (P.place map P.Best_fit ~length:len))
          lengths;
        let rec no_overlap = function
          | [] | [ _ ] -> true
          | a :: (b :: _ as rest) ->
              a.P.start + a.P.length <= b.P.start && no_overlap rest
        in
        no_overlap (P.extents map));
  ]

let test_offers_are_score_ordered () =
  let m =
    M.create ~casebase:cb
      ~devices:[ device "asic0" Target.Asic 1 ]
      ~catalog:(Cat.of_casebase_default cb) ()
  in
  match get_refusal "no device" (M.allocate m ~app_id:"a" request) with
  | M.No_feasible offers ->
      check_bool "offers descend by score" true
        (let rec desc = function
           | [] | [ _ ] -> true
           | a :: (b :: _ as rest) ->
               a.M.offer_score >= b.M.offer_score && desc rest
         in
         desc offers);
      check_bool "offers carry targets" true
        (List.for_all
           (fun o ->
             List.mem o.M.offer_target Target.all_builtin)
           offers)
  | r -> Alcotest.fail (M.refusal_to_string r)

let test_release_app_frees_columns () =
  let m =
    M.create ~casebase:cb
      ~devices:[ device "fpga0" Target.Fpga 500 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~placement_policy:Allocator.Placement.Best_fit ()
  in
  let _ = get_grant "a1" (M.allocate m ~app_id:"a" request) in
  (* A second, different request (same fingerprints would hit the
     bypass cache): the FFT type's FPGA variant takes 176 columns. *)
  let fft_request = get (Request.make ~type_id:2 [ (1, 16, 1.0); (4, 44, 1.0) ]) in
  let _ = get_grant "a2" (M.allocate m ~app_id:"a" fft_request) in
  check_int "two resident" 2 (List.length (M.tasks m));
  check_int "columns used" 124 (Option.get (M.largest_gap m ~device_id:"fpga0"));
  check_int "both released" 2 (M.release_app m ~app_id:"a");
  check_int "columns free again" 500
    (Option.get (M.largest_gap m ~device_id:"fpga0"));
  check_bool "fragmentation back to zero" true
    (Option.get (M.fragmentation m ~device_id:"fpga0") = 0.0)

let manager_prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

(* Random allocate/release churn must never violate capacity or column
   invariants, with and without fragmentation modelling. *)
let churn_invariant ~placement seed =
  let rng = Workload.Prng.create ~seed in
  let devices =
    [
      device "fpga0" Target.Fpga 500;
      device "fpga1" Target.Fpga 250;
      device "dsp0" Target.Dsp 2;
      device "gpp0" Target.Gpp 4;
    ]
  in
  let m =
    M.create ~casebase:Desim.Apps.reference_casebase ~devices
      ~catalog:(Cat.of_casebase_default Desim.Apps.reference_casebase)
      ?placement_policy:placement ()
  in
  let ok = ref true in
  let check_invariants () =
    List.iter
      (fun (d : D.t) ->
        let free = Option.get (M.free_units m ~device_id:d.D.device_id) in
        if free < 0 || free > d.D.capacity then ok := false;
        match M.largest_gap m ~device_id:d.D.device_id with
        | None -> ()
        | Some gap -> if gap < 0 || gap > free then ok := false)
      devices;
    (* Extents of co-located tasks never overlap. *)
    let by_device = Hashtbl.create 8 in
    List.iter
      (fun task ->
        match task.M.extent with
        | None -> ()
        | Some e ->
            let existing =
              Option.value ~default:[] (Hashtbl.find_opt by_device task.M.device_id)
            in
            Hashtbl.replace by_device task.M.device_id (e :: existing))
      (M.tasks m);
    Hashtbl.iter
      (fun _ extents ->
        let sorted =
          List.sort
            (fun (a : Allocator.Placement.extent) b ->
              Int.compare a.Allocator.Placement.start b.Allocator.Placement.start)
            extents
        in
        let rec disjoint = function
          | [] | [ _ ] -> ()
          | (a : Allocator.Placement.extent) :: (b :: _ as rest) ->
              if
                a.Allocator.Placement.start + a.Allocator.Placement.length
                > b.Allocator.Placement.start
              then ok := false
              else disjoint rest
        in
        disjoint sorted)
      by_device
  in
  for step = 1 to 60 do
    (if Workload.Prng.float rng < 0.65 || M.tasks m = [] then begin
       let type_id = 1 + Workload.Prng.int rng ~bound:6 in
       let req =
         Workload.Generator.request rng
           ~schema:Desim.Apps.reference_casebase.Casebase.schema ~type_id
           {
             Workload.Generator.constraints = (2, 4);
             weight_profile = `Equal;
             value_slack = 0.0;
           }
       in
       ignore
         (M.allocate m
            ~app_id:(Printf.sprintf "app%d" (step mod 5))
            ~priority:(Workload.Prng.int rng ~bound:5)
            req)
     end
     else
       let victim = Workload.Prng.choose rng (M.tasks m) in
       ignore (M.release m ~task_id:victim.M.task_id));
    check_invariants ()
  done;
  !ok

let churn_props =
  [
    manager_prop "capacity invariants hold under churn (counter mode)"
      (QCheck2.Gen.int_range 0 20_000)
      (churn_invariant ~placement:None);
    manager_prop "capacity invariants hold under churn (column mode)"
      (QCheck2.Gen.int_range 0 20_000)
      (churn_invariant ~placement:(Some Allocator.Placement.First_fit));
  ]

(* --- Negotiation ------------------------------------------------------------------ *)

let test_negotiation_success_first_round () =
  let m = standard_manager () in
  let outcome = N.negotiate m ~app_id:"a" request in
  check_int "one round" 1 (List.length outcome.N.rounds);
  check_bool "granted" true (Result.is_ok outcome.N.final)

let test_negotiation_relaxes_until_granted () =
  (* GPP-only case base: the strict request scores 0.43 < 0.5 and is
     refused; relaxation must eventually make the GPP variant
     acceptable (the Sec. 3 story). *)
  let gpp_only =
    get
      (Ftype.make ~id:1 ~name:"gpp-only"
         [ Option.get (Casebase.find_impl cb ~type_id:1 ~impl_id:3) ])
  in
  let cb2 =
    get (Casebase.make ~name:"weak" ~schema:cb.Casebase.schema [ gpp_only ])
  in
  let m =
    M.create ~casebase:cb2
      ~devices:[ device "gpp0" Target.Gpp 4 ]
      ~catalog:(Cat.of_casebase_default cb2) ()
  in
  let outcome = N.negotiate ~max_rounds:4 m ~app_id:"a" request in
  check_bool "eventually granted" true (Result.is_ok outcome.N.final);
  check_bool "took more than one round" true (List.length outcome.N.rounds > 1)

let test_negotiation_gives_up () =
  let m =
    M.create ~casebase:cb
      ~devices:[ device "asic0" Target.Asic 1 ]
      ~catalog:(Cat.of_casebase_default cb) ()
  in
  let outcome = N.negotiate ~max_rounds:2 m ~app_id:"a" request in
  check_bool "refused in the end" true (Result.is_error outcome.N.final);
  check_int "bounded rounds" 2 (List.length outcome.N.rounds)

let test_relaxation_helpers () =
  let r =
    get (Request.make ~type_id:1 [ (1, 16, 2.0); (3, 1, 0.5); (4, 40, 1.0) ])
  in
  (match N.drop_weakest_constraint r with
  | Some relaxed ->
      check_int "dropped the lightest" 2 (Request.constraint_count relaxed);
      check_bool "attr 3 is gone" true (Request.find relaxed 3 = None)
  | None -> Alcotest.fail "expected a relaxation");
  (match N.halve_weakest_weight r with
  | Some relaxed ->
      let c = Option.get (Request.find relaxed 3) in
      check_bool "weight halved" true (Float.abs (c.Request.weight -. 0.25) < 1e-9)
  | None -> Alcotest.fail "expected a reweight");
  let empty = get (Request.make ~type_id:1 []) in
  check_bool "nothing to drop" true (N.drop_weakest_constraint empty = None);
  check_bool "nothing to halve" true (N.halve_weakest_weight empty = None)

let test_printers_smoke () =
  let to_s pp v = Format.asprintf "%a" pp v in
  let m = standard_manager () in
  let g = get_grant "g" (M.allocate m ~app_id:"a" request) in
  check_bool "task pp" true (String.length (to_s M.pp_task g.M.task) > 0);
  check_bool "grant pp" true (String.length (to_s M.pp_grant g) > 0);
  check_bool "device pp" true
    (String.length (to_s D.pp (device "x" Target.Fpga 7)) > 0);
  let map = Allocator.Placement.create ~width:8 in
  ignore (Allocator.Placement.place map Allocator.Placement.First_fit ~length:3);
  let rendered = to_s Allocator.Placement.pp map in
  check_bool "placement pp shows occupancy" true
    (String.length rendered > 8
    && String.contains rendered '#'
    && String.contains rendered '.');
  check_bool "bypass stats pp" true
    (String.length (to_s Allocator.Bypass.pp_stats (M.bypass_stats m)) > 0)

(* --- Robustness: event ordering, bypass lifetime, device failures ----------- *)

let test_event_ordering_preemption_before_grant () =
  (* One-slot DSP: the high-priority grant preempts the low one, and
     the Preempted_task event must precede the corresponding Granted. *)
  let m =
    M.create ~casebase:cb
      ~devices:[ device "dsp0" Target.Dsp 1 ]
      ~catalog:(Cat.of_casebase_default cb)
      ~policy:{ M.default_policy with M.max_candidates = 1 }
      ()
  in
  let low = get_grant "low" (M.allocate m ~app_id:"bg" ~priority:1 request) in
  let high = get_grant "high" (M.allocate m ~app_id:"fg" ~priority:9 request) in
  (match M.drain_events m with
  | [ M.Granted g1; M.Preempted_task victim; M.Granted g2 ] ->
      check_int "first grant is the low task" low.M.task.M.task_id
        g1.M.task.M.task_id;
      check_int "victim is the low task" low.M.task.M.task_id
        victim.M.task_id;
      check_int "preemption precedes the winning grant"
        high.M.task.M.task_id g2.M.task.M.task_id
  | events ->
      Alcotest.fail
        (Printf.sprintf "expected Granted;Preempted;Granted, got %d events"
           (List.length events)));
  check_int "drained" 0 (List.length (M.drain_events m))

let test_release_invalidates_bypass_only_on_last_instance () =
  (* Two apps hold the same variant (dsp0 has 2 slots).  Releasing one
     instance must keep the other app's bypass token alive; releasing
     the last instance must kill it. *)
  let m = standard_manager () in
  let ga = get_grant "a" (M.allocate m ~app_id:"a" request) in
  let gb = get_grant "b" (M.allocate m ~app_id:"b" request) in
  check_bool "two distinct instances" true
    (ga.M.task.M.task_id <> gb.M.task.M.task_id);
  ignore (get (M.release m ~task_id:ga.M.task.M.task_id));
  let gb2 = get_grant "b repeat" (M.allocate m ~app_id:"b" request) in
  check_bool "token survives while an instance remains" true gb2.M.via_bypass;
  ignore (get (M.release m ~task_id:gb.M.task.M.task_id));
  let gb3 = get_grant "b afresh" (M.allocate m ~app_id:"b" request) in
  check_bool "token dies with the last instance" true (not gb3.M.via_bypass)

let test_fail_and_restore_device () =
  let m = standard_manager () in
  let g = get_grant "grant" (M.allocate m ~app_id:"a" request) in
  check_bool "starts on the dsp" true
    (String.equal g.M.task.M.device_id "dsp0");
  check_bool "available before failure" true
    (M.device_available m ~device_id:"dsp0");
  let evicted = get (M.fail_device m ~device_id:"dsp0" ~permanent:false) in
  check_int "resident task evicted" 1 (List.length evicted);
  check_bool "unavailable after failure" true
    (not (M.device_available m ~device_id:"dsp0"));
  check_int "nothing left running" 0 (List.length (M.tasks m));
  (* A failed device is never offered: the same request lands elsewhere. *)
  let g2 = get_grant "rehost" (M.allocate m ~app_id:"a" request) in
  check_bool "avoids the failed device" true
    (not (String.equal g2.M.task.M.device_id "dsp0"));
  check_bool "not via stale bypass" true (not g2.M.via_bypass);
  (* Idempotence and error paths. *)
  check_int "failing a down device evicts nothing" 0
    (List.length (get (M.fail_device m ~device_id:"dsp0" ~permanent:true)));
  check_bool "unknown device is an error" true
    (Result.is_error (M.fail_device m ~device_id:"nope" ~permanent:true));
  check_bool "unknown device is unavailable" true
    (not (M.device_available m ~device_id:"nope"));
  check_bool "restore succeeds" true (M.restore_device m ~device_id:"dsp0");
  check_bool "second restore is a no-op" true
    (not (M.restore_device m ~device_id:"dsp0"));
  check_bool "available again" true (M.device_available m ~device_id:"dsp0")

let test_relocate_with_degradation () =
  let m = standard_manager () in
  let g = get_grant "grant" (M.allocate m ~app_id:"a" ~priority:3 request) in
  let evicted = get (M.fail_device m ~device_id:"dsp0" ~permanent:true) in
  let victim = List.hd evicted in
  check_int "the granted task was evicted" g.M.task.M.task_id
    victim.M.task_id;
  let regrant, delta =
    match M.relocate m ~task:victim request with
    | Ok r -> r
    | Error r -> Alcotest.fail ("relocate refused: " ^ M.refusal_to_string r)
  in
  check_bool "re-hosted off the failed device" true
    (not (String.equal regrant.M.task.M.device_id "dsp0"));
  check_int "keeps the task's priority" victim.M.priority
    regrant.M.task.M.priority;
  check_bool "delta is old minus new score" true
    (Float.abs (delta -. (victim.M.score -. regrant.M.task.M.score)) < 1e-9);
  check_bool "next-best variant degrades QoS" true (delta > 0.0);
  (* The event stream records the whole episode in order. *)
  let kinds =
    List.map
      (function
        | M.Granted _ -> "grant"
        | M.Device_failed _ -> "fail"
        | M.Relocated _ -> "relocate"
        | _ -> "other")
      (M.drain_events m)
  in
  check_bool "grant, failure, regrant, relocation" true
    (kinds = [ "grant"; "fail"; "grant"; "relocate" ])

let test_record_events () =
  let m = standard_manager () in
  let g = get_grant "grant" (M.allocate m ~app_id:"a" request) in
  let task = g.M.task in
  M.record_reconfig_failure m ~task ~cause:M.Flash_read_error ~attempt:1;
  M.record_retry m ~task ~attempt:1 ~backoff_us:200.0;
  M.record_scrub m ~corrupted_words:3 ~diagnostics:2;
  (match M.drain_events m with
  | [ M.Granted _; M.Reconfig_failed f; M.Retried r; M.Scrubbed s ] ->
      check_bool "cause recorded" true (f.cause = M.Flash_read_error);
      check_int "attempt" 1 f.attempt;
      check_int "retry attempt" 1 r.attempt;
      check_bool "backoff" true (r.backoff_us = 200.0);
      check_int "corrupted words" 3 s.corrupted_words;
      check_int "diagnostics" 2 s.diagnostics
  | _ -> Alcotest.fail "unexpected event stream");
  check_bool "cause strings" true
    (M.failure_cause_to_string M.Flash_read_error = "flash-read-error"
    && M.failure_cause_to_string M.Bitstream_load_error
       = "bitstream-load-error"
    && M.failure_cause_to_string M.Load_deadline_exceeded
       = "load-deadline-exceeded")

let () =
  Alcotest.run "allocator"
    [
      ("device", [ Alcotest.test_case "validation" `Quick test_device_validation ]);
      ("catalog", [ Alcotest.test_case "catalog" `Quick test_catalog ]);
      ( "bypass",
        [
          Alcotest.test_case "fingerprint" `Quick test_bypass_fingerprint;
          Alcotest.test_case "cache" `Quick test_bypass_cache;
          Alcotest.test_case "collision detected" `Quick
            test_bypass_collision_detected;
          Alcotest.test_case "signature quantises" `Quick
            test_bypass_signature_quantises;
        ]
        @ bypass_props );
      ( "manager",
        [
          Alcotest.test_case "grants best variant" `Quick test_grant_best_variant;
          Alcotest.test_case "bypass on repeat" `Quick test_bypass_grant_on_repeat;
          Alcotest.test_case "fallback to next candidate" `Quick
            test_fallback_to_next_candidate;
          Alcotest.test_case "threshold refusal" `Quick test_threshold_refusal;
          Alcotest.test_case "no feasible refusal" `Quick test_no_feasible_refusal;
          Alcotest.test_case "unknown type" `Quick test_unknown_type_refusal;
          Alcotest.test_case "preemption" `Quick test_preemption_by_priority;
          Alcotest.test_case "release" `Quick test_release;
          Alcotest.test_case "release app" `Quick test_release_app;
          Alcotest.test_case "events" `Quick test_events;
          Alcotest.test_case "event counts" `Quick test_event_counts;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "preemption precedes grant" `Quick
            test_event_ordering_preemption_before_grant;
          Alcotest.test_case "bypass dies with last instance" `Quick
            test_release_invalidates_bypass_only_on_last_instance;
          Alcotest.test_case "fail and restore device" `Quick
            test_fail_and_restore_device;
          Alcotest.test_case "relocate with degradation" `Quick
            test_relocate_with_degradation;
          Alcotest.test_case "record events" `Quick test_record_events;
        ] );
      ( "offers",
        [
          Alcotest.test_case "ordering" `Quick test_offers_are_score_ordered;
          Alcotest.test_case "release app frees columns" `Quick
            test_release_app_frees_columns;
        ] );
      ( "retrieval-latency",
        [
          Alcotest.test_case "modelling" `Quick test_retrieval_latency_modelling;
        ] );
      ( "fragmented-manager",
        [
          Alcotest.test_case "admission" `Quick test_fragmented_admission;
          Alcotest.test_case "capacity vs contiguity" `Quick
            test_fragmented_refusal_despite_capacity;
          Alcotest.test_case "preemption until gap" `Quick
            test_fragmented_preemption_until_gap;
        ] );
      ( "placement",
        [
          Alcotest.test_case "basics" `Quick test_placement_basics;
          Alcotest.test_case "fragmentation" `Quick test_placement_fragmentation;
          Alcotest.test_case "policies" `Quick test_placement_policies;
          Alcotest.test_case "validation" `Quick test_placement_validation;
        ]
        @ placement_props );
      ("printers", [ Alcotest.test_case "smoke" `Quick test_printers_smoke ]);
      ("churn", churn_props);
      ( "negotiation",
        [
          Alcotest.test_case "first round success" `Quick
            test_negotiation_success_first_round;
          Alcotest.test_case "relaxes until granted" `Quick
            test_negotiation_relaxes_until_granted;
          Alcotest.test_case "gives up" `Quick test_negotiation_gives_up;
          Alcotest.test_case "relaxation helpers" `Quick test_relaxation_helpers;
        ] );
    ]
