(* Tests for the fault-injection library: the seed-driven injector,
   the golden-copy scrubber, and full campaigns exercising detection,
   recovery and graceful degradation end to end. *)

open Qos_core
module I = Faults.Injector
module S = Faults.Scrubber
module C = Faults.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let get = function Ok x -> x | Error e -> Alcotest.fail e

(* --- Injector ---------------------------------------------------------------- *)

let test_injector_deterministic () =
  let run_one seed =
    let inj = I.create ~seed in
    let words = Array.make 64 0 in
    let flips = List.init 10 (fun _ -> I.flip_word inj words) in
    (flips, Array.copy words)
  in
  let f1, w1 = run_one 7 in
  let f2, w2 = run_one 7 in
  check_bool "same seed, same flips" true (f1 = f2);
  check_bool "same seed, same image" true (w1 = w2);
  let f3, _ = run_one 8 in
  check_bool "different seed, different flips" true (f1 <> f3)

let test_injector_flip_in_range () =
  let inj = I.create ~seed:1 in
  let words = Array.make 16 0xAAAA in
  for _ = 1 to 200 do
    let { I.flip_addr; flip_bit } = I.flip_word inj words in
    check_bool "addr in range" true (flip_addr >= 0 && flip_addr < 16);
    check_bool "bit in range" true (flip_bit >= 0 && flip_bit < 16);
    check_bool "stays a 16-bit word" true
      (words.(flip_addr) >= 0 && words.(flip_addr) <= 0xFFFF)
  done;
  Alcotest.check_raises "empty image rejected"
    (Invalid_argument "Injector.flip_word: empty image") (fun () ->
      ignore (I.flip_word inj [||]))

let test_injector_draw_clamps () =
  let inj = I.create ~seed:3 in
  for _ = 1 to 50 do
    check_bool "prob 0 never fires" false (I.draw inj ~prob:0.0);
    check_bool "prob 1 always fires" true (I.draw inj ~prob:1.0)
  done;
  (* The clamped draws consumed no randomness: the stream matches a
     fresh injector's. *)
  let fresh = I.create ~seed:3 in
  check_bool "degenerate draws are free" true
    (I.interval inj ~mean_us:100.0 = I.interval fresh ~mean_us:100.0)

(* --- Scrubber ---------------------------------------------------------------- *)

let scrubber () = get (S.create Scenario_audio.casebase Scenario_audio.request)

let test_scrubber_clean_at_start () =
  let s = scrubber () in
  check_bool "clean" true (S.clean s);
  check_int "no corrupted words" 0 (S.corrupted_words s);
  check_bool "checksum matches" true (S.checksum_matches s);
  check_int "no diagnostics" 0 (S.diagnose s)

let test_scrubber_detects_and_repairs () =
  let s = scrubber () in
  let inj = I.create ~seed:11 in
  let flip = I.flip_word inj (S.live s) in
  check_int "one corrupted word" 1 (S.corrupted_words s);
  check_bool "checksum mismatch" true (not (S.checksum_matches s));
  ignore flip;
  let rewritten = S.repair s in
  check_int "repair rewrote the word" 1 rewritten;
  check_bool "clean after repair" true (S.clean s);
  check_bool "checksum restored" true (S.checksum_matches s);
  (* A flip that cancels itself out is also invisible to the diff. *)
  let w = (S.live s).(0) in
  (S.live s).(0) <- w lxor 1;
  (S.live s).(0) <- w;
  check_bool "self-cancelling flip leaves it clean" true (S.clean s)

let test_scrubber_end_marker_corruption_diagnosed () =
  (* Smash a word to the reserved end marker: the semantic pass must
     object even though the checksum tier would already catch it. *)
  let s = scrubber () in
  (S.live s).(1) <- 0xFFFF;
  check_bool "diagnosed" true (S.diagnose s > 0);
  ignore (S.repair s);
  check_int "clean again" 0 (S.diagnose s)

(* --- Campaigns --------------------------------------------------------------- *)

let base_spec ?(duration_us = 60_000.0) ?(seed = 42) () =
  let base =
    { (Desim.Simulate.default_spec ()) with Desim.Simulate.duration_us; seed }
  in
  { (C.default_spec ()) with C.base }

let test_campaign_clean () =
  let r = C.run (base_spec ()) in
  check_bool "verdict clean" true (C.classify r = C.Clean);
  check_int "exit 0" 0 (C.exit_code r);
  check_bool "workload ran" true (r.C.requests > 0 && r.C.grants > 0);
  check_bool "no corruption counters" true
    (r.C.corruption.C.seu_injected = 0
    && r.C.corruption.C.undetected_retrievals = 0);
  check_bool "full availability" true
    (List.for_all (fun a -> a.C.av_availability = 1.0) r.C.availability)

let test_campaign_deterministic () =
  let spec =
    {
      (base_spec ~seed:7 ()) with
      C.seu_mean_interval_us = Some 2_000.0;
      scrub_period_us = Some 5_000.0;
      reconfig_fail_prob = 0.1;
      device_faults =
        [
          {
            C.df_device_id = "dsp0";
            df_at_us = 20_000.0;
            df_kind = `Transient 15_000.0;
          };
        ];
    }
  in
  let j1 = C.to_json (C.run spec) in
  let j2 = C.to_json (C.run spec) in
  check_bool "byte-identical reports" true (String.equal j1 j2);
  check_bool "trailing newline" true (j1.[String.length j1 - 1] = '\n')

let test_campaign_seu_with_scrubbing () =
  let spec =
    {
      (base_spec ()) with
      C.seu_mean_interval_us = Some 2_000.0;
      scrub_period_us = Some 5_000.0;
    }
  in
  let r = C.run spec in
  check_bool "upsets injected" true (r.C.corruption.C.seu_injected > 0);
  check_bool "scrubbing ran" true (r.C.corruption.C.scrub_runs > 0);
  check_bool "repairs happened" true (r.C.corruption.C.scrub_repairs > 0);
  check_bool "corrupted retrievals detected" true
    (r.C.corruption.C.detected_retrievals > 0);
  check_int "zero undetected retrievals" 0
    r.C.corruption.C.undetected_retrievals;
  check_bool "degraded but recovered" true
    (C.classify r = C.Degraded_recovered);
  check_int "exit 1" 1 (C.exit_code r)

let test_campaign_seu_without_scrubbing () =
  let spec = { (base_spec ()) with C.seu_mean_interval_us = Some 2_000.0 } in
  let r = C.run spec in
  check_bool "upsets injected" true (r.C.corruption.C.seu_injected > 0);
  check_int "no scrubbing" 0 r.C.corruption.C.scrub_runs;
  check_bool "silent corruption consumed" true
    (r.C.corruption.C.undetected_retrievals > 0);
  check_bool "unrecovered loss" true (C.classify r = C.Unrecovered_loss);
  check_int "exit 2" 2 (C.exit_code r)

let test_campaign_retry_recovers () =
  let spec = { (base_spec ()) with C.reconfig_fail_prob = 0.1 } in
  let r = C.run spec in
  check_bool "loads failed" true (r.C.recovery.C.failed_loads > 0);
  check_bool "retries happened" true (r.C.recovery.C.retries > 0);
  check_bool "loads recovered" true (r.C.recovery.C.recovered_loads > 0);
  check_int "nothing lost" 0 r.C.recovery.C.lost_allocations;
  check_bool "recovery time recorded" true
    (r.C.recovery.C.mean_recovery_us >= spec.C.backoff.Faults.Backoff.base_us);
  check_bool "degraded but recovered" true
    (C.classify r = C.Degraded_recovered)

let test_campaign_retries_exhausted () =
  let spec =
    {
      (base_spec ~duration_us:30_000.0 ()) with
      C.reconfig_fail_prob = 0.95;
      max_retries = 0;
    }
  in
  let r = C.run spec in
  check_bool "allocations lost" true (r.C.recovery.C.lost_allocations > 0);
  check_int "no retries allowed" 0 r.C.recovery.C.retries;
  check_bool "unrecovered loss" true (C.classify r = C.Unrecovered_loss);
  check_int "exit 2" 2 (C.exit_code r)

let test_campaign_permanent_device_failure () =
  let spec =
    {
      (base_spec ()) with
      C.device_faults =
        [ { C.df_device_id = "dsp0"; df_at_us = 20_000.0; df_kind = `Permanent } ];
    }
  in
  let r = C.run spec in
  check_bool "tasks relocated" true (r.C.degradation.C.relocations > 0);
  check_int "one delta per relocation" r.C.degradation.C.relocations
    (List.length r.C.degradation.C.similarity_deltas);
  check_bool "relocation degrades QoS" true
    (List.exists (fun d -> d > 0.0) r.C.degradation.C.similarity_deltas);
  check_int "no lost tasks" 0 r.C.degradation.C.lost_tasks;
  let dsp =
    List.find (fun a -> String.equal a.C.av_device_id "dsp0") r.C.availability
  in
  check_int "one failure" 1 dsp.C.av_failures;
  check_bool "down to the end" true
    (Float.abs (dsp.C.av_downtime_us -. 40_000.0) < 1e-6);
  check_bool "availability fraction" true
    (Float.abs (dsp.C.av_availability -. (1.0 /. 3.0)) < 1e-6);
  check_bool "degraded but recovered" true
    (C.classify r = C.Degraded_recovered)

let test_campaign_transient_device_failure () =
  let spec =
    {
      (base_spec ()) with
      C.device_faults =
        [
          {
            C.df_device_id = "dsp0";
            df_at_us = 20_000.0;
            df_kind = `Transient 15_000.0;
          };
        ];
    }
  in
  let r = C.run spec in
  let dsp =
    List.find (fun a -> String.equal a.C.av_device_id "dsp0") r.C.availability
  in
  check_bool "downtime equals the transient window" true
    (Float.abs (dsp.C.av_downtime_us -. 15_000.0) < 1e-6);
  check_bool "mttr equals downtime for one failure" true
    (Float.abs (dsp.C.av_mttr_us -. 15_000.0) < 1e-6);
  check_bool "restored event recorded" true
    (List.assoc "device-restored" r.C.event_counts = 1)

(* With every fault model off the campaign is the Desim workload: the
   same requests, outcomes and event count as a plain simulation. *)
let test_campaign_replays_simulate () =
  List.iter
    (fun seed ->
      let spec = base_spec ~seed () in
      let r = C.run spec in
      let sim = Desim.Simulate.run spec.C.base in
      let t = sim.Desim.Simulate.totals in
      let name what = Printf.sprintf "seed %d %s" seed what in
      check_int (name "requests") t.Desim.Simulate.requests r.C.requests;
      check_int (name "grants") t.Desim.Simulate.grants r.C.grants;
      check_int (name "bypass grants") t.Desim.Simulate.bypass_grants
        r.C.bypass_grants;
      check_int (name "refusals") t.Desim.Simulate.refusals r.C.refusals;
      check_int (name "events fired") sim.Desim.Simulate.events_fired
        r.C.events_fired)
    [ 7; 42; 1234 ]

let test_campaign_rejects_bad_intervals () =
  List.iter
    (fun (what, spec) ->
      match C.run spec with
      | _ -> Alcotest.fail (what ^ " accepted")
      | exception Invalid_argument _ -> ())
    [
      ("zero scrub period", { (base_spec ()) with C.scrub_period_us = Some 0.0 });
      ( "NaN scrub period",
        { (base_spec ()) with C.scrub_period_us = Some Float.nan } );
      ( "negative SEU mean",
        { (base_spec ()) with C.seu_mean_interval_us = Some (-5.0) } );
      ( "infinite SEU mean",
        { (base_spec ()) with C.seu_mean_interval_us = Some Float.infinity } );
    ]

let test_verdict_strings () =
  check_bool "clean" true (C.verdict_to_string C.Clean = "clean");
  check_bool "degraded" true
    (C.verdict_to_string C.Degraded_recovered = "degraded-recovered");
  check_bool "loss" true
    (C.verdict_to_string C.Unrecovered_loss = "unrecovered-loss")

let () =
  Alcotest.run "faults"
    [
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "flips in range" `Quick test_injector_flip_in_range;
          Alcotest.test_case "draw clamps" `Quick test_injector_draw_clamps;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "clean at start" `Quick test_scrubber_clean_at_start;
          Alcotest.test_case "detects and repairs" `Quick
            test_scrubber_detects_and_repairs;
          Alcotest.test_case "end-marker corruption diagnosed" `Quick
            test_scrubber_end_marker_corruption_diagnosed;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "clean" `Quick test_campaign_clean;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "seu with scrubbing" `Quick
            test_campaign_seu_with_scrubbing;
          Alcotest.test_case "seu without scrubbing" `Quick
            test_campaign_seu_without_scrubbing;
          Alcotest.test_case "retry recovers" `Quick test_campaign_retry_recovers;
          Alcotest.test_case "retries exhausted" `Quick
            test_campaign_retries_exhausted;
          Alcotest.test_case "permanent device failure" `Quick
            test_campaign_permanent_device_failure;
          Alcotest.test_case "transient device failure" `Quick
            test_campaign_transient_device_failure;
          Alcotest.test_case "fault-free campaign replays the simulate workload"
            `Quick test_campaign_replays_simulate;
          Alcotest.test_case "bad scrub period or SEU mean rejected" `Quick
            test_campaign_rejects_bad_intervals;
          Alcotest.test_case "verdict strings" `Quick test_verdict_strings;
        ] );
    ]
