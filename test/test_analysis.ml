(* Tests for the qosalloc.analysis static-analysis passes: a clean bill
   of health on the paper scenario, plus negative tests for the image,
   range and program passes that must produce an Error naming the
   offending word or instruction.  The netlist passes have their own
   mutation harness in test_netlist.ml. *)

open Qos_core
module D = Analysis.Diagnostic

let get = function Ok x -> x | Error e -> Alcotest.fail e
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let has_error ~loc_part ~msg_part diags =
  List.exists
    (fun (d : D.t) ->
      d.D.severity = D.Error
      && contains d.D.location loc_part
      && contains d.D.message msg_part)
    diags

let pp_all diags =
  String.concat "\n"
    (List.map (fun d -> Format.asprintf "%a" D.pp d) diags)

let fail_with what diags =
  Alcotest.failf "%s:\n%s" what (pp_all diags)

(* --- Positive: the paper scenario is clean through every pass --------- *)

let test_lint_clean () =
  let diags = Analysis.Driver.lint cb request in
  if D.errors diags > 0 || D.warnings diags > 0 then
    fail_with "paper scenario must lint clean" diags;
  (* The only finding is the proven Info about weight-rounding slack. *)
  check_bool "info about rounding slack present" true
    (List.exists
       (fun (d : D.t) ->
         d.D.severity = D.Info && d.D.pass = "range"
         && contains d.D.message "ulp")
       diags)

let test_lint_raw_clean () =
  let image = get (Memlayout.build_system cb request) in
  let diags =
    Analysis.Driver.lint_raw ~cb_mem:image.Memlayout.cb_mem
      ~req_mem:image.Memlayout.req_mem
      ~supplemental_base:image.Memlayout.supplemental_base
  in
  check_int "raw lint errors" 0 (D.errors diags);
  check_int "raw lint warnings" 0 (D.warnings diags)

let test_range_proof () =
  (* Design-time proof: no multiplier/adder saturation for any request
     within the schema domain. *)
  let report = Analysis.Range_check.analyze cb in
  check_int "no errors" 0 (D.errors report.Analysis.Range_check.diagnostics);
  List.iter
    (fun (r : Analysis.Range_check.attr_range) ->
      check_bool "product within multiplier range" true
        (r.Analysis.Range_check.product.Analysis.Range_check.hi <= 65535);
      check_bool "local similarity within Q15 one" true
        (r.Analysis.Range_check.local.Analysis.Range_check.hi
         <= Fxp.Q15.to_raw Fxp.Q15.one))
    report.Analysis.Range_check.attr_ranges

let test_prog_clean_both_styles () =
  let image = get (Memlayout.build_system cb request) in
  let map = Mblaze.Retrieval_prog.build_memory image in
  let memory_words = Array.length map.Mblaze.Retrieval_prog.memory in
  List.iter
    (fun style ->
      let items =
        Mblaze.Retrieval_prog.routine_items ~style
          ~supp_base:map.Mblaze.Retrieval_prog.supp_base
          ~req_base:map.Mblaze.Retrieval_prog.req_base
          ~result_base:map.Mblaze.Retrieval_prog.result_base
          ~frame_base:map.Mblaze.Retrieval_prog.frame_base ()
      in
      let diags = Analysis.Prog_check.check_items ~memory_words items in
      if diags <> [] then fail_with "retrieval routine must be clean" diags)
    [ Mblaze.Retrieval_prog.Hand_optimized; Mblaze.Retrieval_prog.Compiled_c ]

let test_netlist_passes_in_lint () =
  (* The driver runs the six IR passes; the clean scenario surfaces
     their summary Info and nothing worse. *)
  let diags = Analysis.Driver.lint cb request in
  check_int "no errors" 0 (D.errors diags);
  check_int "no warnings" 0 (D.warnings diags);
  check_bool "netlist summary info present" true
    (List.exists
       (fun (d : D.t) ->
         d.D.severity = D.Info && d.D.pass = "netlist"
         && contains d.D.message "6 IR passes")
       diags)

let test_lint_total () =
  (* An un-encodable scenario is a lint error (exit 2): attribute id
     65535 passes Request.make but collides with the end marker during
     encoding. *)
  let colliding = get (Qos_core.Request.make ~type_id:1 [ (65535, 16, 1.0) ]) in
  check_bool "scenario really fails to encode" true
    (Result.is_error (Memlayout.build_system cb colliding));
  let diags = Analysis.Driver.lint cb colliding in
  check_bool "encode failure becomes an error diagnostic" true
    (D.errors diags > 0);
  check_int "exit code 2" 2 (D.exit_code diags)

(* --- Negative: image pass ------------------------------------------------ *)

let test_image_corrupt_recip () =
  let image = get (Memlayout.build_system cb request) in
  let cb_mem = Array.copy image.Memlayout.cb_mem in
  (* First supplemental block is (id, lower, upper, recip): the recip
     word sits at supplemental_base + 3. *)
  let addr = image.Memlayout.supplemental_base + 3 in
  cb_mem.(addr) <- cb_mem.(addr) + 1;
  let diags =
    Analysis.Image_check.check_raw ~cb_mem ~req_mem:image.Memlayout.req_mem
      ~supplemental_base:image.Memlayout.supplemental_base
  in
  check_bool "recip mismatch reported at the corrupted word" true
    (has_error ~loc_part:(Printf.sprintf "cb_mem[0x%04x]" addr)
       ~msg_part:"recip" diags)

let test_image_corrupt_pointer () =
  let image = get (Memlayout.build_system cb request) in
  let cb_mem = Array.copy image.Memlayout.cb_mem in
  (* Word 1 is the first type's level-1 pointer (Fig. 4). *)
  cb_mem.(1) <- Memlayout.end_marker;
  let diags =
    Analysis.Image_check.check_raw ~cb_mem ~req_mem:image.Memlayout.req_mem
      ~supplemental_base:image.Memlayout.supplemental_base
  in
  check_bool "out-of-region pointer reported at the pointer word" true
    (has_error ~loc_part:"cb_mem[0x0001]" ~msg_part:"" diags)

let test_image_weight_sum () =
  let image = get (Memlayout.build_system cb request) in
  let req_mem = Array.copy image.Memlayout.req_mem in
  (* Word 3 is the first constraint's weight (type, id, value, weight). *)
  req_mem.(3) <- 1;
  let diags =
    Analysis.Image_check.check_raw ~cb_mem:image.Memlayout.cb_mem ~req_mem
      ~supplemental_base:image.Memlayout.supplemental_base
  in
  check_bool "weight-sum violation reported" true
    (has_error ~loc_part:"req_mem" ~msg_part:"" diags)

(* --- Negative: range pass ------------------------------------------------- *)

let test_range_multiplier_saturation () =
  let report =
    Analysis.Range_check.analyze_raw
      ~supplemental:[ (7, 0, 100, 65535) ]
      ~weights:[ (7, Fxp.Q15.to_raw Fxp.Q15.one) ]
  in
  check_bool "multiplier saturation names the attribute" true
    (has_error ~loc_part:"attr 7" ~msg_part:"saturates the 16-bit multiplier"
       report.Analysis.Range_check.diagnostics)

let test_range_adder_saturation () =
  (* Two full-weight attributes: each term can reach Q15 one, so the
     accumulator interval tops out at 2.0 > 65535/32768. *)
  let report =
    Analysis.Range_check.analyze_raw
      ~supplemental:[ (1, 0, 10, 2979); (2, 0, 10, 2979) ]
      ~weights:
        [ (1, Fxp.Q15.to_raw Fxp.Q15.one); (2, Fxp.Q15.to_raw Fxp.Q15.one) ]
  in
  check_bool "adder saturation reported with witness" true
    (has_error ~loc_part:"score" ~msg_part:"accumulating adder saturates"
       report.Analysis.Range_check.diagnostics)

(* --- Negative: prog pass --------------------------------------------------- *)

let test_prog_out_of_bounds_load () =
  let items =
    [
      Mblaze.Asm.Insn (Mblaze.Isa.Li (1, 500));
      Mblaze.Asm.Insn (Mblaze.Isa.Lw (2, 1, 12));
      Mblaze.Asm.Insn Mblaze.Isa.Halt;
    ]
  in
  let diags = Analysis.Prog_check.check_items ~memory_words:100 items in
  check_bool "proven out-of-bounds load at insn 1" true
    (has_error ~loc_part:"insn 1" ~msg_part:"provably accesses word 512" diags)

let test_prog_missing_halt () =
  let items = [ Mblaze.Asm.Insn (Mblaze.Isa.Li (1, 0)) ] in
  let diags = Analysis.Prog_check.check_items items in
  check_bool "falling off the end is an error" true
    (has_error ~loc_part:"insn 0" ~msg_part:"fall off the end" diags)

let test_prog_undefined_label () =
  let items =
    [
      Mblaze.Asm.Insn (Mblaze.Isa.Jmp "nowhere");
      Mblaze.Asm.Insn Mblaze.Isa.Halt;
    ]
  in
  let diags = Analysis.Prog_check.check_items items in
  check_bool "undefined label named" true
    (has_error ~loc_part:"insn 0" ~msg_part:"nowhere" diags)

let test_prog_unreachable_and_r0 () =
  let items =
    [
      Mblaze.Asm.Insn Mblaze.Isa.Halt;
      Mblaze.Asm.Insn (Mblaze.Isa.Li (0, 3));
    ]
  in
  let diags = Analysis.Prog_check.check_items items in
  check_bool "unreachable code warned" true
    (List.exists
       (fun (d : D.t) ->
         d.D.severity = D.Warning && contains d.D.message "unreachable")
       diags)

(* --- Driver + emit gating ---------------------------------------------------- *)

let test_driver_merges_and_sorts () =
  let image = get (Memlayout.build_system cb request) in
  let cb_mem = Array.copy image.Memlayout.cb_mem in
  cb_mem.(1) <- Memlayout.end_marker;
  let diags =
    Analysis.Driver.lint_raw ~cb_mem ~req_mem:image.Memlayout.req_mem
      ~supplemental_base:image.Memlayout.supplemental_base
  in
  check_bool "errors first" true (D.errors diags > 0);
  check_bool "sorted" true (D.sort diags = diags);
  check_int "exit code" 2 (D.exit_code diags)

let test_exit_codes () =
  check_int "clean" 0 (D.exit_code []);
  check_int "info only" 0
    (D.exit_code [ D.infof ~pass:"range" ~loc:"score" "fine" ]);
  check_int "warning" 1
    (D.exit_code [ D.warningf ~pass:"image" ~loc:"x" "meh" ]);
  check_int "error wins" 2
    (D.exit_code
       [
         D.warningf ~pass:"image" ~loc:"x" "meh";
         D.errorf ~pass:"image" ~loc:"y" "bad";
       ])

(* --- properties -------------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "encode -> emit -> lint is error-free on generated scenarios"
      (QCheck2.Gen.int_range 0 20_000)
      (fun seed ->
        let cb =
          Workload.Generator.sized_casebase ~seed ~types:2 ~impls:3 ~attrs:3
        in
        let req = Workload.Generator.sized_request ~seed cb in
        match Rtlgen.Vhdl.project cb req with
        | Error _ -> true (* un-encodable scenarios are exercised elsewhere *)
        | Ok _ -> D.errors (Analysis.Driver.lint cb req) = 0);
  ]

let () =
  Alcotest.run "analysis"
    [
      ( "clean",
        [
          Alcotest.test_case "full lint" `Quick test_lint_clean;
          Alcotest.test_case "raw image lint" `Quick test_lint_raw_clean;
          Alcotest.test_case "range proof" `Quick test_range_proof;
          Alcotest.test_case "routines (both styles)" `Quick
            test_prog_clean_both_styles;
          Alcotest.test_case "netlist passes in lint" `Quick
            test_netlist_passes_in_lint;
        ] );
      ( "image",
        [
          Alcotest.test_case "corrupted reciprocal" `Quick
            test_image_corrupt_recip;
          Alcotest.test_case "corrupted pointer" `Quick
            test_image_corrupt_pointer;
          Alcotest.test_case "weight sum" `Quick test_image_weight_sum;
        ] );
      ( "range",
        [
          Alcotest.test_case "multiplier saturation" `Quick
            test_range_multiplier_saturation;
          Alcotest.test_case "adder saturation" `Quick
            test_range_adder_saturation;
        ] );
      ( "prog",
        [
          Alcotest.test_case "out-of-bounds load" `Quick
            test_prog_out_of_bounds_load;
          Alcotest.test_case "missing halt" `Quick test_prog_missing_halt;
          Alcotest.test_case "undefined label" `Quick test_prog_undefined_label;
          Alcotest.test_case "unreachable code" `Quick
            test_prog_unreachable_and_r0;
        ] );
      ( "driver",
        [
          Alcotest.test_case "merge and sort" `Quick
            test_driver_merges_and_sorts;
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "lint_scenario is total" `Quick
            test_lint_total;
        ] );
      ("properties", props);
    ]
