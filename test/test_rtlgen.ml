(* Tests for the VHDL exporter and the memory-initialisation formats.

   No VHDL toolchain is available in the build environment, so the
   generated code is checked structurally (balanced constructs, all FSM
   states declared and handled, image words embedded, expected values
   baked into the testbench) and for determinism; its semantics mirror
   Rtlsim.Machine, which is verified against the engines elsewhere. *)

open Qos_core
module V = Rtlgen.Vhdl
module MF = Rtlgen.Memfiles

let get = function Ok x -> x | Error e -> Alcotest.fail e
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

let count_substring haystack needle =
  let n = String.length haystack and m = String.length needle in
  if m = 0 then 0
  else begin
    let count = ref 0 in
    for i = 0 to n - m do
      if String.sub haystack i m = needle then incr count
    done;
    !count
  end

let contains haystack needle = count_substring haystack needle > 0

(* --- package / unit -------------------------------------------------------- *)

let test_package () =
  let f = V.package () in
  check_bool "filename" true (String.equal f.V.filename "qos_retrieval_pkg.vhd");
  check_bool "declares the end marker" true
    (contains f.V.contents "END_MARKER");
  check_bool "declares Q15 one" true (contains f.V.contents "Q15_ONE");
  check_int "package opens and closes" 1
    (count_substring f.V.contents "end package")

let fsm_states =
  [
    "st_idle"; "st_fetch_type"; "st_scan_type"; "st_type_ptr"; "st_impl_id";
    "st_impl_ptr"; "st_req_id"; "st_req_val"; "st_req_w"; "st_supp_scan";
    "st_supp_recip"; "st_attr_scan"; "st_attr_val"; "st_abs"; "st_mul_recip";
    "st_local_zero"; "st_accum_mul"; "st_accum_add"; "st_compare"; "st_done";
    "st_error";
  ]

let test_retrieval_unit_structure () =
  let f = V.retrieval_unit () in
  check_bool "entity present" true
    (contains f.V.contents "entity qos_retrieval_unit is");
  check_bool "architecture present" true
    (contains f.V.contents "architecture rtl of qos_retrieval_unit is");
  check_int "one clocked process" 1 (count_substring f.V.contents "rising_edge");
  List.iter
    (fun st ->
      check_bool (st ^ " declared and handled") true
        (count_substring f.V.contents st >= 2))
    fsm_states;
  (* Every `when st_x =>` arm is inside one case statement. *)
  check_int "case closed" 1 (count_substring f.V.contents "end case");
  check_bool "saturating accumulate present" true
    (contains f.V.contents "to_unsigned(65535, 17)");
  check_bool "rounding constant present" true (contains f.V.contents "16384")

let test_unit_is_deterministic () =
  check_bool "same text on every call" true
    (String.equal (V.retrieval_unit ()).V.contents
       (V.retrieval_unit ()).V.contents)

(* --- ROMs -------------------------------------------------------------------- *)

let test_rom () =
  let f = get (V.rom ~name:"test_rom" ~words:[| 1; 0xfffe; 42 |]) in
  check_bool "filename" true (String.equal f.V.filename "test_rom.vhd");
  check_bool "word embedded" true (contains f.V.contents "x\"fffe\"");
  check_bool "depth bound" true (contains f.V.contents "array (0 to 2)");
  check_bool "empty rejected" true (Result.is_error (V.rom ~name:"r" ~words:[||]));
  check_bool "range checked" true
    (Result.is_error (V.rom ~name:"r" ~words:[| 70000 |]))

let test_rom_embeds_whole_image () =
  let image = get (Memlayout.build_system cb request) in
  let f = get (V.rom ~name:"qos_cb_rom" ~words:image.Memlayout.cb_mem) in
  (* Count the data entries: one " => x\"" per word. *)
  check_int "every word present"
    (Array.length image.Memlayout.cb_mem)
    (count_substring f.V.contents " => x\"")

(* --- testbench / project ------------------------------------------------------ *)

let test_testbench_expectations () =
  let f = get (V.testbench cb request) in
  (* Expected values from the fixed engine: impl 2, raw 31588. *)
  check_bool "expected id baked in" true
    (contains f.V.contents "EXPECTED_ID    : integer := 2");
  check_bool "expected score baked in" true
    (contains f.V.contents "EXPECTED_SCORE : integer := 31588");
  check_bool "self-checking" true (contains f.V.contents "severity failure");
  let missing = get (Request.make ~type_id:42 [ (1, 16, 1.0) ]) in
  check_bool "unanswerable request fails" true
    (Result.is_error (V.testbench cb missing))

let test_project () =
  let files = get (V.project cb request) in
  Alcotest.(check (list string))
    "file set"
    [
      "qos_retrieval_pkg.vhd"; "qos_retrieval_unit.vhd"; "qos_cb_rom.vhd";
      "qos_req_rom.vhd"; "qos_retrieval_tb.vhd";
    ]
    (List.map (fun f -> f.V.filename) files);
  (* The testbench must reference both ROM entities and the unit. *)
  let tb = List.nth files 4 in
  check_bool "tb instantiates cb rom" true
    (contains tb.V.contents "entity work.qos_cb_rom");
  check_bool "tb instantiates req rom" true
    (contains tb.V.contents "entity work.qos_req_rom");
  check_bool "tb instantiates dut" true
    (contains tb.V.contents "entity work.qos_retrieval_unit");
  (* The supplemental base generic matches the image layout. *)
  let image = get (Memlayout.build_system cb request) in
  check_bool "supp base generic" true
    (contains tb.V.contents
       (Printf.sprintf "SUPP_BASE => %d" image.Memlayout.supplemental_base))

(* --- memory files ---------------------------------------------------------------- *)

let test_coe () =
  let text = get (MF.emit MF.Coe [| 0x0001; 0xfffe |]) in
  check_bool "radix header" true
    (contains text "memory_initialization_radix=16;");
  check_bool "vector terminated" true (contains text "fffe;");
  check_bool "comma separated" true (contains text "0001,")

let test_mif () =
  let text = get (MF.emit MF.Mif [| 10; 20 |]) in
  check_bool "depth" true (contains text "DEPTH = 2;");
  check_bool "width" true (contains text "WIDTH = 16;");
  check_bool "entry" true (contains text "1 : 0014;");
  check_bool "end" true (contains text "END;")

let test_hex_roundtrip () =
  let words = [| 0; 1; 0xabcd; 0xffff |] in
  let text = get (MF.emit MF.Hex words) in
  let back = get (MF.parse_hex text) in
  check_bool "round trip" true (back = words);
  (* Comments and blank lines are tolerated. *)
  let annotated = "// header\n\n0001\n00ff // trailing\n" in
  check_bool "comments ok" true (get (MF.parse_hex annotated) = [| 1; 0xff |]);
  check_bool "malformed rejected" true (Result.is_error (MF.parse_hex "xyzt\n"));
  check_bool "empty image rejected" true (Result.is_error (MF.emit MF.Hex [||]));
  check_bool "extension names" true
    (List.for_all2 String.equal
       (List.map MF.extension [ MF.Coe; MF.Mif; MF.Hex ])
       [ "coe"; "mif"; "hex" ])

let test_emit_system_gated () =
  let image = get (Memlayout.build_system cb request) in
  (* A healthy image produces both memory files, in every format. *)
  List.iter
    (fun fmt ->
      match MF.emit_system fmt image with
      | Error e -> Alcotest.fail e
      | Ok files ->
          Alcotest.(check (list string))
            "filenames"
            [ "qos_cb_mem." ^ MF.extension fmt; "qos_req_mem." ^ MF.extension fmt ]
            (List.map fst files))
    [ MF.Coe; MF.Mif; MF.Hex ];
  (* A corrupted image is refused with a diagnostic, not an exception. *)
  let cb_mem = Array.copy image.Memlayout.cb_mem in
  cb_mem.(1) <- Memlayout.end_marker;
  let corrupted = { image with Memlayout.cb_mem } in
  match MF.emit_system MF.Hex corrupted with
  | Ok _ -> Alcotest.fail "emit_system accepted a corrupted image"
  | Error msg ->
      check_bool "mentions the verifier" true
        (count_substring msg "image verifier" > 0);
      check_bool "names the offending word" true
        (count_substring msg "cb_mem[0x0001]" > 0)

(* --- properties --------------------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "hex emit/parse round-trips arbitrary images"
      QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 65535))
      (fun words ->
        let words = Array.of_list words in
        match MF.emit MF.Hex words with
        | Error _ -> false
        | Ok text -> (
            match MF.parse_hex text with
            | Ok back -> back = words
            | Error _ -> false));
    prop "generated ROM embeds exactly the image words"
      (QCheck2.Gen.int_range 0 20_000)
      (fun seed ->
        let cb =
          Workload.Generator.sized_casebase ~seed ~types:2 ~impls:2 ~attrs:3
        in
        match Memlayout.encode_cb cb with
        | Error _ -> false
        | Ok image -> (
            let words =
              Array.sub image.Memlayout.cb_words 0
                image.Memlayout.cb_supplemental_base
            in
            match V.rom ~name:"r" ~words with
            | Error _ -> false
            | Ok f ->
                count_substring f.V.contents " => x\"" = Array.length words));
    prop "project generation succeeds on generated scenarios"
      (QCheck2.Gen.int_range 0 20_000)
      (fun seed ->
        let cb =
          Workload.Generator.sized_casebase ~seed ~types:2 ~impls:3 ~attrs:4
        in
        let req = Workload.Generator.sized_request ~seed cb in
        match V.project cb req with
        | Ok files -> List.length files = 5
        | Error _ -> false);
  ]

let () =
  Alcotest.run "rtlgen"
    [
      ( "vhdl",
        [
          Alcotest.test_case "package" `Quick test_package;
          Alcotest.test_case "unit structure" `Quick
            test_retrieval_unit_structure;
          Alcotest.test_case "deterministic" `Quick test_unit_is_deterministic;
          Alcotest.test_case "rom" `Quick test_rom;
          Alcotest.test_case "rom embeds image" `Quick
            test_rom_embeds_whole_image;
          Alcotest.test_case "testbench" `Quick test_testbench_expectations;
          Alcotest.test_case "project" `Quick test_project;
        ] );
      ( "memfiles",
        [
          Alcotest.test_case "coe" `Quick test_coe;
          Alcotest.test_case "mif" `Quick test_mif;
          Alcotest.test_case "hex round-trip" `Quick test_hex_roundtrip;
          Alcotest.test_case "emit_system gated by verifier" `Quick
            test_emit_system_gated;
        ] );
      ("properties", props);
    ]
