(* Tests for the case-base / request text format. *)

open Qos_core

let get = function
  | Ok x -> x
  | Error (e : Textfmt.parse_error) ->
      Alcotest.fail (Format.asprintf "%a" Textfmt.pp_parse_error e)

let get_perr what = function
  | Ok _ -> Alcotest.fail (what ^ ": expected a parse error")
  | Error (e : Textfmt.parse_error) -> e

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample =
  {|# audio library
casebase "audio-dsp"
schema
  attr 1 "bitwidth" 8 16
  attr 3 "output-mode" 0 2
  attr 4 "sample-rate" 8 44

type 1 "fir-equalizer"
  impl 1 fpga
    set 1 16
    set 3 2
    set 4 44
  impl 2 dsp
    set 1 16
    set 3 1
    set 4 44

request 1
  want 1 16 1.0
  want 4 40 0.5
|}

let test_parse_sample () =
  let doc = get (Textfmt.parse_document sample) in
  let cb = Option.get doc.Textfmt.casebase in
  check_bool "name" true (String.equal cb.Casebase.name "audio-dsp");
  check_int "schema size" 3 (Attr.Schema.cardinal cb.Casebase.schema);
  check_int "types" 1 (List.length cb.Casebase.ftypes);
  check_int "impls" 2
    (Ftype.impl_count (Option.get (Casebase.find_type cb 1)));
  check_int "requests" 1 (List.length doc.Textfmt.requests);
  let r = List.hd doc.Textfmt.requests in
  check_int "request type" 1 r.Request.type_id;
  check_int "request constraints" 2 (Request.constraint_count r)

let test_comments_and_blanks () =
  let doc =
    get
      (Textfmt.parse_document
         "\n# only comments\n\n  # indented comment\nrequest 5\n  want 1 2 3.0 # trailing\n")
  in
  check_int "one request" 1 (List.length doc.Textfmt.requests);
  check_bool "no casebase" true (doc.Textfmt.casebase = None)

let test_quoted_names_with_spaces () =
  let cb =
    get
      (Textfmt.parse_casebase
         "casebase \"my library\"\ntype 1 \"fir equalizer mk II\"\n  impl 1 gpp\n")
  in
  check_bool "name kept" true (String.equal cb.Casebase.name "my library")

let test_roundtrip_paper_casebase () =
  let printed = Textfmt.print_casebase Scenario_audio.casebase in
  let reparsed = get (Textfmt.parse_casebase printed) in
  check_bool "round-trip equality" true
    (Casebase.equal Scenario_audio.casebase reparsed)

let test_roundtrip_request () =
  let printed = Textfmt.print_request Scenario_audio.request in
  let reparsed = get (Textfmt.parse_request printed) in
  check_bool "request round-trip" true
    (Request.equal Scenario_audio.request reparsed)

let test_roundtrip_document () =
  let doc =
    {
      Textfmt.casebase = Some Scenario_audio.casebase;
      requests = [ Scenario_audio.request; Scenario_audio.relaxed_request ];
    }
  in
  let reparsed = get (Textfmt.parse_document (Textfmt.print_document doc)) in
  check_bool "casebase" true
    (Casebase.equal Scenario_audio.casebase
       (Option.get reparsed.Textfmt.casebase));
  check_int "requests" 2 (List.length reparsed.Textfmt.requests)

(* --- Errors -------------------------------------------------------------- *)

let expect_error what input =
  ignore (get_perr what (Textfmt.parse_document input))

let test_errors () =
  expect_error "unknown keyword" "bogus 1 2\n";
  expect_error "unterminated quote" "casebase \"oops\n";
  expect_error "attr outside schema" "attr 1 \"x\" 0 1\n";
  expect_error "set outside impl" "set 1 2\n";
  expect_error "want outside request" "want 1 2 3.0\n";
  expect_error "impl outside type" "impl 1 fpga\n";
  expect_error "duplicate casebase" "casebase \"a\"\ncasebase \"b\"\n";
  expect_error "bad integer" "request nope\n";
  expect_error "bad weight" "request 1\n  want 1 2 heavy\n";
  expect_error "bad target" "casebase \"a\"\ntype 1 \"t\"\n  impl 1 tpu\n";
  expect_error "schema without casebase" "schema\n  attr 1 \"x\" 0 1\n";
  expect_error "duplicate impl ids"
    "casebase \"a\"\ntype 1 \"t\"\n  impl 1 fpga\n  impl 1 dsp\n";
  expect_error "duplicate attr in impl"
    "casebase \"a\"\nschema\n  attr 1 \"x\" 0 30\ntype 1 \"t\"\n  impl 1 fpga\n    set 1 2\n    set 1 3\n";
  expect_error "impl value out of schema bounds"
    "casebase \"a\"\nschema\n  attr 1 \"x\" 0 4\ntype 1 \"t\"\n  impl 1 fpga\n    set 1 9\n"

let test_error_line_numbers () =
  let e = get_perr "line" (Textfmt.parse_document "request 1\nbogus\n") in
  check_int "line number" 2 e.Textfmt.line;
  (* A block the core constructors refuse is reported at its header,
     not at the line that closes it. *)
  let overflow =
    In_channel.with_open_text "fixtures/weight_overflow.req"
      In_channel.input_all
  in
  List.iter
    (fun (label, text, line) ->
      check_int label line
        (get_perr label (Textfmt.parse_document text)).Textfmt.line)
    [
      ("refused request", "request 1\n  want 1 16 -1\n", 1);
      ("weights summing to inf", overflow, 1);
      ( "impl repeating an attribute",
        "casebase \"x\"\nschema\ntype 1 \"t\"\n  impl 1 gpp\n    set 1 2\n\
        \    set 1 3\n",
        4 );
      ( "duplicate impl id",
        "casebase \"x\"\nschema\ntype 1 \"t\"\n  impl 1 gpp\n    set 1 2\n\
        \  impl 1 fpga\n    set 1 3\n",
        3 );
      ( "refused impl followed by a type",
        "casebase \"x\"\nschema\ntype 1 \"t\"\n  impl 1 gpp\n    set 1 2\n\
        \    set 1 3\ntype 2 \"u\"\n",
        4 );
      (* Refusals only the whole document can show: at the casebase
         header, the schema line, or the first line needing a header. *)
      ( "impl attribute missing from the schema",
        "casebase \"x\"\nschema\n  attr 1 \"a\" 0 10\ntype 1 \"t\"\n\
        \  impl 1 gpp\n    set 9 2\n",
        1 );
      ( "schema repeating an attribute",
        "casebase \"x\"\nschema\n  attr 1 \"a\" 0 10\n  attr 1 \"b\" 0 10\n",
        2 );
      ( "type without a casebase header",
        "# no header\ntype 1 \"t\"\n  impl 1 gpp\n",
        2 );
    ]

let test_parse_casebase_requires_one () =
  ignore (get_perr "no casebase" (Textfmt.parse_casebase "request 1\n"));
  ignore (get_perr "no request" (Textfmt.parse_request "casebase \"a\"\n"));
  ignore
    (get_perr "two requests" (Textfmt.parse_request "request 1\nrequest 2\n"))

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_checked_in_data_files () =
  (* The sample files shipped in examples/data must stay parseable and
     equal to the built-in paper example. *)
  let root = "../examples/data/" in
  let cb = get (Textfmt.parse_casebase (read_file (root ^ "audio.cb"))) in
  check_bool "audio.cb equals the built-in case base" true
    (Casebase.equal cb Scenario_audio.casebase);
  let req = get (Textfmt.parse_request (read_file (root ^ "paper.req"))) in
  check_bool "paper.req equals the built-in request" true
    (Request.equal req Scenario_audio.request)

(* --- Properties ---------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "print/parse round-trips generated case bases"
      (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let rng = Workload.Prng.create ~seed in
        let schema =
          Workload.Generator.schema rng
            { Workload.Generator.attr_count = 5; max_bound = 300 }
        in
        let cb =
          Workload.Generator.casebase rng ~schema
            {
              Workload.Generator.type_count = 3;
              impls_per_type = (1, 4);
              attrs_per_impl = (0, 5);
            }
        in
        match Textfmt.parse_casebase (Textfmt.print_casebase cb) with
        | Ok reparsed -> Casebase.equal cb reparsed
        | Error _ -> false);
    prop "print/parse round-trips generated requests"
      (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let rng = Workload.Prng.create ~seed in
        let schema =
          Workload.Generator.schema rng
            { Workload.Generator.attr_count = 6; max_bound = 100 }
        in
        let req =
          Workload.Generator.request rng ~schema ~type_id:3
            {
              Workload.Generator.constraints = (1, 6);
              weight_profile = `Random;
              value_slack = 0.3;
            }
        in
        match Textfmt.parse_request (Textfmt.print_request req) with
        | Ok reparsed -> Request.equal req reparsed
        | Error _ -> false);
  ]

let fuzz_props =
  [
    prop "parser is total on arbitrary printable junk"
      QCheck2.Gen.(string_size ~gen:(char_range ' ' '~') (int_range 0 400))
      (fun junk ->
        match Textfmt.parse_document junk with
        | Ok _ | Error _ -> true);
    prop "parser is total on arbitrary bytes"
      QCheck2.Gen.(string_size (int_range 0 400))
      (fun junk ->
        match Textfmt.parse_document junk with
        | Ok _ | Error _ -> true);
    prop "keyword-shaped fuzz never parses into an inconsistent casebase"
      QCheck2.Gen.(
        list_size (int_range 0 30)
          (oneofl
             [
               "casebase \"x\""; "schema"; "attr 1 \"a\" 0 9"; "type 1 \"t\"";
               "impl 1 fpga"; "set 1 3"; "request 1"; "want 1 2 1.0"; "#";
               "attr 2 \"b\" 0 5"; "impl 2 dsp"; "type 2 \"u\"";
             ]))
      (fun lines ->
        match Textfmt.parse_document (String.concat "\n" lines) with
        | Error _ -> true
        | Ok doc -> (
            (* Whatever parses must re-print and re-parse to the same
               document. *)
            match
              Textfmt.parse_document (Textfmt.print_document doc)
            with
            | Error _ -> false
            | Ok again -> (
                List.length doc.Textfmt.requests
                = List.length again.Textfmt.requests
                &&
                match (doc.Textfmt.casebase, again.Textfmt.casebase) with
                | None, None -> true
                | Some a, Some b -> Qos_core.Casebase.equal a b
                | _ -> false)));
  ]

let () =
  Alcotest.run "textfmt"
    [
      ( "parse",
        [
          Alcotest.test_case "sample document" `Quick test_parse_sample;
          Alcotest.test_case "comments and blanks" `Quick
            test_comments_and_blanks;
          Alcotest.test_case "quoted names" `Quick test_quoted_names_with_spaces;
        ] );
      ( "roundtrip",
        [
          Alcotest.test_case "paper casebase" `Quick
            test_roundtrip_paper_casebase;
          Alcotest.test_case "request" `Quick test_roundtrip_request;
          Alcotest.test_case "document" `Quick test_roundtrip_document;
        ] );
      ( "errors",
        [
          Alcotest.test_case "malformed inputs" `Quick test_errors;
          Alcotest.test_case "line numbers" `Quick test_error_line_numbers;
          Alcotest.test_case "cardinality" `Quick
            test_parse_casebase_requires_one;
          Alcotest.test_case "checked-in data files" `Quick
            test_checked_in_data_files;
        ] );
      ("properties", props @ fuzz_props);
    ]
