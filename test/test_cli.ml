(* Integration tests driving the real qosalloc binary: every subcommand
   is exercised end to end, including the export -> verify golden flow
   and the engine differential test. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let binary = "../bin/qosalloc.exe"

let tmp_dir = Filename.concat (Filename.get_temp_dir_name ()) "qosalloc-cli-test"

let run_cli args =
  (* Capture combined output; return (exit code, output). *)
  let out_file = Filename.temp_file "qosalloc" ".out" in
  let command =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote binary) args
      (Filename.quote out_file)
  in
  let code = Sys.command command in
  let output = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  (code, output)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec at i = i + m <= n && (String.sub haystack i m = needle || at (i + 1)) in
  at 0

let fixture name = Filename.concat "../examples/data" name

let test_retrieve () =
  let code, out = run_cli "retrieve -n 3" in
  check_int "exit code" 0 code;
  check_bool "dsp first" true (contains out "impl 2 on dsp: S = 0.9640");
  check_bool "three rows" true (contains out "3. impl 3 on gpp");
  let code, out = run_cli "retrieve -e rtl" in
  check_int "rtl exit code" 0 code;
  check_bool "rtl cycle stats" true (contains out "cycles=")

let test_retrieve_all_engines_agree () =
  List.iter
    (fun engine ->
      let code, out = run_cli ("retrieve -e " ^ engine) in
      check_int (engine ^ " exit") 0 code;
      (* float/fixed/rtl print "impl 2 ...", the soft core "impl=2". *)
      check_bool
        (engine ^ " picks impl 2")
        true
        (contains out "impl 2" || contains out "impl=2"))
    [ "float"; "fixed"; "rtl"; "sw" ]

(* Every engine answers a request for a type the case base lacks with
   the one message of [Retrieval.error_to_string], and so does the
   cycle trace. *)
let test_absent_type_one_message () =
  let req = Filename.concat tmp_dir "absent_type.req" in
  Out_channel.with_open_text req (fun oc ->
      Out_channel.output_string oc "request 9\n  want 1 16 1\n");
  List.iter
    (fun cmd ->
      let code, out = run_cli (Printf.sprintf "%s -r %s" cmd req) in
      check_int (cmd ^ " exit") 1 code;
      Alcotest.(check string)
        (cmd ^ " message") "qosalloc: function type 9 not found in case base\n"
        out)
    ("trace" :: List.map (fun name -> "retrieve -e " ^ name) Engines.names)

(* IDs and values run to 0xFFFE in the core as in the image, so a
   request carrying 0xFFFF, the image's end marker, as an attribute ID
   or as a value is one parse error under every engine and under the
   cycle trace; no engine answers it. *)
let test_end_marker_word_one_message () =
  List.iter
    (fun (name, want, constr) ->
      let req = Filename.concat tmp_dir (name ^ ".req") in
      Out_channel.with_open_text req (fun oc ->
          Out_channel.output_string oc ("request 1\n  want " ^ want ^ "\n"));
      List.iter
        (fun cmd ->
          let code, out =
            run_cli
              (Printf.sprintf "%s -c %s -r %s" cmd (fixture "audio.cb") req)
          in
          check_int (cmd ^ " exit") 1 code;
          Alcotest.(check string)
            (cmd ^ " message")
            (Printf.sprintf "qosalloc: %s: line 1: constraint (%s) invalid\n"
               req constr)
            out)
        ("trace" :: "retrieve -e sw"
        :: List.map (fun name -> "retrieve -e " ^ name) Engines.names))
    [
      ("end_marker_id", "65535 16 1", "attr 65535, value 16, weight 1");
      ("end_marker_value", "1 65535 1", "attr 1, value 65535, weight 1");
    ]

let test_layout_and_resources () =
  let code, out = run_cli "layout" in
  check_int "layout exit" 0 code;
  check_bool "accounting printed" true (contains out "request=11w");
  let code, out = run_cli "resources" in
  check_int "resources exit" 0 code;
  check_bool "table 2 numbers" true (contains out "slices=441")

let test_trace () =
  let code, out = run_cli "trace" in
  check_int "trace exit" 0 code;
  check_bool "winner traced" true (contains out "new best: impl 2")

let test_export_verify_roundtrip () =
  let dir = Filename.concat tmp_dir "export" in
  let code, _ = run_cli (Printf.sprintf "export -o %s -f hex -f coe" dir) in
  check_int "export exit" 0 code;
  check_bool "vhdl written" true
    (Sys.file_exists (Filename.concat dir "qos_retrieval_unit.vhd"));
  check_bool "manifest written" true
    (Sys.file_exists (Filename.concat dir "qos_manifest.txt"));
  let code, out = run_cli (Printf.sprintf "verify -i %s" dir) in
  check_int "verify exit" 0 code;
  check_bool "verify passes" true (contains out "VERIFY: PASS")

let test_verify_detects_corruption () =
  let dir = Filename.concat tmp_dir "corrupt" in
  let code, _ = run_cli (Printf.sprintf "export -o %s" dir) in
  check_int "export exit" 0 code;
  (* Flip one data word in the request image (the bitwidth value). *)
  let path = Filename.concat dir "qos_req_mem.hex" in
  let text = In_channel.with_open_text path In_channel.input_all in
  let corrupted =
    match String.split_on_char '\n' text with
    | type_word :: aid :: _value :: rest ->
        String.concat "\n" (type_word :: aid :: "0008" :: rest)
    | _ -> Alcotest.fail "unexpected hex layout"
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc corrupted);
  let code, out = run_cli (Printf.sprintf "verify -i %s" dir) in
  check_bool "verify fails on corruption" true
    (code <> 0 && contains out "VERIFY: FAIL")

let test_lint_clean_exit0 () =
  let code, out =
    run_cli
      (Printf.sprintf "lint -c %s -r %s" (fixture "audio.cb")
         (fixture "paper.req"))
  in
  check_int "clean fixtures exit 0" 0 code;
  check_bool "totals line" true (contains out "lint: 0 error(s), 0 warning(s)");
  (* The elaborated netlist IR rides along: the six structural passes
     report their coverage as an info diagnostic and stay clean. *)
  check_bool "netlist passes ran" true (contains out "info[netlist]");
  check_bool "all six IR passes" true (contains out "6 IR passes");
  (* The built-in scenario is the same data and is equally clean. *)
  let code, out = run_cli "lint" in
  check_int "built-in scenario exit 0" 0 code;
  check_bool "built-in scenario covers the netlist" true
    (contains out "info[netlist]")

let test_lint_warning_exit1 () =
  (* Constrain an attribute the schema does not describe: a
     cross-structure warning, not an error. *)
  let req = Filename.concat tmp_dir "unknown_attr.req" in
  Out_channel.with_open_text req (fun oc ->
      Out_channel.output_string oc "request 1\n  want 1 16 1\n  want 9 5 1\n");
  let code, out = run_cli (Printf.sprintf "lint -r %s" req) in
  check_int "warning exit 1" 1 code;
  check_bool "warning printed" true (contains out "warning[");
  check_bool "no errors" true (contains out "0 error(s)")

let test_lint_error_exit2 () =
  let dir = Filename.concat tmp_dir "lint-raw" in
  let code, _ = run_cli (Printf.sprintf "export -o %s -f hex" dir) in
  check_int "export exit" 0 code;
  let cb_hex = Filename.concat dir "qos_cb_mem.hex" in
  let req_hex = Filename.concat dir "qos_req_mem.hex" in
  (* Pristine raw images lint clean... *)
  let code, _ =
    run_cli
      (Printf.sprintf "lint --cb-hex %s --req-hex %s --supp-base 58" cb_hex
         req_hex)
  in
  check_int "raw clean exit 0" 0 code;
  (* ...then corrupt the first tree pointer (word 1). *)
  let text = In_channel.with_open_text cb_hex In_channel.input_all in
  let corrupted =
    match String.split_on_char '\n' text with
    | w0 :: _w1 :: rest -> String.concat "\n" (w0 :: "ffff" :: rest)
    | _ -> Alcotest.fail "unexpected hex layout"
  in
  Out_channel.with_open_text cb_hex (fun oc ->
      Out_channel.output_string oc corrupted);
  let code, out =
    run_cli
      (Printf.sprintf "lint --cb-hex %s --req-hex %s --supp-base 58" cb_hex
         req_hex)
  in
  check_int "corrupted raw exit 2" 2 code;
  check_bool "error names the word" true (contains out "cb_mem[0x0001]")

let test_lint_unencodable_exit2 () =
  (* One type of 2,800 twelve-attribute variants parses, but its tree
     needs 75,604 words, more than the 16-bit address space holds, so
     the scenario cannot be encoded.  That used to abort the CLI before
     any diagnostic was printed; it must now surface as an ordinary
     lint error with exit code 2. *)
  let cb = Filename.concat tmp_dir "unencodable.cb" in
  Out_channel.with_open_text cb (fun oc ->
      Out_channel.output_string oc "casebase \"big\"\nschema\n";
      for a = 1 to 12 do
        Printf.fprintf oc "  attr %d \"a%d\" 0 100\n" a a
      done;
      Out_channel.output_string oc "type 1 \"f\"\n";
      for i = 1 to 2800 do
        Printf.fprintf oc "  impl %d fpga\n" i;
        for a = 1 to 12 do
          Printf.fprintf oc "    set %d %d\n" a (i mod 100)
        done
      done);
  let args = Printf.sprintf "-c %s -r %s" cb (fixture "paper.req") in
  let code, out = run_cli ("lint " ^ args) in
  check_int "unencodable scenario exit 2" 2 code;
  check_bool "encode failure reported as diagnostic" true
    (contains out "error[image]");
  let code, out = run_cli ("lint --format=json " ^ args) in
  check_int "json mode same exit code" 2 code;
  check_bool "json carries the error" true
    (contains out "\"severity\":\"error\"");
  (* Attribute ID 0xFFFF, the image's end marker, is refused by the
     parser: unreadable input, not an unencodable image. *)
  let req = Filename.concat tmp_dir "end_marker_id.req" in
  Out_channel.with_open_text req (fun oc ->
      Out_channel.output_string oc "request 1\n  want 65535 16 1\n");
  let code, out = run_cli (Printf.sprintf "lint -r %s" req) in
  check_int "end-marker ID exit 2" 2 code;
  check_bool "refused as unreadable input" true
    (contains out "error[input] request: ")

(* An input lint cannot read or parse is one error diagnostic in the
   ordinary stream (exit 2, never the warnings-only 1); a flag
   combination it cannot run is a command-line error (exit 124). *)
let lint_row_cases =
  let negative_weight () =
    let req = Filename.concat tmp_dir "negative_weight.req" in
    Out_channel.with_open_text req (fun oc ->
        Out_channel.output_string oc "request 1\n  want 1 16 -1\n");
    req
  in
  let cb = fixture "audio.cb" and req = fixture "paper.req" in
  List.map
    (fun (name, args, code, expect) ->
      Alcotest.test_case name `Quick (fun () ->
          let got, out = run_cli ("lint " ^ args ()) in
          check_int "exit code" code got;
          check_bool "names the cause" true (contains out expect)))
    [
      ( "unparsable -r exit 2",
        (fun () -> "-r " ^ negative_weight ()),
        2,
        "error[input] request: " );
      ( "unparsable -r json exit 2",
        (fun () -> "--format=json -r " ^ negative_weight ()),
        2,
        "\"pass\":\"input\",\"severity\":\"error\"" );
      ( "--cb-hex alone exit 124",
        (fun () -> "--cb-hex " ^ cb),
        124,
        "--cb-hex and --req-hex must be given together" );
      ( "no --supp-base exit 124",
        (fun () -> Printf.sprintf "--cb-hex %s --req-hex %s" cb req),
        124,
        "--supp-base is required" );
    ]

let test_lint_json_stable () =
  let args =
    Printf.sprintf "lint --format=json -c %s -r %s" (fixture "audio.cb")
      (fixture "paper.req")
  in
  let code1, out1 = run_cli args in
  let code2, out2 = run_cli args in
  check_int "json exit" 0 code1;
  check_int "json exit again" 0 code2;
  check_bool "deterministic output" true (out1 = out2);
  check_bool "diagnostics array" true (contains out1 "\"diagnostics\"");
  check_bool "totals" true
    (contains out1 "\"errors\":0" && contains out1 "\"warnings\":0");
  check_bool "one trailing newline" true
    (String.length out1 > 1
    && out1.[String.length out1 - 1] = '\n'
    && out1.[String.length out1 - 2] <> '\n')

let test_difftest () =
  let code, out = run_cli "difftest -n 50 --seed 7" in
  check_int "difftest exit" 0 code;
  check_bool "all agree" true (contains out "50/50 scenarios agree")

let test_simulate_and_analyze () =
  let csv = Filename.concat tmp_dir "trace.csv" in
  let code, out =
    run_cli (Printf.sprintf "simulate --duration-us 50000 --trace-csv %s" csv)
  in
  check_int "simulate exit" 0 code;
  check_bool "report printed" true (contains out "TOTAL");
  check_bool "utilization printed" true (contains out "utilization:");
  let code, out = run_cli (Printf.sprintf "analyze -i %s" csv) in
  check_int "analyze exit" 0 code;
  check_bool "per-app breakdown" true (contains out "ecu")

let test_faults_clean_exit0 () =
  let code, out = run_cli "faults --duration-us 30000" in
  check_int "clean campaign exit 0" 0 code;
  check_bool "verdict printed" true (contains out "verdict=clean");
  check_bool "no fault activity" true (contains out "relocations=0")

let test_faults_degraded_exit1 () =
  (* A permanent dsp0 failure: tasks are relocated to the next-best
     variant, QoS degrades, nothing is lost. *)
  let code, out = run_cli "faults --duration-us 60000 --fail dsp0@20000" in
  check_int "degraded campaign exit 1" 1 code;
  check_bool "verdict" true (contains out "verdict=degraded-recovered");
  check_bool "relocations with similarity deltas" true
    (contains out "relocations=2" && contains out "delta mean=");
  check_bool "availability reported" true
    (contains out "availability: dsp0 failures=1")

let test_faults_unrecovered_exit2 () =
  (* SEUs without scrubbing: retrievals silently consume corruption. *)
  let code, out = run_cli "faults --duration-us 60000 --seu-mean-us 2000" in
  check_int "unrecovered campaign exit 2" 2 code;
  check_bool "verdict" true (contains out "verdict=unrecovered-loss");
  check_bool "silent corruption counted" true (contains out "undetected=29");
  (* The same upsets with scrubbing on are all caught. *)
  let code, out =
    run_cli
      "faults --duration-us 60000 --seu-mean-us 2000 --scrub-period-us 5000"
  in
  check_int "scrubbed campaign exit 1" 1 code;
  check_bool "nothing undetected" true (contains out "undetected=0")

let test_faults_json_deterministic () =
  let args =
    "faults --duration-us 60000 --seed 7 --seu-mean-us 2000 \
     --scrub-period-us 5000 --reconfig-fail-prob 0.1 --fail dsp0@20000+15000 \
     --format=json"
  in
  let code1, out1 = run_cli args in
  let code2, out2 = run_cli args in
  check_int "exit stable" code1 code2;
  check_int "degraded-recovered" 1 code1;
  check_bool "byte-identical json" true (String.equal out1 out2);
  check_bool "report sections present" true
    (contains out1 "\"corruption\""
    && contains out1 "\"recovery\""
    && contains out1 "\"degradation\""
    && contains out1 "\"availability\"");
  check_bool "one trailing newline" true
    (String.length out1 > 1
    && out1.[String.length out1 - 1] = '\n'
    && out1.[String.length out1 - 2] <> '\n')

let test_faults_rejects_unknown_device () =
  let code, out = run_cli "faults --fail nope@1000" in
  check_bool "nonzero exit" true (code <> 0);
  check_bool "names the device" true (contains out "nope")

let test_demo_feeds_retrieve () =
  let cb = Filename.concat tmp_dir "demo.cb" in
  let code, out = run_cli "demo" in
  check_int "demo exit" 0 code;
  (* Split the demo output into case base and request files. *)
  let idx =
    let rec find i =
      if i + 8 > String.length out then Alcotest.fail "no request in demo"
      else if String.sub out i 8 = "request " then i
      else find (i + 1)
    in
    find 0
  in
  Out_channel.with_open_text cb (fun oc ->
      Out_channel.output_string oc (String.sub out 0 idx));
  let req = Filename.concat tmp_dir "demo.req" in
  Out_channel.with_open_text req (fun oc ->
      Out_channel.output_string oc
        (String.sub out idx (String.length out - idx)));
  let code, out = run_cli (Printf.sprintf "retrieve -c %s -r %s" cb req) in
  check_int "retrieve on demo files" 0 code;
  check_bool "same winner" true (contains out "impl 2 on dsp")

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_profile_exit_codes () =
  let code, out = run_cli "profile" in
  check_int "profile exit 0" 0 code;
  check_bool "breakdown printed" true (contains out "total-cycles=131");
  check_bool "phase sum checked" true (contains out "consistent=true");
  check_bool "linearity verdict" true (contains out "linear=true");
  let code, out = run_cli "profile --max-cycles 10" in
  check_int "budget violation exit 1" 1 code;
  check_bool "violation named" true (contains out "cycle budget exceeded");
  let code, _ = run_cli "profile --max-cycles 131" in
  check_int "budget met exit 0" 0 code;
  let code, out = run_cli "profile --format=json" in
  check_int "json exit 0" 0 code;
  check_bool "json envelope" true
    (contains out "\"total_cycles\":131" && contains out "\"linearity\"");
  (* Config toggles reach the machine: restart scanning costs cycles. *)
  let code, out = run_cli "profile --restart-scan" in
  check_int "restart-scan exit 0" 0 code;
  check_bool "restart scan is slower" true (contains out "total-cycles=143")

let test_observability_flags () =
  let prom = Filename.concat tmp_dir "sim.prom" in
  let trace = Filename.concat tmp_dir "sim_trace.json" in
  let args =
    Printf.sprintf
      "simulate --duration-us 20000 --seed 11 --metrics %s --trace-out %s" prom
      trace
  in
  let code, out = run_cli args in
  check_int "instrumented simulate exit 0" 0 code;
  check_bool "report still printed" true (contains out "TOTAL");
  let prom1 = read_file prom and trace1 = read_file trace in
  check_bool "prometheus families present" true
    (contains prom1 "# TYPE qosalloc_alloc_events_total counter"
    && contains prom1 "qosalloc_sim_queue_depth"
    && contains prom1 "qosalloc_setup_time_us_bucket");
  check_bool "chrome trace envelope" true
    (contains trace1 "{\"traceEvents\":["
    && contains trace1 "\"ph\":\"B\""
    && contains trace1 "\"cat\":\"qosalloc\"");
  (* Same seed and flags: byte-identical exports. *)
  let code, _ = run_cli args in
  check_int "second run exit 0" 0 code;
  check_bool "metrics byte-identical" true (String.equal prom1 (read_file prom));
  check_bool "trace byte-identical" true (String.equal trace1 (read_file trace));
  (* The .json metrics flavour switches the export format. *)
  let mjson = Filename.concat tmp_dir "sim_metrics.json" in
  let code, _ =
    run_cli
      (Printf.sprintf "simulate --duration-us 20000 --seed 11 --metrics %s"
         mjson)
  in
  check_int "json metrics exit 0" 0 code;
  check_bool "json metrics envelope" true
    (contains (read_file mjson) "{\"metrics\":[");
  (* Instrumentation must not perturb the simulation itself. *)
  let plain_args = "simulate --duration-us 20000 --seed 11" in
  let _, plain_out = run_cli plain_args in
  check_bool "same report with and without instrumentation" true
    (String.equal out plain_out)

let test_jobs_determinism () =
  (* serve fans the decision phase out over --jobs domains; the
     per-request results report of a chaos run is byte-identical at any
     value. *)
  let out_for jobs =
    let path = Filename.concat tmp_dir (Printf.sprintf "serve_j%d.txt" jobs) in
    let code, _ =
      run_cli
        (Printf.sprintf
           "serve --duration-us 20000 --seed 11 --load-scale 100 --kill-frac \
            0.34 --bounce-mean-us 5000 --jobs %d --out %s"
           jobs path)
    in
    check_int "serve --jobs degraded-recovered" 1 code;
    read_file path
  in
  let r1 = out_for 1 in
  check_bool "results byte-identical 1=2" true (String.equal r1 (out_for 2));
  check_bool "results byte-identical 1=4" true (String.equal r1 (out_for 4));
  check_bool "result lines carry outcomes" true
    (contains r1 "app=ecu" && contains r1 " full node="
    && contains r1 " degraded")

(* Out-of-range flag values are command-line errors: cmdliner's exit
   124, never an uncaught exception (125) or a run-time failure (1).
   The backoff values only raised at the first retry, so those runs
   carry enough chaos to retry. *)
let bad_flags =
  let serve = "serve --duration-us 20000 --kill-frac 0.34 --bounce-mean-us 2000"
  and faults = "faults --duration-us 20000 --reconfig-fail-prob 0.5"
  and plain_faults = "faults --duration-us 20000" in
  [
    ("serve", "--jobs 0");
    ("serve", "--jobs=-1");
    ("serve", "--jobs 128");
    ("serve", "--load-scale 0");
    ("serve", "--load-scale=-1");
    ("serve", "--load-scale inf");
    ("serve", "--bounce-mean-us 0");
    ("serve", "--slo 2:5");
    ("serve", "--nodes 0");
    ("serve", "--replication 0");
    ("serve", "--fault-domains 0");
    ("serve", "--bounce-down-us nan,nan");
    ("serve", "--bounce-down-us 5000,1000");
    ("serve", "--kill-frac 2");
    ("serve", "--kill-frac nan");
    (serve, "--steal-threshold 0");
    (serve, "--steal-threshold=-1");
    (serve, "--steal-threshold nan");
    (serve, "--min-availability 2");
    (serve, "--min-availability nan");
    (serve, "--retries=-1");
    (serve, "--requests=-5");
    (faults, "--retries=-1");
    (serve, "--backoff-jitter 1.5");
    (serve, "--backoff-factor 0.5");
    (serve, "--backoff-us 0");
    (serve, "--backoff-cap-us=-5");
    (faults, "--backoff-jitter 1.5");
    (faults, "--backoff-factor 0.5");
    (faults, "--backoff-us 0");
    ("simulate", "--duration-us nan");
    (* A zero scrub period used to reschedule its tick at +0 forever. *)
    (plain_faults, "--scrub-period-us 0");
    (plain_faults, "--scrub-period-us=-1");
    (plain_faults, "--scrub-period-us nan");
    (plain_faults, "--seu-mean-us 0");
    (plain_faults, "--seu-mean-us=-5");
    (plain_faults, "--seu-mean-us nan");
    (plain_faults, "--load-deadline-us nan");
    (plain_faults, "--load-deadline-us=-5");
    (plain_faults, "--reconfig-fail-prob 2");
    (plain_faults, "--reconfig-fail-prob nan");
    (plain_faults, "--reconfig-fail-prob=-0.5");
    (plain_faults, "--flash-error-prob=-1");
    (plain_faults, "--fail dsp0@-100");
    (plain_faults, "--fail dsp0@nan");
    (plain_faults, "--fail dsp0@10000+nan");
    (plain_faults, "--fail dsp0@10000+-50");
    (plain_faults, "--fail dsp0@10000+inf");
    (* A non-positive trial count used to pass vacuously. *)
    ("difftest", "--trials=-3");
    ("difftest", "--trials 0");
    ("profile", "--max-cycles=-1");
    ("retrieve", "-t nan");
    ("retrieve", "-t 2");
    ("retrieve", "-n 0");
  ]

let bad_flag_cases =
  List.map
    (fun (base, flag) ->
      let cmd = List.hd (String.split_on_char ' ' base) in
      Alcotest.test_case (cmd ^ " " ^ flag) `Quick (fun () ->
          let code, out = run_cli (base ^ " " ^ flag) in
          check_int "command-line error" 124 code;
          check_bool "no internal error" false (contains out "internal error")))
    bad_flags

(* -t applies on every engine, and an engine that reports only its
   best variant refuses -n above 1 with a command-line error naming
   it.  An exit-0 row gives the whole output, a failing row what the
   message must name: the engine, or why the request file is
   refused. *)
let retrieve_rows =
  let none = "no variant passes the threshold\n" in
  [
    ("-e float -t 0.99", 0, none);
    ("-e fixed -t 0.99", 0, none);
    ("-e rtlsim -t 0.99", 0, none);
    ("-e netlist -t 0.99", 0, none);
    ("-e native -t 0.99", 0, none);
    ("-e sw -t 0.99", 0, none);
    ("-e fixed -n 3 -t 0.9", 0, "1. impl 2 on dsp: S = 0.9640 (raw 31588)\n");
    ("-e native -t 0.9", 0, "best: impl 2, S = 0.9640 (raw 31588)\n");
    ( "-e sw -t 0.9",
      0,
      "found impl=2 score=0.9640 (31588) code=344B [cycles=674 insns=396 \
       loads=82 stores=3 mults=18 branches=134 taken=65]\n" );
    ("-e native -n 3", 124, "engine native");
    ("-e rtlsim -n 3", 124, "engine rtlsim");
    ("-e netlist -n 3", 124, "engine netlist");
    ("-e sw -n 3 -t 0.99", 124, "engine sw");
    (* Finite weights whose sum overflows would normalise to 0. *)
    ("-r fixtures/weight_overflow.req", 1, "non-finite total");
  ]

let retrieve_row_cases =
  List.map
    (fun (args, code, expect) ->
      Alcotest.test_case args `Quick (fun () ->
          let got, out = run_cli ("retrieve " ^ args) in
          check_int "exit code" code got;
          if code = 0 then Alcotest.(check string) "output" expect out
          else check_bool "names the cause" true (contains out expect)))
    retrieve_rows

let test_faults_observability () =
  let prom = Filename.concat tmp_dir "faults.prom" in
  let code, _ =
    run_cli
      (Printf.sprintf
         "faults --duration-us 60000 --fail dsp0@20000+15000 --metrics %s" prom)
  in
  check_int "degraded campaign exit preserved" 1 code;
  let text = read_file prom in
  check_bool "MTTR histogram exported" true
    (contains text "# TYPE qosalloc_device_mttr_us histogram");
  check_bool "relocation counter exported" true
    (contains text "qosalloc_alloc_events_total{event=\"relocated\"}");
  (* The campaign runs on the simulate loop, so its exports carry the
     simulation's queue-depth gauge too. *)
  check_bool "queue-depth gauge exported" true
    (contains text "# TYPE qosalloc_sim_queue_depth gauge")

(* A file a flag names that cannot be written is an IO failure: exit 1
   naming the path, never an uncaught exception (125).  Most paths sit
   under a missing directory; one is named by two flags, and export's
   -o names a regular file.  The run checks its output paths before it
   starts, so a valid path named beside a bad one is not written
   either. *)
let write_error_cases =
  let missing name = Filename.concat (Filename.concat tmp_dir "missing") name
  and plain () =
    let path = Filename.concat tmp_dir "plain-file" in
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc "");
    path
  and ok = Filename.concat tmp_dir "ok.ndjson" in
  List.map
    (fun (name, args, path) ->
      Alcotest.test_case name `Quick (fun () ->
          let path = path () in
          if Sys.file_exists ok then Sys.remove ok;
          let code, out = run_cli (args ^ " " ^ path) in
          check_int "IO failure" 1 code;
          check_bool "names the path" true (contains out ("qosalloc: " ^ path));
          check_bool "writes nothing" false (Sys.file_exists ok)))
    [
      ("serve --out", "serve --duration-us 1000 --out", fun () -> missing "r.txt");
      ( "serve --events-out beside --out",
        "serve --duration-us 1000 --events-out " ^ ok ^ " --out",
        fun () -> missing "r.txt" );
      ( "serve --slo-out",
        "serve --duration-us 1000 --slo-out",
        fun () -> missing "slo.json" );
      ( "simulate --metrics",
        "simulate --duration-us 1000 --metrics",
        fun () -> missing "m.prom" );
      ( "simulate --trace-csv",
        "simulate --duration-us 1000 --trace-csv",
        fun () -> missing "t.csv" );
      ( "faults --metrics",
        "faults --duration-us 1000 --metrics",
        fun () -> missing "f.prom" );
      ("trace --vcd", "trace --vcd", fun () -> missing "w.vcd");
      ( "serve one path twice",
        "serve --duration-us 1000 --events-out " ^ ok ^ " --out",
        fun () -> ok );
      ("export -o", "export -o", plain);
    ]

let test_bad_input_fails_cleanly () =
  let bad = Filename.concat tmp_dir "bad.cb" in
  Out_channel.with_open_text bad (fun oc ->
      Out_channel.output_string oc "bogus nonsense\n");
  let code, out = run_cli (Printf.sprintf "retrieve -c %s" bad) in
  check_bool "nonzero exit" true (code <> 0);
  check_bool "names the file and line" true (contains out "bad.cb")

let () =
  (try Sys.mkdir tmp_dir 0o755 with Sys_error _ -> ());
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "retrieve" `Quick test_retrieve;
          Alcotest.test_case "all engines agree" `Quick
            test_retrieve_all_engines_agree;
          Alcotest.test_case "absent type, one message" `Quick
            test_absent_type_one_message;
          Alcotest.test_case "end-marker word one message" `Quick
            test_end_marker_word_one_message;
          Alcotest.test_case "layout and resources" `Quick
            test_layout_and_resources;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "simulate and analyze" `Quick
            test_simulate_and_analyze;
          Alcotest.test_case "faults clean exit 0" `Quick
            test_faults_clean_exit0;
          Alcotest.test_case "faults degraded exit 1" `Quick
            test_faults_degraded_exit1;
          Alcotest.test_case "faults unrecovered exit 2" `Quick
            test_faults_unrecovered_exit2;
          Alcotest.test_case "faults stable json" `Quick
            test_faults_json_deterministic;
          Alcotest.test_case "faults unknown device" `Quick
            test_faults_rejects_unknown_device;
          Alcotest.test_case "demo feeds retrieve" `Quick
            test_demo_feeds_retrieve;
          Alcotest.test_case "bad input" `Quick test_bad_input_fails_cleanly;
        ] );
      ( "observability",
        [
          Alcotest.test_case "profile exit codes" `Quick
            test_profile_exit_codes;
          Alcotest.test_case "metrics and trace flags" `Quick
            test_observability_flags;
          Alcotest.test_case "faults metrics" `Quick test_faults_observability;
        ] );
      ( "parallel",
        [ Alcotest.test_case "jobs determinism" `Quick test_jobs_determinism ]
      );
      ("flag ranges", bad_flag_cases);
      ("write errors", write_error_cases);
      (* Alcotest pads suite names to the longest and cuts test names
         at 80 columns: a name longer than "observability" would cut
         the longest flag-range names. *)
      ("engine -n/-t", retrieve_row_cases);
      ( "lint",
        [
          Alcotest.test_case "clean fixtures exit 0" `Quick
            test_lint_clean_exit0;
          Alcotest.test_case "warning exit 1" `Quick test_lint_warning_exit1;
          Alcotest.test_case "error exit 2" `Quick test_lint_error_exit2;
          Alcotest.test_case "unencodable exit 2" `Quick
            test_lint_unencodable_exit2;
          Alcotest.test_case "stable json" `Quick test_lint_json_stable;
        ]
        @ lint_row_cases );
      ( "golden flow",
        [
          Alcotest.test_case "export/verify round-trip" `Quick
            test_export_verify_roundtrip;
          Alcotest.test_case "verify detects corruption" `Quick
            test_verify_detects_corruption;
          Alcotest.test_case "difftest" `Quick test_difftest;
        ] );
    ]
