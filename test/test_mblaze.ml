(* Tests for the soft-core ISA, assembler, interpreter and the
   retrieval routine (software baseline). *)

open Qos_core
module I = Mblaze.Isa
module A = Mblaze.Asm
module C = Mblaze.Cpu
module R = Mblaze.Retrieval_prog

let get = function Ok x -> x | Error e -> Alcotest.fail e
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- ISA ------------------------------------------------------------------ *)

let test_isa_validate () =
  check_bool "good" true (Result.is_ok (I.validate (I.Add (1, 2, 3))));
  check_bool "bad register" true (Result.is_error (I.validate (I.Add (16, 0, 0))));
  check_bool "bad shift" true (Result.is_error (I.validate (I.Sll (1, 1, 32))));
  check_bool "negative shift" true (Result.is_error (I.validate (I.Srl (1, 1, -1))))

let test_isa_costs () =
  let m = I.microblaze_costs in
  check_int "alu" 1 (I.cost m ~taken:false (I.Add (1, 2, 3)));
  check_int "mul" 3 (I.cost m ~taken:false (I.Mul (1, 2, 3)));
  check_int "load" 2 (I.cost m ~taken:false (I.Lw (1, 2, 0)));
  check_int "taken branch" 3 (I.cost m ~taken:true (I.Beq (1, 2, "x")));
  check_int "untaken branch" 1 (I.cost m ~taken:false (I.Beq (1, 2, "x")));
  check_int "encoded size" 4 (I.encoded_bytes I.Halt)

(* --- Assembler -------------------------------------------------------------- *)

let test_assembler () =
  let p =
    get
      (A.assemble
         [
           A.Label "start";
           A.Insn (I.Li (1, 5));
           A.Label "loop";
           A.Insn (I.Addi (1, 1, -1));
           A.Insn (I.Bne (1, 0, "loop"));
           A.Insn I.Halt;
         ])
  in
  check_int "four instructions" 4 (Array.length p.A.insns);
  check_int "code bytes" 16 (A.code_bytes p);
  (* "loop" resolves to instruction index 1. *)
  (match p.A.insns.(2) with
  | I.Bne (1, 0, 1) -> ()
  | _ -> Alcotest.fail "branch target not resolved");
  check_bool "duplicate label" true
    (Result.is_error (A.assemble [ A.Label "a"; A.Label "a"; A.Insn I.Halt ]));
  check_bool "unknown label" true
    (Result.is_error (A.assemble [ A.Insn (I.Jmp "nowhere") ]));
  check_bool "empty program" true (Result.is_error (A.assemble []));
  check_bool "invalid register caught" true
    (Result.is_error (A.assemble [ A.Insn (I.Add (99, 0, 0)) ]))

(* --- CPU --------------------------------------------------------------------- *)

let run_program items memory =
  match C.run (get (A.assemble items)) ~memory with
  | Ok state -> state
  | Error e -> Alcotest.fail (C.error_to_string e)

let test_cpu_arithmetic () =
  let state =
    run_program
      [
        A.Insn (I.Li (1, 6));
        A.Insn (I.Li (2, 7));
        A.Insn (I.Mul (3, 1, 2));
        A.Insn (I.Sub (4, 3, 1));
        A.Insn (I.Sll (5, 1, 2));
        A.Insn (I.Srl (6, 5, 1));
        A.Insn I.Halt;
      ]
      [||]
  in
  check_int "mul" 42 state.C.regs.(3);
  check_int "sub" 36 state.C.regs.(4);
  check_int "sll" 24 state.C.regs.(5);
  check_int "srl" 12 state.C.regs.(6)

let test_cpu_logical_ops () =
  let state =
    run_program
      [
        A.Insn (I.Li (1, 0b1100));
        A.Insn (I.Li (2, 0b1010));
        A.Insn (I.And (3, 1, 2));
        A.Insn (I.Or (4, 1, 2));
        A.Insn (I.Xor (5, 1, 2));
        A.Insn (I.Li (6, -8));
        A.Insn (I.Sra (7, 6, 2));
        A.Insn I.Halt;
      ]
      [||]
  in
  check_int "and" 0b1000 state.C.regs.(3);
  check_int "or" 0b1110 state.C.regs.(4);
  check_int "xor" 0b0110 state.C.regs.(5);
  check_int "sra keeps sign" (-2) state.C.regs.(7);
  check_bool "logical ops validate registers" true
    (Result.is_error (I.validate (I.And (16, 0, 0))))

let test_cpu_r0_is_zero () =
  let state =
    run_program [ A.Insn (I.Li (0, 99)); A.Insn (I.Add (1, 0, 0)); A.Insn I.Halt ] [||]
  in
  check_int "write to r0 discarded" 0 state.C.regs.(1)

let test_cpu_memory () =
  let state =
    run_program
      [
        A.Insn (I.Li (1, 2));
        A.Insn (I.Lw (2, 1, 0));
        A.Insn (I.Addi (2, 2, 1));
        A.Insn (I.Sw (2, 1, 1));
        A.Insn I.Halt;
      ]
      [| 10; 20; 30; 0 |]
  in
  check_int "load" 31 state.C.regs.(2);
  check_int "store" 31 state.C.memory.(3);
  check_int "loads counted" 1 state.C.stats.C.loads;
  check_int "stores counted" 1 state.C.stats.C.stores

let test_cpu_loop_and_cycles () =
  (* Sum 1..5 with a loop; verifies branch accounting. *)
  let state =
    run_program
      [
        A.Insn (I.Li (1, 5));
        A.Insn (I.Li (2, 0));
        A.Label "loop";
        A.Insn (I.Add (2, 2, 1));
        A.Insn (I.Addi (1, 1, -1));
        A.Insn (I.Bne (1, 0, "loop"));
        A.Insn I.Halt;
      ]
      [||]
  in
  check_int "sum" 15 state.C.regs.(2);
  check_int "branches" 5 state.C.stats.C.branches;
  check_int "taken" 4 state.C.stats.C.branches_taken;
  (* 2 li + 5*(add+addi) + 4 taken (3) + 1 untaken (1) + halt *)
  check_int "cycles" (2 + 10 + 12 + 1 + 1) state.C.stats.C.cycles

let test_cpu_faults () =
  (match
     C.run (get (A.assemble [ A.Insn (I.Lw (1, 0, 99)); A.Insn I.Halt ]))
       ~memory:[| 0 |]
   with
  | Error (C.Memory_fault { addr = 99; _ }) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected memory fault");
  (match
     C.run ~fuel:10
       (get (A.assemble [ A.Label "spin"; A.Insn (I.Jmp "spin") ]))
       ~memory:[||]
   with
  | Error (C.Out_of_fuel _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected out of fuel")

let test_cpu_fall_off_end () =
  match C.run (get (A.assemble [ A.Insn (I.Li (1, 1)) ])) ~memory:[||] with
  | Error (C.Pc_fault _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected pc fault (no halt)"

(* --- Retrieval routine --------------------------------------------------------- *)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

let test_retrieval_paper_example () =
  let r = get (R.run cb request) in
  check_bool "found" true (r.R.status = R.Found);
  check_int "impl" 2 r.R.best_impl_id;
  check_int "raw score" 31588 (Fxp.Q15.to_raw r.R.best_score);
  check_bool "code size reported" true (r.R.code_bytes > 0);
  check_bool "software is much slower than the hardware unit" true
    (r.R.stats.C.cycles > 400)

let test_retrieval_type_not_found () =
  let missing = get (Request.make ~type_id:42 [ (1, 16, 1.0) ]) in
  let r = get (R.run cb missing) in
  check_bool "status" true (r.R.status = R.Type_not_found);
  check_int "no impl" 0 r.R.best_impl_id

let test_retrieval_no_implementations () =
  let empty_ft = get (Ftype.make ~id:9 ~name:"none" []) in
  let cb2 =
    get (Casebase.make ~name:"cb2" ~schema:cb.Casebase.schema [ empty_ft ])
  in
  let req9 = get (Request.make ~type_id:9 []) in
  let r = get (R.run cb2 req9) in
  check_bool "status" true (r.R.status = R.No_implementations)

let test_compiled_c_style () =
  let hand = get (R.run cb request) in
  let compiled = get (R.run ~style:R.Compiled_c cb request) in
  check_int "same best" hand.R.best_impl_id compiled.R.best_impl_id;
  check_int "same raw score"
    (Fxp.Q15.to_raw hand.R.best_score)
    (Fxp.Q15.to_raw compiled.R.best_score);
  check_bool "compiled code is slower" true
    (compiled.R.stats.C.cycles > hand.R.stats.C.cycles);
  check_bool "compiled code is bigger" true
    (compiled.R.code_bytes > hand.R.code_bytes);
  check_bool "frame accounted in data words" true
    (compiled.R.data_words > 4)

let test_cost_model_sensitivity () =
  let fast =
    { I.microblaze_costs with I.load = 1; I.mul = 1; I.branch_taken = 1 }
  in
  let slow = get (R.run cb request) in
  let quick = get (R.run ~costs:fast cb request) in
  check_int "same answer" slow.R.best_impl_id quick.R.best_impl_id;
  check_bool "cheaper cost model means fewer cycles" true
    (quick.R.stats.C.cycles < slow.R.stats.C.cycles)

(* --- Equivalence property --------------------------------------------------------- *)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let scenario_of_seed seed =
  let rng = Workload.Prng.create ~seed in
  let schema =
    Workload.Generator.schema rng
      { Workload.Generator.attr_count = 5; max_bound = 300 }
  in
  let cb =
    Workload.Generator.casebase rng ~schema
      {
        Workload.Generator.type_count = 2;
        impls_per_type = (1, 5);
        attrs_per_impl = (1, 5);
      }
  in
  let req =
    Workload.Generator.request rng ~schema ~type_id:1
      {
        Workload.Generator.constraints = (1, 5);
        weight_profile = `Random;
        value_slack = 0.1;
      }
  in
  (cb, req)

let props =
  [
    prop "software routine bit-equals the fixed engine"
      (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match (R.run cb req, Engine_fixed.best cb req) with
        | Ok r, Ok fixed ->
            r.R.status = R.Found
            && r.R.best_impl_id = fixed.Retrieval.impl.Impl.id
            && Fxp.Q15.equal r.R.best_score fixed.Retrieval.score
        | Ok r, Error (Retrieval.Unknown_type _) -> r.R.status = R.Type_not_found
        | Ok r, Error (Retrieval.No_implementations _) ->
            r.R.status = R.No_implementations
        | Ok _, Error (Retrieval.Engine_failure _) | Error _, _ -> false);
    prop "software routine bit-equals the hardware unit"
      (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match (R.run cb req, Rtlsim.Machine.retrieve cb req) with
        | Ok r, Ok o ->
            r.R.status = R.Found
            && r.R.best_impl_id = o.Rtlsim.Machine.best_impl_id
            && Fxp.Q15.equal r.R.best_score o.Rtlsim.Machine.best_score
        | Ok r, Error (Retrieval.Unknown_type _) ->
            r.R.status = R.Type_not_found
        | Ok r, Error (Retrieval.No_implementations _) ->
            r.R.status = R.No_implementations
        | _ -> false);
    prop "hardware needs fewer cycles than software"
      (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match (R.run cb req, Rtlsim.Machine.retrieve cb req) with
        | Ok r, Ok o when r.R.status = R.Found ->
            o.Rtlsim.Machine.stats.Rtlsim.Machine.cycles < r.R.stats.C.cycles
        | _ -> true);
    prop "compiled-C routine bit-equals the hand routine"
      (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let cb, req = scenario_of_seed seed in
        match (R.run cb req, R.run ~style:R.Compiled_c cb req) with
        | Ok hand, Ok compiled ->
            hand.R.status = compiled.R.status
            && hand.R.best_impl_id = compiled.R.best_impl_id
            && Fxp.Q15.equal hand.R.best_score compiled.R.best_score
            && compiled.R.stats.C.cycles >= hand.R.stats.C.cycles
        | _ -> false);
  ]

let () =
  Alcotest.run "mblaze"
    [
      ( "isa",
        [
          Alcotest.test_case "validate" `Quick test_isa_validate;
          Alcotest.test_case "costs" `Quick test_isa_costs;
        ] );
      ("assembler", [ Alcotest.test_case "assemble" `Quick test_assembler ]);
      ( "cpu",
        [
          Alcotest.test_case "arithmetic" `Quick test_cpu_arithmetic;
          Alcotest.test_case "logical ops" `Quick test_cpu_logical_ops;
          Alcotest.test_case "r0 is zero" `Quick test_cpu_r0_is_zero;
          Alcotest.test_case "memory" `Quick test_cpu_memory;
          Alcotest.test_case "loop and cycles" `Quick test_cpu_loop_and_cycles;
          Alcotest.test_case "faults" `Quick test_cpu_faults;
          Alcotest.test_case "fall off end" `Quick test_cpu_fall_off_end;
        ] );
      ( "retrieval routine",
        [
          Alcotest.test_case "paper example" `Quick test_retrieval_paper_example;
          Alcotest.test_case "type not found" `Quick
            test_retrieval_type_not_found;
          Alcotest.test_case "no implementations" `Quick
            test_retrieval_no_implementations;
          Alcotest.test_case "cost model sensitivity" `Quick
            test_cost_model_sensitivity;
          Alcotest.test_case "compiled-C style" `Quick test_compiled_c_style;
        ] );
      ("properties", props);
    ]
