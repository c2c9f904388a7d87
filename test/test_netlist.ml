(* Tests for the netlist IR: elaboration, the cycle simulator and its
   equivalence against Rtlsim.Machine, and the IR-level static-analysis
   passes (each exercised by a seeded mutation of the elaborated
   design that plants exactly its defect class). *)

open Qos_core
module Ir = Netlist.Ir
module El = Netlist.Elaborate
module Sim = Netlist.Sim

let get = function Ok x -> x | Error e -> Alcotest.fail e
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

(* --- structure ------------------------------------------------------------ *)

let test_unit_structure () =
  let m = El.retrieval_unit () in
  check_bool "entity name" true (String.equal m.Ir.mod_name "qos_retrieval_unit");
  check_int "ports" 11 (List.length m.Ir.ports);
  let fsm =
    List.find_map
      (function
        | Ir.Fsm { fstates; farms; _ } -> Some (fstates, farms) | _ -> None)
      m.Ir.cells
  in
  match fsm with
  | None -> Alcotest.fail "no FSM cell"
  | Some (fstates, farms) ->
      check_int "22 states" 22 (List.length fstates);
      check_int "one arm per state" (List.length fstates) (List.length farms);
      List.iter
        (fun st ->
          check_bool (st ^ " has an arm") true (List.mem_assoc st farms))
        fstates

let test_system_modules () =
  let d = get (El.design_of_scenario cb request) in
  Alcotest.(check (list string))
    "module set"
    [ "qos_retrieval_unit"; "qos_cb_rom"; "qos_req_rom"; "qos_retrieval_system" ]
    (List.map (fun m -> m.Ir.mod_name) d.Ir.modules);
  check_bool "top resolves" true (Ir.find_module d d.Ir.top <> None)

let test_rom_validation () =
  check_bool "empty rejected" true
    (Result.is_error (El.rom_module ~name:"r" ~words:[||]));
  check_bool "range checked" true
    (Result.is_error (El.rom_module ~name:"r" ~words:[| 70000 |]))

(* Table 2's primitives, read off the IR: each ROM cell of the Fig. 4/5
   memories is one block RAM, and each distinct product in the unit is
   one MULT18X18 (the FSM states that multiply the same operands share
   one Fig. 7 box). *)
let test_table2_primitives () =
  let d = get (El.design_of_scenario cb request) in
  let table2 = Resource.estimate Resource.retrieval_unit in
  let roms =
    List.concat_map
      (fun m -> List.filter (function Ir.Rom _ -> true | _ -> false) m.Ir.cells)
      d.Ir.modules
  in
  check_int "one block RAM per ROM cell" table2.Resource.brams
    (List.length roms);
  let rec subexprs e =
    e
    ::
    (match e with
    | Ir.Ref _ | Ir.Int _ | Ir.Bitlit _ | Ir.Zeros | Ir.Statelit _ -> []
    | Ir.Paren a -> subexprs a
    | Ir.Bin (_, a, b) | Ir.Resize (a, b) | Ir.To_unsigned (a, b) ->
        subexprs a @ subexprs b
    | Ir.Slice (a, b, c) | Ir.Cond (a, b, c) ->
        subexprs a @ subexprs b @ subexprs c)
  in
  let cell_exprs = function
    | Ir.Comb { cexpr; _ } -> [ cexpr ]
    | Ir.Select { marms; mdefault; _ } -> mdefault :: List.map fst marms
    | Ir.Fsm { freset_stmts; farms; _ } ->
        List.map snd
          (List.concat_map Ir.stmt_writes
             (freset_stmts @ List.concat_map snd farms))
    | Ir.Rom _ | Ir.Inst _ -> []
  in
  match Ir.find_module d "qos_retrieval_unit" with
  | None -> Alcotest.fail "no retrieval unit"
  | Some m ->
      let products =
        List.sort_uniq compare
          (List.filter
             (function Ir.Bin (Ir.Mul, _, _) -> true | _ -> false)
             (List.concat_map subexprs (List.concat_map cell_exprs m.Ir.cells)))
      in
      check_int "one MULT18X18 per distinct product" table2.Resource.mult18x18
        (List.length products)

(* --- simulator equivalence ------------------------------------------------ *)

(* Elaborate [image], simulate it, and compare against
   [Rtlsim.Machine.run] under the paper configuration: identical cycle
   count, winning implementation id and raw Q15 score — or, when the
   machine reports type-not-found / no-implementations, the netlist
   must raise [not_found].  Any divergence is an [Error] naming both
   sides. *)
let crosscheck image =
  match El.system image with
  | Error e -> Error ("elaborate: " ^ e)
  | Ok design -> (
      match Sim.run design with
      | Error e -> Error ("netlist sim: " ^ e)
      | Ok sim -> (
          match Rtlsim.Machine.run image with
          | Ok o -> (
              let mcycles = o.Rtlsim.Machine.stats.Rtlsim.Machine.cycles in
              let mid = o.Rtlsim.Machine.best_impl_id in
              let mscore = Fxp.Q15.to_raw o.Rtlsim.Machine.best_score in
              match sim.Sim.decision with
              | None -> Error "netlist raised not_found; machine found a winner"
              | Some d ->
                  if d.Qos_core.Engine.impl_id <> mid then
                    Error
                      (Printf.sprintf
                         "decision mismatch: netlist impl %d, machine %d"
                         d.Qos_core.Engine.impl_id mid)
                  else if Fxp.Q15.to_raw d.Qos_core.Engine.score <> mscore then
                    Error
                      (Printf.sprintf "score mismatch: netlist %d, machine %d"
                         (Fxp.Q15.to_raw d.Qos_core.Engine.score)
                         mscore)
                  else if sim.Sim.cycles <> mcycles then
                    Error
                      (Printf.sprintf "cycle mismatch: netlist %d, machine %d"
                         sim.Sim.cycles mcycles)
                  else Ok sim)
          | Error (Retrieval.Unknown_type _ | Retrieval.No_implementations _)
            ->
              if sim.Sim.decision = None then Ok sim
              else
                Error "machine reported not-found; netlist delivered a result"
          | Error (Retrieval.Engine_failure m) ->
              Error ("machine rejected the image: " ^ m)))

let machine_cycles image =
  match Rtlsim.Machine.run image with
  | Ok o -> o.Rtlsim.Machine.stats.Rtlsim.Machine.cycles
  | Error e -> Alcotest.fail (Retrieval.error_to_string e)

let test_sim_matches_machine_audio () =
  let image = get (Memlayout.build_system cb request) in
  let sim = get (crosscheck image) in
  (* The paper scenario's pinned figures: impl 2, raw score 31588, and
     the cycle count the profiler reports. *)
  (match sim.Sim.decision with
  | Some d ->
      check_int "impl" 2 d.Qos_core.Engine.impl_id;
      check_int "score" 31588 (Fxp.Q15.to_raw d.Qos_core.Engine.score);
      check_bool "decision carries the cycle count" true
        (d.Qos_core.Engine.cycles = Some sim.Sim.cycles)
  | None -> Alcotest.fail "expected a decision");
  check_int "cycles" (machine_cycles image) sim.Sim.cycles

let test_sim_not_found () =
  let missing = get (Request.make ~type_id:42 [ (1, 16, 1.0) ]) in
  let image = get (Memlayout.build_system cb missing) in
  let sim = get (crosscheck image) in
  check_bool "not_found" true (sim.Sim.decision = None)

let golden_scenarios () =
  let builtin = [ (cb, request) ] in
  let generated =
    List.map
      (fun seed ->
        let cb =
          Workload.Generator.sized_casebase ~seed ~types:3 ~impls:3 ~attrs:4
        in
        (cb, Workload.Generator.sized_request ~seed cb))
      [ 1; 7; 42; 1234; 9001 ]
  in
  builtin @ generated

let test_sim_matches_machine_generated () =
  List.iter
    (fun (cb, req) ->
      let image = get (Memlayout.build_system cb req) in
      match crosscheck image with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e)
    (golden_scenarios ())

(* --- static-analysis passes: seeded mutation harness ---------------------- *)

module Nc = Analysis.Netlist_check
module Diag = Analysis.Diagnostic

let design () = get (El.design_of_scenario cb request)

let map_module name f d =
  {
    d with
    Ir.modules =
      List.map
        (fun m -> if String.equal m.Ir.mod_name name then f m else m)
        d.Ir.modules;
  }

let with_unit f = map_module "qos_retrieval_unit" f (design ())
let with_top f = map_module "qos_retrieval_system" f (design ())

let errors_of ds =
  List.length (List.filter (fun d -> d.Diag.severity = Diag.Error) ds)

let check_pass_errors name pass d expect_some =
  let n = errors_of (pass d) in
  if expect_some then
    check_bool (name ^ " flags the mutation") true (n > 0)
  else check_int (name ^ " clean") 0 n

let test_passes_clean () =
  let d = design () in
  check_int "all passes clean on the elaborated system" 0
    (List.length (Nc.check d))

let test_width_mutation () =
  (* Widen a register the FSM loads from the 16-bit memory port:
     implicit truncation the printer would silently emit. *)
  let d =
    with_unit (fun m ->
        {
          m with
          Ir.signals =
            List.map
              (fun s ->
                if String.equal s.Ir.sname "rtype" then
                  { s with Ir.stype = Ir.Unsigned 17 }
                else s)
              m.Ir.signals;
        })
  in
  check_pass_errors "netlist-width" Nc.width_pass d true;
  check_pass_errors "netlist-width" Nc.width_pass (design ()) false

let test_driver_mutation () =
  (* A second continuous driver for an already-driven output. *)
  let d =
    with_unit (fun m ->
        {
          m with
          Ir.cells =
            Ir.Comb
              { cname = "dup_drv"; ctarget = "best_id"; cexpr = Ir.Ref "rtype" }
            :: m.Ir.cells;
        })
  in
  check_pass_errors "netlist-driver" Nc.driver_pass d true;
  check_pass_errors "netlist-driver" Nc.driver_pass (design ()) false

let test_comb_mutation () =
  (* Two concurrent assignments reading each other. *)
  let d =
    with_unit (fun m ->
        {
          m with
          Ir.signals =
            { Ir.sname = "loop_a"; stype = Ir.Word; sdoc = None }
            :: { Ir.sname = "loop_b"; stype = Ir.Word; sdoc = None }
            :: m.Ir.signals;
          Ir.cells =
            Ir.Comb { cname = "la"; ctarget = "loop_a"; cexpr = Ir.Ref "loop_b" }
            :: Ir.Comb
                 { cname = "lb"; ctarget = "loop_b"; cexpr = Ir.Ref "loop_a" }
            :: m.Ir.cells;
        })
  in
  check_pass_errors "netlist-comb" Nc.comb_pass d true;
  check_pass_errors "netlist-comb" Nc.comb_pass (design ()) false

let test_dead_mutation () =
  (* Drop the [done] output driver: unconnected output port. *)
  let d =
    with_unit (fun m ->
        {
          m with
          Ir.cells =
            List.filter
              (fun c -> not (String.equal (Ir.cell_name c) "done_out"))
              m.Ir.cells;
        })
  in
  check_pass_errors "netlist-dead" Nc.dead_pass d true;
  check_pass_errors "netlist-dead" Nc.dead_pass (design ()) false

let has_dead severity net msg ds =
  List.exists
    (fun d ->
      d.Diag.severity = severity
      && String.equal d.Diag.location ("qos_retrieval_unit/" ^ net)
      && String.equal d.Diag.message msg)
    ds

let test_undriven_mutation () =
  (* A cell reads a declared signal that no cell drives. *)
  let d =
    with_unit (fun m ->
        {
          m with
          Ir.signals =
            { Ir.sname = "ghost"; stype = Ir.Word; sdoc = None }
            :: { Ir.sname = "sink"; stype = Ir.Word; sdoc = None }
            :: m.Ir.signals;
          Ir.cells =
            Ir.Comb { cname = "gs"; ctarget = "sink"; cexpr = Ir.Ref "ghost" }
            :: m.Ir.cells;
        })
  in
  check_bool "undriven read is an error" true
    (has_dead Diag.Error "ghost" "signal is read but never driven"
       (Nc.dead_pass d))

let test_unused_mutation () =
  (* A declared signal that nothing reads or drives. *)
  let d =
    with_unit (fun m ->
        {
          m with
          Ir.signals =
            { Ir.sname = "spare"; stype = Ir.Bit; sdoc = None } :: m.Ir.signals;
        })
  in
  let ds = Nc.dead_pass d in
  check_bool "unused signal warned" true
    (has_dead Diag.Warning "spare" "unused signal" ds);
  check_int "and nothing else" 1 (List.length ds)

let test_bram_mutation () =
  (* Instantiate the single-port CB memory twice (Fig. 4/5 forbids a
     second reader on the same port). *)
  let d =
    with_top (fun m ->
        let dup =
          Ir.Inst
            {
              iname = "cb_mem2";
              ientity = "qos_cb_rom";
              igenerics = [];
              iports = [ ("addr", "cb_addr"); ("q", "cb_q") ];
            }
        in
        { m with Ir.cells = dup :: m.Ir.cells })
  in
  check_pass_errors "netlist-bram" Nc.bram_pass d true;
  check_pass_errors "netlist-bram" Nc.bram_pass (design ()) false

let test_clock_mutation () =
  (* A second FSM clocked from [start]: two clock domains in one
     module.  And an FSM clocked from an internal register: a derived
     clock, not an input port. *)
  let aux fclock =
    Ir.Fsm
      {
        fname = "aux";
        fclock;
        freset = "rst";
        fstate = "state";
        fstates = [ "st_idle" ];
        finitial = "st_idle";
        freset_stmts = [];
        fvars = [];
        farms = [ ("st_idle", []) ];
      }
  in
  let crossing =
    with_unit (fun m -> { m with Ir.cells = aux "start" :: m.Ir.cells })
  in
  let derived =
    with_unit (fun m -> { m with Ir.cells = aux "best_id_r" :: m.Ir.cells })
  in
  check_pass_errors "netlist-clock" Nc.clock_pass crossing true;
  check_pass_errors "netlist-clock" Nc.clock_pass derived true;
  check_pass_errors "netlist-clock" Nc.clock_pass (design ()) false

(* --- properties ----------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "netlist sim is cycle- and decision-identical to Rtlsim.Machine"
      (QCheck2.Gen.int_range 0 20_000)
      (fun seed ->
        let cb =
          Workload.Generator.sized_casebase ~seed ~types:2 ~impls:3 ~attrs:3
        in
        let req = Workload.Generator.sized_request ~seed cb in
        match Memlayout.build_system cb req with
        | Error _ -> true
        | Ok image -> Result.is_ok (crosscheck image));
  ]

let () =
  Alcotest.run "netlist"
    [
      ( "ir",
        [
          Alcotest.test_case "unit structure" `Quick test_unit_structure;
          Alcotest.test_case "system modules" `Quick test_system_modules;
          Alcotest.test_case "rom validation" `Quick test_rom_validation;
          Alcotest.test_case "table 2 primitives" `Quick test_table2_primitives;
        ] );
      ( "sim",
        [
          Alcotest.test_case "audio equivalence" `Quick
            test_sim_matches_machine_audio;
          Alcotest.test_case "not-found" `Quick test_sim_not_found;
          Alcotest.test_case "generated equivalence" `Quick
            test_sim_matches_machine_generated;
        ] );
      ( "passes",
        [
          Alcotest.test_case "clean design" `Quick test_passes_clean;
          Alcotest.test_case "width mutation" `Quick test_width_mutation;
          Alcotest.test_case "driver mutation" `Quick test_driver_mutation;
          Alcotest.test_case "comb mutation" `Quick test_comb_mutation;
          Alcotest.test_case "dead mutation" `Quick test_dead_mutation;
          Alcotest.test_case "undriven mutation" `Quick test_undriven_mutation;
          Alcotest.test_case "unused mutation" `Quick test_unused_mutation;
          Alcotest.test_case "bram mutation" `Quick test_bram_mutation;
          Alcotest.test_case "clock mutation" `Quick test_clock_mutation;
        ] );
      ("properties", props);
    ]
