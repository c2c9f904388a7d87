(* Tests for the FPGA resource/clock estimator (Table 2). *)

module R = Resource

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let estimate = R.estimate R.retrieval_unit

let test_table2_inventory () =
  check_int "slices = paper's 441" R.table2.R.paper_slices estimate.R.slices;
  check_int "brams = 2" R.table2.R.paper_brams estimate.R.brams;
  check_int "multipliers = 2" R.table2.R.paper_mults estimate.R.mult18x18

let test_table2_clock () =
  (* Paper: 77 MHz in the table, 75 MHz in the text; accept the band. *)
  check_bool "clock in the 70-85 MHz class" true
    (estimate.R.clock_mhz >= 70.0 && estimate.R.clock_mhz <= 85.0);
  check_bool "multiplier limits the clock" true
    (String.equal estimate.R.critical_path "multiplier-complement")

let test_utilization () =
  let u = R.utilization R.xc2v3000 estimate in
  (* Paper: 3% slices, 2% BRAM, 2% MULT. *)
  check_bool "slice pct ~3" true (u.R.slice_pct > 2.5 && u.R.slice_pct < 3.5);
  check_bool "bram pct ~2" true (u.R.bram_pct > 1.5 && u.R.bram_pct < 2.5);
  check_bool "mult pct ~2" true (u.R.mult_pct > 1.5 && u.R.mult_pct < 2.5)

let test_device_capacities () =
  check_int "slices" 14336 R.xc2v3000.R.device_slices;
  check_int "brams" 96 R.xc2v3000.R.device_brams;
  check_int "mults" 96 R.xc2v3000.R.device_mults

let test_component_costs () =
  let reg = R.component_cost (R.Register { name = "r"; bits = 16 }) in
  check_int "register ffs" 16 reg.R.ffs;
  check_int "register luts" 0 reg.R.luts;
  let adder = R.component_cost (R.Adder { name = "a"; bits = 16 }) in
  check_int "adder luts" 16 adder.R.luts;
  let mult = R.component_cost (R.Multiplier { name = "m"; a_bits = 16; b_bits = 16 }) in
  check_int "multiplier primitive" 1 mult.R.mults;
  check_int "multiplier takes no luts" 0 mult.R.luts;
  let bram = R.component_cost (R.Bram { name = "b"; kbits = 18 }) in
  check_int "bram primitive" 1 bram.R.brams;
  let fsm = R.component_cost (R.Fsm { name = "f"; states = 11 }) in
  check_int "fsm ffs (one-hot)" 11 fsm.R.ffs;
  let mux = R.component_cost (R.Mux { name = "x"; inputs = 4; bits = 16 }) in
  check_int "4:1 mux luts" 24 mux.R.luts

let test_compacted_variant () =
  let compacted = R.estimate R.compacted_retrieval_unit in
  check_bool "compacted needs more slices" true
    (compacted.R.slices > estimate.R.slices);
  check_int "still 2 brams" 2 compacted.R.brams;
  check_int "still 2 multipliers" 2 compacted.R.mult18x18

let test_nbest_datapath () =
  let base = estimate in
  let n4 = R.estimate (R.nbest_retrieval_unit ~k:4) in
  let n8 = R.estimate (R.nbest_retrieval_unit ~k:8) in
  check_bool "k=4 grows over single-best" true (n4.R.slices > base.R.slices);
  check_bool "k=8 grows over k=4" true (n8.R.slices > n4.R.slices);
  check_int "still 2 brams" 2 n8.R.brams;
  check_int "still 2 multipliers" 2 n8.R.mult18x18;
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Resource.nbest_retrieval_unit: k must be >= 1")
    (fun () -> ignore (R.nbest_retrieval_unit ~k:0))

let test_datapath_inventory () =
  check_int "2 brams in the datapath" 2 estimate.R.brams;
  check_int "2 multipliers in the datapath" 2 estimate.R.mult18x18;
  check_bool "fsm present" true
    (List.exists
       (function R.Fsm _ -> true | _ -> false)
       R.retrieval_unit);
  check_bool "component names unique" true
    (let names = List.map R.component_name R.retrieval_unit in
     List.length names = List.length (List.sort_uniq String.compare names))

let test_no_multiplier_path () =
  (* Without multipliers, the memory path should dominate. *)
  let no_mult =
    List.filter (function R.Multiplier _ -> false | _ -> true) R.retrieval_unit
  in
  let e = R.estimate no_mult in
  check_int "no multipliers" 0 e.R.mult18x18;
  check_bool "different critical path" true
    (not (String.equal e.R.critical_path "multiplier-complement"));
  check_bool "faster clock" true (e.R.clock_mhz > estimate.R.clock_mhz)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let component_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun bits -> R.Register { name = "r"; bits }) (int_range 1 32);
        map (fun bits -> R.Adder { name = "a"; bits }) (int_range 1 32);
        map (fun bits -> R.Abs_unit { name = "abs"; bits }) (int_range 1 32);
        map
          (fun (inputs, bits) -> R.Mux { name = "m"; inputs; bits })
          (pair (int_range 2 8) (int_range 1 32));
        map (fun states -> R.Fsm { name = "f"; states }) (int_range 1 64);
      ])

let props =
  [
    prop "component costs are non-negative" component_gen (fun c ->
        let k = R.component_cost c in
        k.R.luts >= 0 && k.R.ffs >= 0 && k.R.brams >= 0 && k.R.mults >= 0);
    prop "estimate is monotone in components"
      (QCheck2.Gen.list_size (QCheck2.Gen.int_range 1 10) component_gen)
      (fun components ->
        let small = R.estimate components in
        let big = R.estimate (components @ components) in
        big.R.slices >= small.R.slices);
  ]

let () =
  Alcotest.run "resource"
    [
      ( "table2",
        [
          Alcotest.test_case "inventory" `Quick test_table2_inventory;
          Alcotest.test_case "clock" `Quick test_table2_clock;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "device" `Quick test_device_capacities;
        ] );
      ( "model",
        [
          Alcotest.test_case "component costs" `Quick test_component_costs;
          Alcotest.test_case "compacted variant" `Quick test_compacted_variant;
          Alcotest.test_case "datapath inventory" `Quick test_datapath_inventory;
          Alcotest.test_case "n-best datapath" `Quick test_nbest_datapath;
          Alcotest.test_case "no-multiplier path" `Quick test_no_multiplier_path;
        ] );
      ("properties", props);
    ]
