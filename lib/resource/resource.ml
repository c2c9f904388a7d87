type component =
  | Register of { name : string; bits : int }
  | Adder of { name : string; bits : int }
  | Subtractor of { name : string; bits : int }
  | Abs_unit of { name : string; bits : int }
  | Comparator of { name : string; bits : int }
  | Multiplier of { name : string; a_bits : int; b_bits : int }
  | Mux of { name : string; inputs : int; bits : int }
  | Counter of { name : string; bits : int }
  | Fsm of { name : string; states : int }
  | Bram of { name : string; kbits : int }

(* One entry per box of Fig. 7, plus the control FSM of Fig. 6 (11
   states: fetch-type, scan-type, select-impl, fetch-req-attr,
   fetch-supplemental, scan-impl-attr, compute-local, accumulate,
   compare-best, next-impl, done). *)
let retrieval_unit =
  [
    Bram { name = "cb_mem"; kbits = 18 };
    Bram { name = "req_mem"; kbits = 18 };
    Counter { name = "req_addr"; bits = 16 };
    Counter { name = "cb_addr"; bits = 16 };
    Counter { name = "supp_addr"; bits = 16 };
    Register { name = "req_type"; bits = 16 };
    Register { name = "attr_id"; bits = 16 };
    Register { name = "attr_value_req"; bits = 16 };
    Register { name = "attr_value_cb"; bits = 16 };
    Register { name = "weight"; bits = 16 };
    Register { name = "recip_dmax"; bits = 16 };
    Register { name = "impl_id"; bits = 16 };
    Register { name = "attr_list_ptr"; bits = 16 };
    Abs_unit { name = "abs_diff"; bits = 16 };
    Multiplier { name = "mul_recip"; a_bits = 16; b_bits = 16 };
    Multiplier { name = "mul_weight"; a_bits = 16; b_bits = 16 };
    Subtractor { name = "complement_one"; bits = 16 };
    Adder { name = "accumulate"; bits = 18 };
    Register { name = "sum_s"; bits = 18 };
    Register { name = "s_max"; bits = 16 };
    Register { name = "impl_id_max"; bits = 16 };
    Comparator { name = "best_compare"; bits = 16 };
    Comparator { name = "id_match"; bits = 16 };
    Comparator { name = "end_detect"; bits = 16 };
    Mux { name = "cb_addr_mux"; inputs = 4; bits = 16 };
    Mux { name = "req_addr_mux"; inputs = 2; bits = 16 };
    Mux { name = "local_sim_mux"; inputs = 2; bits = 16 };
    Fsm { name = "retrieval_ctrl"; states = 11 };
  ]

(* Compacted variant (Sec. 5): the BRAM ports are configured 32 bits
   wide so ID and value arrive in one access; one extra holding register
   and two extra FSM states for the pair alignment. *)
let compacted_retrieval_unit =
  List.map
    (function
      | Fsm { name; states } -> Fsm { name; states = states + 2 }
      | c -> c)
    retrieval_unit
  @ [ Register { name = "pair_hold"; bits = 16 } ]

let component_name = function
  | Register { name; _ }
  | Adder { name; _ }
  | Subtractor { name; _ }
  | Abs_unit { name; _ }
  | Comparator { name; _ }
  | Multiplier { name; _ }
  | Mux { name; _ }
  | Counter { name; _ }
  | Fsm { name; _ }
  | Bram { name; _ } ->
      name

(* N-best variant: the s_max / impl_id_max pair becomes a k-deep
   insertion register file with one comparator per kept entry. *)
let nbest_retrieval_unit ~k =
  if k < 1 then invalid_arg "Resource.nbest_retrieval_unit: k must be >= 1"
  else
    let keep_regs =
      List.concat
        (List.init k (fun i ->
             [
               Register { name = Printf.sprintf "s_kept_%d" i; bits = 16 };
               Register { name = Printf.sprintf "id_kept_%d" i; bits = 16 };
               Comparator { name = Printf.sprintf "insert_cmp_%d" i; bits = 16 };
             ]))
    in
    List.filter
      (fun c ->
        match component_name c with
        | "s_max" | "impl_id_max" | "best_compare" -> false
        | _ -> true)
      retrieval_unit
    @ keep_regs

type cost = { luts : int; ffs : int; brams : int; mults : int }

let zero_cost = { luts = 0; ffs = 0; brams = 0; mults = 0 }

let ceil_div a b = (a + b - 1) / b

(* Virtex-II pricing per component class:
   - register: one FF per bit;
   - counter: increment logic (1 LUT/bit via the carry chain) + register;
   - adder/subtractor/comparator: carry chain, 1 LUT per bit;
   - ABS: subtract then conditional negate, 2 LUTs per bit;
   - k:1 mux: a tree of 2:1 muxes, (k-1) LUTs per bit, halved by the
     dedicated MUXF5/MUXF6 resources;
   - one-hot FSM: ~3 LUTs of next-state/output decode and 1 FF per state. *)
let component_cost c =
  match c with
  | Register { bits; _ } -> { zero_cost with ffs = bits }
  | Counter { bits; _ } -> { zero_cost with luts = bits; ffs = bits }
  | Adder { bits; _ } | Subtractor { bits; _ } -> { zero_cost with luts = bits }
  | Comparator { bits; _ } -> { zero_cost with luts = bits }
  | Abs_unit { bits; _ } -> { zero_cost with luts = 2 * bits }
  | Multiplier _ -> { zero_cost with mults = 1 }
  | Mux { inputs; bits; _ } ->
      { zero_cost with luts = ceil_div ((inputs - 1) * bits) 2 }
  | Fsm { states; _ } -> { zero_cost with luts = 3 * states; ffs = states }
  | Bram _ -> { zero_cost with brams = 1 }

(* Delays are Virtex-II speed-grade -4 ballpark figures; [overhead] is
   calibrated so the reference datapath reproduces Table 2's 441 slices
   (generated VHDL, see the interface's module doc). *)
let overhead = 1.86
let lut_delay_ns = 0.65
let carry_per_bit_ns = 0.10
let bram_access_ns = 2.6
let mult_delay_ns = 7.0

(* Net delay as a multiple of logic delay. *)
let routing_factor = 1.5

type estimate = {
  slices : int;
  luts : int;
  ffs : int;
  brams : int;
  mult18x18 : int;
  clock_mhz : float;
  critical_path : string;
}

type path = { path_name : string; logic_ns : float }

(* Candidate register-to-register paths of the Fig. 7 datapath. *)
let candidate_paths components =
  let has_multiplier =
    List.exists (function Multiplier _ -> true | _ -> false) components
  in
  let bits = 16.0 in
  let carry = bits *. carry_per_bit_ns in
  let base =
    [
      (* BRAM output -> address mux -> counter increment *)
      {
        path_name = "mem-to-counter";
        logic_ns = bram_access_ns +. lut_delay_ns +. carry;
      };
      (* difference register -> ABS -> complement *)
      {
        path_name = "abs-complement";
        logic_ns = (2.0 *. lut_delay_ns) +. (2.0 *. carry);
      };
      (* accumulator add + best comparison *)
      { path_name = "accumulate-compare"; logic_ns = 2.0 *. carry +. lut_delay_ns };
    ]
  in
  if has_multiplier then
    (* multiplier output -> complement subtract -> register *)
    { path_name = "multiplier-complement"; logic_ns = mult_delay_ns +. carry }
    :: base
  else base

let estimate components =
  let add (acc : cost) c =
    let k = component_cost c in
    {
      luts = acc.luts + k.luts;
      ffs = acc.ffs + k.ffs;
      brams = acc.brams + k.brams;
      mults = acc.mults + k.mults;
    }
  in
  let total = List.fold_left add zero_cost components in
  (* Packing: 2 LUTs and 2 FFs per slice.  Generated FSM code rarely
     co-locates a datapath LUT with an unrelated FF, so LUT and FF
     demand are packed separately rather than shared. *)
  let ideal = ceil_div total.luts 2 + ceil_div total.ffs 2 in
  let slices = int_of_float (Float.round (float_of_int ideal *. overhead)) in
  let worst =
    List.fold_left
      (fun (acc : path) p -> if p.logic_ns > acc.logic_ns then p else acc)
      { path_name = "none"; logic_ns = 0.0 }
      (candidate_paths components)
  in
  let period_ns = worst.logic_ns *. routing_factor in
  let clock_mhz = if period_ns <= 0.0 then 0.0 else 1000.0 /. period_ns in
  {
    slices;
    luts = total.luts;
    ffs = total.ffs;
    brams = total.brams;
    mult18x18 = total.mults;
    clock_mhz;
    critical_path = worst.path_name;
  }

type device = {
  device_name : string;
  device_slices : int;
  device_brams : int;
  device_mults : int;
}

let xc2v3000 =
  {
    device_name = "XC2V3000";
    device_slices = 14336;
    device_brams = 96;
    device_mults = 96;
  }

type utilization = { slice_pct : float; bram_pct : float; mult_pct : float }

let utilization device e =
  let pct used total = 100.0 *. float_of_int used /. float_of_int total in
  {
    slice_pct = pct e.slices device.device_slices;
    bram_pct = pct e.brams device.device_brams;
    mult_pct = pct e.mult18x18 device.device_mults;
  }

type paper_numbers = {
  paper_slices : int;
  paper_brams : int;
  paper_mults : int;
  paper_clock_mhz : float;
}

let table2 =
  { paper_slices = 441; paper_brams = 2; paper_mults = 2; paper_clock_mhz = 77.0 }

let pp_estimate ppf e =
  Format.fprintf ppf
    "slices=%d (luts=%d ffs=%d) bram=%d mult18x18=%d clock=%.1fMHz (path: %s)"
    e.slices e.luts e.ffs e.brams e.mult18x18 e.clock_mhz e.critical_path

let pp_utilization ppf u =
  Format.fprintf ppf "slices %.1f%%, bram %.1f%%, mult %.1f%%" u.slice_pct
    u.bram_pct u.mult_pct
