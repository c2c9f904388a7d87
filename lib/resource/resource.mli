(** FPGA resource and clock estimation for the retrieval unit —
    reproduces the Table 2 synthesis inventory.

    The Fig. 7 datapath is described here as a component inventory:
    every register, arithmetic unit, comparator and multiplexer of the
    most-similar-retrieval datapath, the two BRAMs (CB-MEM and Req-MEM)
    and the two 18x18 hardware multipliers ({!retrieval_unit}), plus
    the Sec. 5 variants.  The model prices each component in Virtex-II
    terms (a slice holds two 4-LUTs and two flip-flops; multipliers map
    to MULT18X18 primitives; memories to 18-kbit block RAMs), sums the
    inventory, and applies a fixed overhead factor.

    The overhead factor deserves a note: the paper's VHDL was
    machine-generated from a Matlab Stateflow model by a beta-state
    converter (JVHDLgen) and then patched by hand (Sec. 4.2).  Such
    code synthesises far less densely than hand-written RTL; the
    overhead constant (1.86x over ideal packing) is chosen so the
    reference datapath lands at the paper's 441 slices and is applied
    uniformly to every variant, so {e relative} comparisons (e.g.
    compacted vs word-serial) remain meaningful. *)

(** {1 The Fig. 7 inventory} *)

type component =
  | Register of { name : string; bits : int }
  | Adder of { name : string; bits : int }
  | Subtractor of { name : string; bits : int }
  | Abs_unit of { name : string; bits : int }
      (** Subtract + conditional negate — the ABS(X) block. *)
  | Comparator of { name : string; bits : int }
  | Multiplier of { name : string; a_bits : int; b_bits : int }
      (** Mapped onto a MULT18X18 primitive. *)
  | Mux of { name : string; inputs : int; bits : int }
  | Counter of { name : string; bits : int }
      (** Address counters / pointers into the memories. *)
  | Fsm of { name : string; states : int }
      (** One-hot control automaton. *)
  | Bram of { name : string; kbits : int }

val retrieval_unit : component list
(** The Fig. 7 datapath: request/CB address counters, attribute ID /
    value / weight / reciprocal registers, ABS difference unit, the two
    multipliers (similarity x reciprocal, similarity x weight),
    accumulator, best-score/best-ID registers, the result comparator,
    the memory muxes, and the Fig. 6 control FSM. *)

val compacted_retrieval_unit : component list
(** The Sec. 5 "compacted attribute block" variant: 32-bit wide memory
    port (double BRAM data width), an extra holding register, a slightly
    larger FSM. *)

val nbest_retrieval_unit : k:int -> component list
(** The Sec. 5 "n most similar" extension: the single best-score/ID
    register pair is replaced by [k] pairs plus an insertion comparator
    chain.  @raise Invalid_argument when [k < 1]. *)

val component_name : component -> string

(** {1 Pricing} *)

(** Raw primitive demand of one component. *)
type cost = { luts : int; ffs : int; brams : int; mults : int }

val component_cost : component -> cost

type estimate = {
  slices : int;
  luts : int;
  ffs : int;
  brams : int;
  mult18x18 : int;
  clock_mhz : float;
  critical_path : string;  (** Name of the limiting path. *)
}

val estimate : component list -> estimate

(** A target device's capacity, for utilisation percentages. *)
type device = {
  device_name : string;
  device_slices : int;
  device_brams : int;
  device_mults : int;
}

val xc2v3000 : device
(** Xilinx Virtex-II 3000: 14336 slices, 96 block RAMs, 96 MULT18X18 —
    the paper's device. *)

type utilization = {
  slice_pct : float;
  bram_pct : float;
  mult_pct : float;
}

val utilization : device -> estimate -> utilization

(** The paper's reported numbers, for side-by-side printing. *)
type paper_numbers = {
  paper_slices : int;  (** 441 *)
  paper_brams : int;  (** 2 *)
  paper_mults : int;  (** 2 *)
  paper_clock_mhz : float;
      (** 77 as printed in Table 2; the running text says 75. *)
}

val table2 : paper_numbers

val pp_estimate : Format.formatter -> estimate -> unit
val pp_utilization : Format.formatter -> utilization -> unit
