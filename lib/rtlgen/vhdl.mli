(** VHDL code generation for the retrieval unit.

    The paper's flow converted a Matlab Stateflow model into VHDL with a
    beta-state tool and patched the result by hand (Sec. 4.2).  This
    module is the equivalent exporter for this repository: it emits a
    self-contained VHDL-93 project implementing the Fig. 6 most-similar
    retrieval FSM over the Fig. 4/5 RAM images.

    The retrieval unit and the ROM entities are {e printed} from the
    elaborated netlist IR ({!Netlist.Elaborate.retrieval_unit} and
    {!Netlist.Elaborate.rom_module}) rather than kept as string
    templates, so the text emitted here, the structure the
    [Analysis.Netlist_check] passes lint, the area the resource model
    folds over and the machine the netlist simulator executes are all
    the same object.  The files —

    - [qos_retrieval_pkg]: widths and the end-marker constant;
    - [qos_retrieval_unit]: the word-serial FSM + datapath (entity with
      clk/rst/start and ROM-port interfaces);
    - one ROM entity per memory, initialised from the [Memlayout]
      images (asynchronous read; map to block RAM by registering the
      output and adding one wait state per access);
    - [qos_retrieval_tb]: a self-checking testbench asserting the
      implementation ID and Q15 score that [Qos_core.Engine_fixed]
      predicts.

    The generated text is deterministic for a given case base and
    request.  It is not compiled in this repository's CI (no VHDL
    toolchain in the sealed environment).  [test/export_audio.golden.vhd]
    pins the printed text of the shipped scenario byte for byte; the
    structure it prints is what the netlist passes lint, and semantic
    equivalence rests on the shared [Rtlsim.Machine] model: the
    printed FSM is cycle-exact against it, a property the netlist
    suite asserts on every golden workload. *)

type file = { filename : string; contents : string }

val package : unit -> file
(** [qos_retrieval_pkg.vhd]. *)

val retrieval_unit : unit -> file
(** [qos_retrieval_unit.vhd] — the FSM/datapath entity. *)

val rom :
  name:string -> words:int array -> (file, string) result
(** A 16-bit-wide asynchronous-read ROM entity initialised with
    [words]; fails on an empty image or out-of-range words. *)

val testbench :
  Qos_core.Casebase.t -> Qos_core.Request.t -> (file, string) result
(** [qos_retrieval_tb.vhd]; fails when the request cannot be answered
    (the expected values come from [Engine_fixed]) or the images cannot
    be built. *)

val project :
  Qos_core.Casebase.t -> Qos_core.Request.t -> (file list, string) result
(** The full file set: package, unit, CB-MEM ROM, Req-MEM ROM,
    testbench. *)
