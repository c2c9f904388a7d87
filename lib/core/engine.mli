(** First-class retrieval-engine interface.

    The paper's Fig. 7 retrieval unit exists in this repository as
    several implementations — the float reference, the Q15 bit-accurate
    engine, the cycle-accurate machine model, the netlist-IR simulator
    and the IR-compiled native engine.  Each used to carry its own
    calling convention; this module is the one seam they all plug
    into: create an engine from a {!Casebase.t}, retrieve one
    {!Request.t}, get back one {!decision}.

    Engines are plain records of closures rather than a functor so a
    registry can hold them side by side and consumers (the allocator,
    the cluster's per-node engines, fault campaigns, profiling, the
    CLI) can select one at run time with an [--engine] flag.

    The float and fixed instances live here; the cycle-reporting
    instances are adapters in [Rtlsim.Engine], [Netlist.Engine] and
    [Netlist.Compile], and [qosalloc.engines] collects all five under
    their CLI names. *)

type decision = {
  impl_id : int;  (** Winning implementation variant. *)
  score : Fxp.Q15.t;  (** Global similarity of the winner. *)
  cycles : int option;
      (** Modeled retrieval-unit cycles; [None] for engines without a
          timing model (float, fixed, native). *)
}

val clock_mhz : float
(** 75 MHz, the retrieval unit's clock in the paper's running text
    (Sec. 4.2; Table 2 prints 77): [cycles /. clock_mhz] is the
    unit's time in microseconds. *)

type error = Retrieval.error =
  | Unknown_type of int  (** Function type absent from the case base. *)
  | No_implementations of int  (** Type present but has no variants. *)
  | Engine_failure of string
      (** Engine-specific failure (e.g. an image that does not
          encode). *)
(** {!Retrieval.error}, re-exported with its constructors: every
    engine, and [Rtlsim.Machine], answers with this one type. *)

type caps = {
  bit_accurate : bool;
      (** Scores are bit-identical to [Engine_fixed] (the Q15 golden
          model).  The float reference is the only engine without
          this. *)
  reports_cycles : bool;  (** {!decision.cycles} is always [Some _]. *)
}

(** An engine value may keep mutable scratch between calls (the native
    engine does), so one domain at a time drives an engine value.  Make
    one engine per domain from its {!factory}: [Cluster.Substrate]
    builds one per node, and [Cluster.Serve] decides each node's
    requests from one worker. *)
type t = {
  name : string;  (** Registry/CLI name, e.g. ["rtlsim"]. *)
  caps : caps;
  retrieve : Request.t -> (decision, error) result;
  retrieve_batch : Request.t list -> (decision, error) result list;
      (** One result per request, in order.  Engines with per-stream
          setup amortise it here; the default maps {!retrieve}. *)
  phase_cycles : (Request.t -> ((string * int) list, error) result) option;
      (** Per-phase cycle attribution (the profiler hook); only
          engines with a phase-level timing model provide it. *)
}

type factory = Casebase.t -> (t, string) result
(** Compile a case base into an engine.  Fails when the case base
    cannot be compiled for this engine (e.g. the RAM image exceeds the
    16-bit address space). *)

val error_to_string : error -> string
(** {!Retrieval.error_to_string}. *)

val pp_error : Format.formatter -> error -> unit
val equal_error : error -> error -> bool

val batch_of_single :
  (Request.t -> (decision, error) result) ->
  Request.t list ->
  (decision, error) result list
(** The default batch implementation: map the single-shot retrieve. *)

val float_engine : factory
(** The float reference ([Engine_float]): scores are computed in
    double precision and quantised to Q15 for the decision record.
    Not bit-accurate — ties within one Q15 ulp may rank differently
    from the fixed datapath. *)

val fixed_engine : factory
(** The Q15 golden model ([Engine_fixed]): the bit-accurate reference
    every hardware-flavoured engine is held equal to. *)

val equal_decision : decision -> decision -> bool
(** Variant and score; cycles compared only when both report them. *)
