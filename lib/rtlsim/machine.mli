(** Cycle-accurate behavioural model of the retrieval unit.

    Executes the most-similar-retrieval FSM of Fig. 6 over the RAM
    images built by [Memlayout], with word-serial timing: every memory
    port access, ALU operation and multiplier operation takes one clock
    cycle, matching the small word-at-a-time controller the paper
    synthesised (one 16-bit word per BRAM port per cycle at 75 MHz).

    The arithmetic is bit-identical to [Qos_core.Engine_fixed] in the
    paper configuration, so the score delivered here equals the fixed
    engine's score word for word — the property the paper verified
    between ModelSim and its Matlab golden model. *)

(** Timing/architecture knobs, for the paper's ablations. *)
type config = {
  resume_scan : bool;
      (** Sec. 4.1 optimisation: attribute scans resume from the current
          list position (lists are ID-sorted).  [false] restarts every
          scan from the list head — the baseline the paper argues
          against. *)
  compacted : bool;
      (** Sec. 5 projection: 32-bit memory port delivers an (ID, value)
          pair per access. *)
  use_divider : bool;
      (** Ablation: compute [d / (1 + dmax)] with an iterative divider
          instead of the precomputed reciprocal (costs
          {!divider_cycles} per local similarity and reads the bounds
          instead of the reciprocal).  May differ from the reciprocal
          path by one ulp. *)
  overlap_compute : bool;
      (** Pipelined variant: ALU/multiplier work overlaps the memory
          fetches (still counted in the statistics, but free in
          cycles).  The divider latency can never hide.  Combined with
          [compacted] this is the architecture behind the paper's
          ">= 2x" Sec. 5 projection. *)
  registered_bram : bool;
      (** Block-RAM mapping: the memory output register adds one wait
          state per access (the asynchronous distributed-RAM default
          reads in the same cycle).  Trades latency for the higher
          clock of a registered BRAM output. *)
}

val paper_config : config
(** Word-serial, resume-scan, reciprocal multiplier, no overlap — what
    the paper synthesised. *)

val pipelined_config : config
(** [paper_config] plus [compacted] and [overlap_compute]: the Sec. 5
    "load IDs and values as blocks within one step" projection. *)

val divider_cycles : int
(** Latency charged per division in [use_divider] mode (16-bit
    radix-2 iterative divider: 18 cycles). *)

(** Cycle attribution: the FSM region a cycle was spent in.  Every
    cycle of a run is charged to exactly one phase, so the per-phase
    counters always sum to the total — the invariant the profiler in
    [qosalloc.obs] golden-tests. *)
type phase =
  | Tree_walk  (** Level-0 type-list scan and level-1 impl-list headers. *)
  | Attr_scan
      (** Request-attribute fetches plus the ID-sorted supplemental and
          implementation attribute-list scans (Sec. 4.1). *)
  | Mac
      (** Datapath work: ABS/accumulate ALU steps, the reciprocal
          multiply (or iterative divider), and best-register compares. *)
  | Mem_stall
      (** Registered-BRAM output wait states; zero in the asynchronous
          distributed-RAM mapping. *)

val all_phases : phase list
val phase_name : phase -> string

type phase_cycles = {
  tree_walk : int;
  attr_scan : int;
  mac : int;
  mem_stall : int;
}

val phase_cycles_get : phase -> phase_cycles -> int

type stats = {
  cycles : int;
  cb_accesses : int;  (** CB-MEM port accesses. *)
  req_accesses : int;  (** Req-MEM port accesses. *)
  mult_ops : int;
  alu_ops : int;
  impls_visited : int;
  attrs_matched : int;
  attrs_missing : int;  (** Request attributes absent from a variant. *)
  phases : phase_cycles;  (** Sums exactly to [cycles]. *)
}

type outcome = {
  best_impl_id : int;
  best_score : Fxp.Q15.t;
  stats : stats;
  trace : string list;  (** Newest last; empty unless tracing was on. *)
  waveform : Vcd.change list;
      (** Signal-change log for {!Vcd.render}; empty unless waveform
          capture was on. *)
}

val waveform_signals : Vcd.signal list
(** The signals captured when waveform recording is on: cb_addr,
    req_addr, local_s, acc, best_id, best_score. *)

val run :
  ?config:config ->
  ?trace:bool ->
  ?waveform:bool ->
  Memlayout.system_image ->
  (outcome, Qos_core.Retrieval.error) result
(** Execute one retrieval over the given system image.  The unit's
    not-found flag is [Unknown_type] for an absent type and
    [No_implementations] for an empty variant list; an image the FSM
    cannot walk is [Engine_failure "malformed RAM image: ..."]. *)

val retrieve :
  ?config:config ->
  ?trace:bool ->
  ?waveform:bool ->
  Qos_core.Casebase.t ->
  Qos_core.Request.t ->
  (outcome, Qos_core.Retrieval.error) result
(** Convenience: build the image, then {!run}. *)

val retrieve_stream :
  ?config:config ->
  Qos_core.Casebase.t ->
  Qos_core.Request.t list ->
  ((outcome, Qos_core.Retrieval.error) result list, string) result
(** Serve a request stream against one compiled CB-MEM image — the
    run-time usage pattern (the case base is design-time static, only
    Req-MEM changes per call).  Fails only when the case base itself
    cannot be compiled. *)

(** N-most-similar retrieval — the extension the paper announces in
    Sec. 5 ("an extension for getting n most similar solutions from
    retrieval which offers the possibility for checking out the
    feasibility of different matching variants").

    The hardware keeps [k] (score, ID) register pairs with insertion
    logic; every candidate score is compared against the kept entries
    (one comparator evaluation per kept entry on the insertion path),
    and the register file shifts in parallel, so insertion costs at
    most [k] cycles. *)
type nbest_outcome = {
  ranked : (int * Fxp.Q15.t) list;
      (** (implementation ID, score), best first, at most [k] entries. *)
  nbest_stats : stats;
  nbest_trace : string list;
}

val run_nbest :
  ?config:config ->
  ?trace:bool ->
  k:int ->
  Memlayout.system_image ->
  (nbest_outcome, Qos_core.Retrieval.error) result
(** @raise Invalid_argument when [k < 1]. *)

val retrieve_nbest :
  ?config:config ->
  ?trace:bool ->
  k:int ->
  Qos_core.Casebase.t ->
  Qos_core.Request.t ->
  (nbest_outcome, Qos_core.Retrieval.error) result

val pp_stats : Format.formatter -> stats -> unit
