(** Runs every [qosalloc.analysis] pass over one scenario and merges
    the diagnostics — the engine behind [qosalloc lint].

    The pass families:

    + {!Image_check} over the encoded RAM image;
    + {!Range_check} over the fixed-point datapath;
    + {!Prog_check} over both MicroBlaze routine styles
      ([Hand_optimized] and [Compiled_c]), with instruction locations
      prefixed ["hand:"] / ["cc:"];
    + {!Netlist_check} — the six IR-level structural passes over the
      elaborated {!Netlist.Elaborate.system} datapath for the image.
      The VHDL [Rtlgen.Vhdl] emits is printed from that same IR. *)

val lint : Qos_core.Casebase.t -> Qos_core.Request.t -> Diagnostic.t list
(** Design-time lint: encodes the scenario with
    {!Memlayout.build_system}, then runs all passes and sorts their
    findings; the range pass uses the schema's proven reciprocals and
    the request's quantised weights.  Total: a scenario that does not
    encode is a single [image] error diagnostic, so callers map
    severities straight to the exit-code contract (2 errors / 1
    warnings / 0). *)

val lint_raw :
  cb_mem:int array ->
  req_mem:int array ->
  supplemental_base:int ->
  Diagnostic.t list
(** Image + range passes over bare memory words — no case base
    required, so this accepts arbitrarily corrupted input.  The
    program and netlist passes need a full scenario and are skipped. *)
