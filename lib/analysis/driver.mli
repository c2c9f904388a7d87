(** Runs every [qosalloc.analysis] pass over one scenario and merges
    the diagnostics — the engine behind [qosalloc lint].

    The pass families:

    + {!Image_check} over the encoded RAM image;
    + {!Range_check} over the fixed-point datapath;
    + {!Prog_check} over both MicroBlaze routine styles
      ([Hand_optimized] and [Compiled_c]), with instruction locations
      prefixed ["hand:"] / ["cc:"];
    + {!Netlist_check} — the six IR-level structural passes over the
      elaborated {!Netlist.Elaborate.system} datapath for the image;
    + {!Vhdl_check} over caller-supplied VHDL sources (the caller
      renders them — typically via [Rtlgen.Vhdl.project] — so this
      library stays independent of the generator). *)

val lint :
  ?vhdl:(string * string) list ->
  Qos_core.Casebase.t ->
  Qos_core.Request.t ->
  (Diagnostic.t list, string) result
(** Design-time lint: encodes the scenario with
    {!Memlayout.build_system} (whose failure is the returned [Error]),
    then runs all passes; the range pass uses the schema's proven
    reciprocals and the request's quantised weights. *)

val lint_scenario :
  ?vhdl:(string * string) list ->
  Qos_core.Casebase.t ->
  Qos_core.Request.t ->
  Diagnostic.t list
(** Total variant of {!lint}: an encoding failure becomes a single
    error diagnostic instead of an [Error], so callers map severities
    straight to the exit-code contract (2 errors / 1 warnings / 0). *)

val lint_image :
  ?vhdl:(string * string) list -> Memlayout.system_image -> Diagnostic.t list
(** Raw-image lint (e.g. over re-imported hex files): the image pass
    trusts nothing, the range pass analyses the {e stored} reciprocal
    and weight words (skipped when the lists do not even decode — the
    image pass already reports why), and the program pass checks both
    routine styles against the actual memory-map size. *)

val lint_raw :
  cb_mem:int array ->
  req_mem:int array ->
  supplemental_base:int ->
  Diagnostic.t list
(** Image + range passes over bare memory words — no case base
    required, so this accepts arbitrarily corrupted input.  The
    program and VHDL passes need a full scenario and are skipped. *)
