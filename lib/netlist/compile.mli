(** The native engine: a case base compiled to dense score tables over
    flat unboxed int arrays.

    [of_casebase] encodes the case base with [Memlayout.encode_cb],
    elaborates the CB-MEM ROM with {!Elaborate.rom_module} — the same
    IR module [Rtlgen.Vhdl] prints and {!Sim} executes — and reads its
    tables, once, from that ROM's word image (the exact Fig. 4/5 BRAM
    layout):

    - per function type, one dense value table with a row per variant
      in image order and a column per attribute of the supplemental
      list: variant k's level-2 value of attribute j, or -1 when the
      variant lacks it;
    - direct arrays from attribute ID to its column and to the
      supplemental list's Q15 reciprocal, and from type ID to its
      table.

    A retrieval looks up each constraint's column and reciprocal once
    and takes its Q15 weight as [Request.make] rounded it, then scores
    every variant with array reads and inline Q15 arithmetic that
    replicates [Fxp.Q15] operation for operation (saturating add,
    round-to-nearest multiply, complement-to-one).  A compiled case
    base keeps one scratch array, four words per supplemental
    attribute, that each retrieval fills with its constraints, so a
    retrieval allocates only its result; one domain at a time drives a
    compiled case base and every engine made from it.  The hardware's
    word-serial resume scan down the level-2 lists, and its cycles,
    stay modelled in [Rtlsim] and the netlist.

    The result is decision-identical to [Qos_core.Engine_fixed] —
    same winning variant, same raw Q15 score — at native int-array
    speed: no cycle accounting, no per-access RAM model, no request
    image encoding.  The cross-engine equivalence harness in
    [test_engines] holds it to that contract on the golden workloads
    and randomized case bases. *)

type t
(** A compiled case base. *)

val of_casebase : Qos_core.Casebase.t -> (t, string) result
(** Fails when the case base does not encode (e.g. image exceeds the
    16-bit address space) or the elaborated ROM diverges from the
    Memlayout encoding. *)

val bram_image : t -> int array
(** The ROM word image the tables were read from — byte-for-word
    the Fig. 4/5 CB-MEM content of the elaborated IR (a copy). *)

val retrieve :
  t ->
  Qos_core.Request.t ->
  (Qos_core.Engine.decision, Qos_core.Engine.error) result
(** One retrieval; [cycles] is [None] (the native engine has no
    timing model).  It allocates the result and nothing else, and it
    writes [t]'s scratch, so two domains may not call it on one [t] at
    once. *)

val engine : t -> Qos_core.Engine.t
(** Wrap as the engine named ["native"]; bit-accurate, no cycles. *)

val factory : Qos_core.Engine.factory
(** [of_casebase] + {!engine}. *)
