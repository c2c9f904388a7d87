(** Two-pass assembler: resolves string labels to absolute instruction
    indices. *)

type item = Label of string | Insn of string Isa.insn

type program = private {
  insns : int Isa.insn array;  (** Branch targets are instruction indices. *)
  labels : (string * int) list;  (** For disassembly and debugging. *)
}

val assemble : item list -> (program, string) result
(** Fails on duplicate labels, unknown branch targets, invalid
    registers/shifts, or an empty program. *)

val code_bytes : program -> int
(** Encoded size of the routine (4 bytes per instruction). *)
