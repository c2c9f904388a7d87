(** Typed, hierarchical structural netlist IR.

    One elaborated description of the paper's Fig. 7 retrieval datapath
    (and the Fig. 4/5 BRAM organisation) feeds every structural
    consumer: the VHDL printer in [Rtlgen.Vhdl], the IR-level lint
    passes in [Analysis.Netlist_check] and the cycle simulator in
    {!Sim}.  The Table 2 area and clock estimate is not one of them:
    [Resource] prices its own condensed Fig. 7 inventory.

    The IR deliberately mirrors the synthesisable VHDL subset the
    generator emits — unsigned vectors with explicit widths, registered
    processes (one clocked FSM per module), combinational
    concurrent/selected assignments, asynchronous ROM cells and
    hierarchical entity instances — so the printer is a pure
    pretty-printer and every static fact a pass checks is visible
    structurally rather than textually. *)

(** {1 Types and expressions} *)

type vtype =
  | Bit  (** [std_logic] *)
  | Word  (** [word_t]: [unsigned(WORD_BITS - 1 downto 0)] *)
  | Addr  (** [addr_t]: [unsigned(ADDR_BITS - 1 downto 0)] *)
  | Unsigned of int  (** [unsigned(n - 1 downto 0)] *)

val width_of_vtype : vtype -> int
(** Bit widths; [Word] and [Addr] are 16 per the package constants. *)

val vtype_name : vtype -> string
(** The VHDL type mark ([std_logic], [word_t], ...). *)

type binop =
  | Add
  | Sub
  | Mul
  | Srl  (** right operand is a shift count, not a vector *)
  | Eq
  | Neq
  | Lt
  | Le
  | Gt
  | Ge
  | And_
  | Or_

type expr =
  | Ref of string  (** signal, port, variable, constant or generic *)
  | Int of int  (** width-polymorphic integer literal *)
  | Bitlit of char  (** ['0'] or ['1'] *)
  | Zeros  (** [(others => '0')] *)
  | Statelit of string  (** an FSM state literal *)
  | Bin of binop * expr * expr
  | Paren of expr  (** explicit parentheses, kept for the printer *)
  | Slice of expr * expr * expr  (** [e(hi downto lo)] *)
  | Resize of expr * expr  (** [resize(e, w)] *)
  | To_unsigned of expr * expr  (** [to_unsigned(v, w)] *)
  | Cond of expr * expr * expr  (** [a when cond else b] (concurrent) *)

(** {1 Statements (inside the clocked FSM process)} *)

type stmt =
  | Assign of string * expr  (** [signal <= expr] *)
  | Vassign of string * expr  (** [variable := expr] *)
  | If of (expr * stmt list) list * stmt list
      (** [if c1 then .. elsif c2 then .. else .. end if]; the final
          list may be empty (no [else] branch). *)

(** {1 Cells, modules, designs} *)

type dir = In | Out

type port = { pname : string; ptype : vtype; pdir : dir; pdoc : string option }
type signal = { sname : string; stype : vtype; sdoc : string option }

type generic = { gname : string; gdefault : int option; gdoc : string option }
(** Integer-valued elaboration parameter; bound at instantiation. *)

type cell =
  | Comb of { cname : string; ctarget : string; cexpr : expr }
      (** concurrent assignment [ctarget <= cexpr] *)
  | Select of {
      mname : string;
      mtarget : string;
      mselector : string;  (** the FSM state signal *)
      marms : (expr * string) list;  (** [expr when state] *)
      mdefault : expr;  (** [... when others] *)
    }  (** address mux: [with mselector select mtarget <= ...] *)
  | Fsm of {
      fname : string;
      fclock : string;
      freset : string;
      fstate : string;  (** the state register signal *)
      fstates : string list;
      finitial : string;
      freset_stmts : stmt list;
      fvars : (string * vtype) list;  (** process variables *)
      farms : (string * stmt list) list;  (** one arm per state *)
    }
  | Rom of { rname : string; raddr : string; rdata : string; rwords : int array }
      (** asynchronous read-only memory port (Fig. 4/5 image in BRAM);
          out-of-range reads return the end marker *)
  | Inst of {
      iname : string;
      ientity : string;
      igenerics : (string * expr) list;
      iports : (string * string) list;  (** formal -> actual *)
    }

val cell_name : cell -> string

type m = {
  mod_name : string;
  generics : generic list;
  ports : port list;
  signals : signal list;
  cells : cell list;
}

type design = {
  constants : (string * (int * int option)) list;
      (** package constants: name -> (value, vector width or [None] for
          plain integers) *)
  modules : m list;
  top : string;
}

val find_module : design -> string -> m option

(** {1 Structural queries}

    The environment functions answer "what is the width of this name"
    and "which names does this expression read" — the base facts every
    analysis pass and the simulator build on. *)

val module_width : design -> m -> vars:(string * vtype) list -> string -> int option
(** Width of a name inside a module: checks variables, signals, ports,
    then design constants and generics (integer-valued: [None]).
    Unknown names are [None]. *)

val expr_width :
  lookup:(string -> int option) ->
  const:(string -> int option) ->
  expr ->
  int option
(** Static width of an expression under VHDL [numeric_std] rules:
    [Add]/[Sub] widen to the larger operand, [Mul] sums the operand
    widths, [Srl] keeps the left width, comparisons and boolean
    connectives have no vector width, [Resize]/[To_unsigned] take the
    requested width.  [lookup] answers name widths; [const] answers
    constant {e values} (for slice bounds and width arguments).
    [None] when polymorphic or unknown. *)

val eval_const : lookup:(string -> int option) -> expr -> int option
(** Fold an expression of literals and value-known constants to an
    integer (used for slice bounds and width arguments). *)

val expr_reads : expr -> string list
(** Names read by an expression, in first-occurrence order. *)

val stmt_reads : stmt -> string list
val stmt_writes : stmt -> (string * expr) list
(** All [(target, rhs)] assignment pairs in a statement tree,
    signal and variable assignments alike. *)

val fsm_signal_targets : stmt list -> string list
(** Signal (not variable) targets assigned anywhere in the statements,
    de-duplicated. *)
