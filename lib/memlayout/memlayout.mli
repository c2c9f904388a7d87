(** Linear 16-bit-word RAM images of the paper's list structures
    (Sec. 4.1, Fig. 4 and Fig. 5).

    Everything the retrieval unit touches is a linear list of 16-bit
    words, terminated by a dedicated end marker, with attribute blocks
    pre-sorted by ascending ID so scans can resume from the current
    position instead of restarting (the linear-effort argument of
    Sec. 4.1).

    Three structures exist:

    - the {e request list} (Fig. 4 left):
      [type_id, (attr_id, value, weight)*, END] — weights stored as raw
      Q15 words;
    - the {e attribute supplemental list} (Fig. 4 right):
      [(attr_id, lower, upper, recip)*, END] where [recip] is the raw
      Q15 word of [(1 + dmax)^-1] ("maxrange-1"), precomputed so the
      datapath multiplies instead of divides;
    - the {e implementation tree} (Fig. 5): a level-0 list of
      [(type_id, pointer)] pairs, per type a level-1 list of
      [(impl_id, pointer)] pairs, per implementation a level-2 list of
      [(attr_id, value)] pairs, each list END-terminated, concatenated
      into one block.  Pointers are word addresses within the image.

    The design-time image (CB-MEM) is the tree followed by the
    supplemental list, laid out in one address plan: the level-0 list
    at word 0, then each type's level-1 list in type order, then every
    level-2 list in (type, implementation) order, then the
    supplemental list.  {!encode_cb} counts the four sizes first, so
    every base is known before a word is written, and fills one array
    level by level; each pointer word is the running address of the
    next list in the level below.

    The execution {e target} of a variant is deliberately {b not} part
    of the image — as in the paper, the retrieval unit returns an
    implementation ID and the allocation manager maps it to
    configuration data. *)

val end_marker : int
(** 0xFFFF.  Attribute/type/implementation IDs are positive and values
    are capped below the marker, so an ID slot reading 0xFFFF always
    means end-of-list. *)

val max_value_word : int
(** [Attr.max_word], 0xFFFE — largest storable ID or attribute value
    ({!end_marker} is reserved).  The core refuses anything larger, so
    every validated case base and request encodes word by word. *)

val address_space : int
(** 0x10000 — word capacity of the 16-bit address space; no image may
    exceed it (pointers are 16-bit words themselves). *)

(** Word-addressed read-only memory with an access counter — the BRAM
    behavioural model shared by [Rtlsim] and [Mblaze]. *)
module Ram : sig
  type t

  val of_array : int array -> t
  (** Copies; every word must be within [0, 0xFFFF]. *)

  val size : t -> int

  val read : t -> int -> int
  (** Counts one access. @raise Invalid_argument when out of bounds. *)

  val peek : t -> int -> int
  (** Read without counting (debug/trace use). *)

  val access_count : t -> int
end

val encode_request : Qos_core.Request.t -> int array
(** Each constraint's weight word is its [Request.constr.q15], the
    share {!Qos_core.Request.make} rounded. *)

type decoded_request = {
  req_type_id : int;
  req_constraints : (int * int * int) list;
      (** (attr ID, value, raw Q15 weight). *)
}

type decoded_supplemental = (int * int * int * int) list
(** (attr ID, lower, upper, raw Q15 reciprocal) blocks in image order. *)

type decoded_tree = (int * (int * (int * int) list) list) list
(** type ID -> impl ID -> (attr ID, value) pairs, in image order. *)

val decode_request : int array -> (decoded_request, string) result
val decode_supplemental : int array -> (decoded_supplemental, string) result
val decode_tree : int array -> (decoded_tree, string) result

(** Combined image the hardware unit executes from: CB-MEM holds the
    implementation tree followed by the supplemental list, Req-MEM holds
    the request (the two BRAMs of Table 2). *)
type system_image = {
  cb_mem : int array;
  req_mem : int array;
  tree_base : int;  (** Always 0. *)
  supplemental_base : int;  (** Word address of the supplemental list. *)
}

type cb_image = {
  cb_words : int array;  (** Tree ++ supplemental list. *)
  cb_supplemental_base : int;
      (** Word address of the supplemental list, which is also the
          tree's size: the tree is
          [Array.sub cb_words 0 cb_supplemental_base]. *)
}

val encode_cb : Qos_core.Casebase.t -> (cb_image, string) result
(** The design-time CB-MEM content, reusable across requests, in the
    address plan above.  Fails when the tree alone would exceed the
    16-bit address space, or else when tree and supplemental list
    together would. *)

val attach_request : cb_image -> Qos_core.Request.t -> system_image
(** Pair a compiled case base with one request — what the run-time
    system does per function call. *)

val build_system : Qos_core.Casebase.t -> Qos_core.Request.t
  -> (system_image, string) result
(** [encode_cb] + [attach_request] in one step. *)

val reconstruct_system :
  cb_mem:int array ->
  req_mem:int array ->
  supplemental_base:int ->
  (system_image, string) result
(** Rebuild a {!system_image} from raw memory words (e.g. re-imported
    from exported hex files), copying them after validating all three
    structures by decoding them. *)

(** Word/byte accounting used to reproduce Table 3. *)
type accounting = {
  request_words : int;
  supplemental_words : int;
  tree_level0_words : int;
  tree_level1_words : int;
  tree_level2_words : int;
  tree_total_words : int;
}

val account : Qos_core.Casebase.t -> Qos_core.Request.t
  -> (accounting, string) result
(** Sizes of the images {!build_system} would produce; fails where it
    would. *)

val bytes_of_words : int -> int

val worst_case_tree_words :
  types:int ->
  impls_per_type:int ->
  attrs_per_impl:int ->
  include_end_markers:bool ->
  include_pointers:bool ->
  int
(** Closed-form size of a fully populated tree — the Table 3
    configuration is [types:15 ~impls_per_type:10 ~attrs_per_impl:10].
    The two flags let EXPERIMENTS.md report the accounting variants the
    paper's "4.5 kB" may correspond to. *)

val worst_case_request_words :
  attrs_per_request:int -> include_end_marker:bool -> int

val pp_accounting : Format.formatter -> accounting -> unit
