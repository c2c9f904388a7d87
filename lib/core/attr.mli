(** QoS attributes and the design-time attribute schema.

    Attributes are the typed ID/value pairs of Sec. 2.2: integer-valued
    (16-bit words in the hardware), identified by a globally unique type
    ID, with design-time value bounds from which the maximum distance
    [dmax] of equation (1) is derived.  The schema corresponds to the
    "attribute supplemental data" list of Fig. 4 (right): per attribute
    ID it stores lower/upper bounds and the precomputed reciprocal
    [(1 + dmax)^-1]. *)

type id = int
(** Attribute type ID; positive, fits a 16-bit word. *)

type value = int
(** Attribute value; non-negative, fits a 16-bit word.  Units are
    attribute-specific (kSamples/s, bits, enum code, mW, ...). *)

type descriptor = private {
  id : id;
  name : string;  (** Human-readable label, e.g. "sample-rate". *)
  lower : value;  (** Design-global lower bound over the whole library. *)
  upper : value;  (** Design-global upper bound over the whole library. *)
}

val descriptor : id:id -> name:string -> lower:value -> upper:value
  -> (descriptor, string) result
(** Validates ID/value word ranges and [lower <= upper]: the only way
    to build a {!descriptor}, so every descriptor's words encode. *)

val dmax : descriptor -> int
(** Maximum possible distance of two in-bounds values: [upper - lower]. *)

val max_word : int
(** 0xFFFE (65534): the largest ID or value the core accepts.
    Everything stored in the hardware lists must fit a 16-bit word
    other than 0xFFFF, the lists' end marker (Fig. 4/5), so every
    value the core accepts encodes. *)

val pp_descriptor : Format.formatter -> descriptor -> unit

(** The design-time schema: a set of descriptors keyed by attribute ID. *)
module Schema : sig
  type t

  val empty : t

  val add : descriptor -> t -> (t, string) result
  (** [Error] on duplicate ID. *)

  val of_list : descriptor list -> (t, string) result

  val find : t -> id -> descriptor option
  val mem : t -> id -> bool

  val dmax : t -> id -> int option
  (** Maximum distance for the given attribute ID, when known. *)

  val recip : t -> id -> Fxp.Q15.t option
  (** Q15 value of [(1 + dmax)^-1] — the "maxrange-1" supplemental
      entry that lets the datapath multiply instead of divide. *)

  val descriptors : t -> descriptor list
  (** In ascending ID order (the pre-sorted list invariant of Sec. 4.1). *)

  val cardinal : t -> int
  val union : t -> t -> (t, string) result
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
