(** 16-bit unsigned fixed-point arithmetic for the retrieval datapath.

    The paper's hardware (Sec. 4.2) processes all attribute values and
    similarities as 16-bit words.  Similarities live in [0, 1] and are
    represented in Q15 ([{!Q15.one} = 32768]).  The expensive division of
    equation (1) is replaced by a multiplication with the design-time
    precomputed reciprocal [(1 + dmax)^-1] (Sec. 4.1), which {!Q15.recip_succ}
    models.

    All operations saturate at the 16-bit raw bound instead of wrapping, the
    behaviour of the saturating datapath adders. *)

(** Q15: 1 sign-free integer bit, 15 fractional bits; [one] = 32768.
    The format the retrieval datapath uses for similarities and
    weights. *)
module Q15 : sig
  type t = private int
  (** A raw 16-bit unsigned fixed-point value in [0, 65535]. *)

  val fractional_bits : int
  (** 15. *)

  val zero : t

  val one : t
  (** [2 ^ 15]. *)

  val half : t

  val max_value : t
  (** Largest representable value, raw 65535. *)

  val ulp : float
  (** Magnitude of one least-significant bit, [2. ** -15]. *)

  val of_raw : int -> t option
  (** [of_raw r] is [Some] iff [r] is within [0, 65535]. *)

  val of_raw_exn : int -> t
  (** @raise Invalid_argument when out of range. *)

  val to_raw : t -> int

  val of_float : float -> t
  (** Round to nearest; clamps into the representable range (negative
      inputs clamp to {!zero}). *)

  val to_float : t -> float

  val add : t -> t -> t
  (** Saturating addition. *)

  val sub : t -> t -> t
  (** Monus: [sub a b] is [zero] when [b >= a]. *)

  val mul : t -> t -> t
  (** Fixed-point product, rounded to nearest, saturating. *)

  val mul_int : t -> int -> t
  (** [mul_int x n] scales [x] by the non-negative integer [n],
      saturating.  Models the [|diff| * (1 + dmax)^-1] multiplier.
      @raise Invalid_argument when [n < 0]. *)

  val div : t -> t -> t
  (** Fixed-point division, rounded to nearest, saturating.  The hardware
      unit deliberately has no divider; this exists for golden-model
      cross-checks only.
      @raise Division_by_zero when the divisor is {!zero}. *)

  val recip_succ : int -> t
  (** [recip_succ n] is [1 / (1 + n)] rounded to nearest — the design-time
      "maxrange-1" supplemental-table entry for an attribute whose maximum
      distance is [n].  @raise Invalid_argument when [n < 0]. *)

  val complement_to_one : t -> t
  (** [complement_to_one x] is [one - x], clamped at {!zero} when [x > one].
      Implements the [1 - d/(1+dmax)] step of equation (1). *)

  val compare : t -> t -> int

  val equal : t -> t -> bool

  val min : t -> t -> t

  val max : t -> t -> t

  val abs_diff_int : int -> int -> int
  (** Manhattan distance of two raw integer attribute values — the ABS
      unit of the Fig. 7 datapath. *)

  val pp : Format.formatter -> t -> unit
  (** Prints the decimal value followed by the raw word, e.g. "0.8919 (29224)". *)
end
