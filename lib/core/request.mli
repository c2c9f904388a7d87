(** A QoS-constrained function request (Fig. 3, left).

    A request names the desired function type and an {e incomplete}
    subset of constraining attributes — attributes the caller does not
    care about are simply absent (Sec. 3).  Each constraint carries a
    relative weight and its share of the request's weight total, which
    sums to 1 as equation (2) requires.  {!make} rounds that share to
    Q15 once: the word the Fig. 4 request list holds and every
    bit-accurate engine multiplies by. *)

type constr = private {
  attr : Attr.id;
  value : Attr.value;
  weight : float;  (** Relative importance, strictly positive. *)
  q15 : Fxp.Q15.t;
      (** [Fxp.Q15.of_float (weight /. total)], where [total] sums the
          request's weights left to right in attribute-ID order. *)
}

type t = private {
  type_id : int;  (** Desired function type. *)
  constraints : constr list;  (** Sorted by attribute ID, no duplicates. *)
}

val make : type_id:int -> (Attr.id * Attr.value * float) list -> (t, string) result
(** Sorts constraints by ID and computes each one's [q15]; rejects
    duplicates, non-positive weights, weights whose sum overflows to
    infinity and out-of-word-range IDs/values.  An empty constraint
    list is legal (a pure type lookup). *)

val with_values : t -> Attr.value array -> t
(** [with_values t values] is [t] with constraint [i] (in attribute-ID
    order) set to [values.(i)]: the request [make] would build from the
    same IDs and weights at those values, without validating, sorting
    or quantising again.  IDs, weights and [q15] are kept, and a
    constraint whose value does not change is shared with [t].  For a
    caller that builds many requests from one template: [make] it
    once, then set the values of each.  [values] is read, not kept.
    @raise Invalid_argument when [values] has not one value per
    constraint or a value lies outside [0, Attr.max_word]. *)

val normalized_weights : t -> (Attr.id * Attr.value * float) list
(** Constraints with weights rescaled to sum to 1, unrounded: the
    floating-point reference's weights.  Empty list when the request
    has no constraints. *)

val find : t -> Attr.id -> constr option
val constraint_count : t -> int

val drop_constraint : t -> Attr.id -> t
(** Remove one constraint — the unit step of the relaxation loop the
    paper sketches in Sec. 3 ("repeat its request with rather relaxed
    constraints").  The remaining [q15] shares are taken of the
    remaining total. *)

val reweight : t -> Attr.id -> float -> (t, string) result
(** Replace the weight of one constraint. *)

val with_value : t -> Attr.id -> Attr.value -> (t, string) result
(** Replace the value of one constraint (value-level relaxation). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
