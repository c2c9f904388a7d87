(** Pass 2 — interval range analysis of the fixed-point datapath.

    Abstract interpretation over the Q15 formulas the hardware
    evaluates (equation (1) and the weighted sum of equation (2)),
    using raw-word intervals [[lo, hi]]:

    - per attribute, the distance [d] ranges over [[0, dmax]]; the
      product [d * recip] is bounded and checked against the 16-bit
      saturation bound of the multiplier ([Fxp.Q15.mul_int]);
    - the complement step clamps the local similarity into
      [[0, Q15.one]];
    - each weighted term is bounded by its weight word, and the
      accumulating adder's interval is checked against the saturation
      bound 65535.

    For a schema-derived analysis ({!analyze}) the pass {e proves} the
    datapath free of saturation: the design-time reciprocal satisfies
    [dmax * recip <= 65535] and normalised weights keep the
    accumulator below the bound, so a clean report is a theorem about
    every request within the schema's domain.  When the score's upper
    bound exceeds [Q15.one] only by the documented weight-rounding
    slack, that is reported as {!Diagnostic.Info}.

    {!analyze_raw} instead takes the reciprocal and weight words
    {e as stored in an image} — a corrupted word there yields a
    concrete witness (the attribute/weight and the saturating raw
    product). *)

val pass_name : string
(** "range". *)

type interval = { lo : int; hi : int }
(** Raw 16-bit words, [0 <= lo <= hi]. *)

type attr_range = {
  attr_id : int;
  dmax : int;
  recip : int;  (** Raw Q15 reciprocal used by the analysis. *)
  product : interval;  (** [d * recip] before the complement. *)
  local : interval;  (** Local similarity after the complement. *)
}

type report = {
  attr_ranges : attr_range list;
  score : interval;  (** The accumulated global similarity, raw Q15. *)
  diagnostics : Diagnostic.t list;
}

val analyze : Qos_core.Casebase.t -> report
(** Design-time proof over the schema's reciprocals: the weight vector
    ranges over every normalised request constraining up to all
    schema attributes. *)

val analyze_raw :
  supplemental:(int * int * int * int) list ->
  weights:(int * int) list ->
  report
(** Analysis over stored words: [supplemental] is the decoded
    [(attr id, lower, upper, recip)] blocks, [weights] the request's
    [(attr id, raw Q15 weight)] pairs. *)
