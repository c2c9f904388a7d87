(** Bit-accurate 16-bit fixed-point retrieval engine.

    Mirrors the arithmetic of the hardware datapath (Fig. 7): local
    similarity is computed as [one - d * recip] where [recip] is the
    Q15 supplemental-table constant [(1 + dmax)^-1], the weight product
    and accumulation are Q15 with round-to-nearest, and the best
    variant is kept under a strict greater-than update.

    The paper claims (Sec. 4.2) that this 16-bit pipeline produces the
    same retrieval decisions as the floating-point golden model; tests
    and benches verify that property against {!Engine_float}. *)

type score = Fxp.Q15.t

type ranked = score Retrieval.ranked

val local_fixed : recip:Fxp.Q15.t -> Attr.value -> Attr.value -> score
(** One local similarity exactly as the datapath computes it:
    absolute difference, multiply by the reciprocal, complement to one. *)

val score_impl : Attr.Schema.t -> Request.t -> Impl.t -> score
(** Weighted-sum global similarity in Q15 (the only amalgamation the
    hardware implements), over each constraint's [Request.constr.q15]
    weight — the request-list word of Fig. 4, rounded once by
    {!Request.make}. *)

val rank_all :
  Casebase.t -> Request.t -> (ranked list, Retrieval.error) result

val best : Casebase.t -> Request.t -> (ranked, Retrieval.error) result

val n_best :
  n:int -> Casebase.t -> Request.t -> (ranked list, Retrieval.error) result

val above_threshold :
  threshold:score ->
  Casebase.t ->
  Request.t ->
  (ranked list, Retrieval.error) result

val agrees_with_float : Casebase.t -> Request.t -> bool
(** [true] when this engine and {!Engine_float} pick the same best
    implementation ID, or when the fixed pick belongs to the float
    top group — variants whose float scores sit within twice the
    datapath's worst-case Q15 rounding error (reciprocal rounding
    scaled by the schema's largest dmax, plus per-constraint weight
    and product rounding), which the 16-bit silicon cannot tell
    apart — the "identical retrieval results" experiment (S2). *)
