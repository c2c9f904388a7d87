(** [Qos_core.Engine] adapter over the cycle-accurate {!Machine}.

    The case base is compiled to its CB-MEM image once at {!create};
    each retrieval only encodes the request and runs the FSM, so the
    cycle counts are identical to [Machine.retrieve] (the image is the
    same) while the design-time tree encoding is amortised — the
    run-time usage pattern the paper assumes. *)

val create :
  ?config:Machine.config -> Qos_core.Casebase.t -> (Qos_core.Engine.t, string) result
(** Engine named ["rtlsim"]; bit-accurate, reports cycles and the
    four-phase attribution.  Defaults to {!Machine.paper_config}. *)

val factory : Qos_core.Engine.factory
(** {!create} under the paper configuration. *)
