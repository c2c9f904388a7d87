(** Cycle-attribution profiler for any cycle-reporting retrieval
    engine.

    Splits a retrieval's total cycle count into the engine's phases
    (for [rtlsim], the four machine phases of [Rtlsim.Machine.phase])
    and checks the paper's central claim that retrieval effort grows
    linearly with request size: the hardware walks ID-sorted attribute
    lists with resumable scans, so each added constraint costs a
    near-constant increment (Sec. 4.1).

    Phase attribution is exact by construction on the rtlsim machine —
    every cycle it ticks is charged to exactly one phase — and
    {!breakdown} re-checks the sum anyway so a future accounting bug
    turns into a visible [consistent = false] rather than silent
    drift. *)

type breakdown = {
  total_cycles : int;
  phase_cycles : (string * int) list;
      (** In the engine's phase order ([Rtlsim.Machine.all_phases] for
          [rtlsim]); empty for an engine without phase attribution. *)
  consistent : bool;  (** Phase sum equals [total_cycles]. *)
}

type linearity = {
  points : (int * int) list;
      (** (constraint count, total cycles) for each request prefix,
          sizes 0 through the full request. *)
  increments : int list;  (** Cycle deltas between successive points. *)
  linear : bool;
      (** Increments are near-constant: max <= 2 * min + slack.  True
          vacuously with fewer than two increments. *)
}

type report = {
  breakdown : breakdown;
  linearity : linearity;
  best_impl_id : int;
}

val run : Qos_core.Engine.t -> Qos_core.Request.t -> (report, string) result
(** Profile one retrieval: the full-request breakdown plus the
    prefix-ladder linearity check (one extra retrieval per prefix).
    Errors when the engine's capabilities say it reports no cycles.
    Phase attribution comes from the engine's [phase_cycles] hook;
    engines without one get an empty, vacuously consistent
    breakdown. *)

val pp_report : Format.formatter -> report -> unit
val report_to_json : report -> string
