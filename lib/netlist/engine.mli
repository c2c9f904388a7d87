(** [Qos_core.Engine] adapter over the netlist-IR cycle simulator.

    Each retrieval elaborates the pre-encoded CB image plus the request
    into a closed {!Ir.design} and runs {!Sim.run} — slow (the
    simulator settles a combinational fixpoint every clock) but an
    independent witness of the elaborated hardware's behaviour, held
    cycle- and decision-identical to [Rtlsim.Machine] by the netlist
    test suite. *)

val create : Qos_core.Casebase.t -> (Qos_core.Engine.t, string) result
(** Engine named ["netlist"]; bit-accurate, reports cycles (no phase
    attribution — the IR simulator has no phase taxonomy). *)

val factory : Qos_core.Engine.factory
