(** Cycle simulator over elaborated {!Ir} designs.  The netlist test
    suite holds it cycle- and decision-identical to [Rtlsim.Machine].

    The simulator flattens the design's instance hierarchy (generics
    bound, ports renamed onto the nets of the enclosing module),
    settles the combinational cells to a fixpoint each cycle, then
    clocks every FSM with VHDL signal semantics (all right-hand sides
    read pre-edge values; assignments commit together).

    It expects the standard system top from [Elaborate.system]:
    in-ports [clk]/[rst]/[start], out-ports [done], [not_found],
    [best_id], [best_score].  A cycle is counted for every clock edge
    on which some FSM sits in a working state (anything other than
    [st_idle], [st_done], [st_error]) — the same accounting
    [Rtlsim.Machine] uses, so the two totals are comparable 1:1. *)

type outcome = {
  cycles : int;
  decision : Qos_core.Engine.decision option;
      (** [None] when the unit raised [not_found]; otherwise the
          standard engine decision record with [cycles] filled in. *)
}

val run : ?max_cycles:int -> Ir.design -> (outcome, string) result
(** Simulate to [done = '1'].  Errors on unresolved names, a
    combinational fixpoint that does not settle (a dynamic
    combinational loop) or cycle-limit overrun (default 5,000,000). *)
