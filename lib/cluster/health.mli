(** Phi-accrual-style failure detector over simulated-time heartbeats.

    Each node is expected to beat every [period_us].  Suspicion is the
    continuous phi value of the accrual detector under an exponential
    inter-arrival assumption: [phi = (dt / period) * log10 e], where
    [dt] is the time since the last observed beat — i.e. the negated
    log10 of the probability that a healthy node's beat is {e this}
    late.  Two fixed thresholds turn phi into a routing verdict: above
    {!suspect_phi} the node is {!Suspect} (deprioritised, still
    eligible); above {!down_phi} it is {!Down} (skipped).

    The detector is driven entirely by the caller's clock, so verdicts
    are a pure function of the beat history — no wall time, no
    sampling races. *)

type t

type status = Up | Suspect | Down

val suspect_phi : float
(** 1: a beat more than ~2.3 periods late makes a node {!Suspect}. *)

val down_phi : float
(** 3: a beat more than ~6.9 periods late makes a node {!Down}. *)

val create : ?period_us:float -> nodes:int -> unit -> t
(** Default period 500 us.  Nodes are IDs [0 .. nodes-1], all
    initially just-beaten at time 0. *)

val beat : t -> node:int -> at:float -> unit
(** Record a heartbeat.  Beats never move time backwards. *)

val phi : t -> node:int -> at:float -> float
(** Current suspicion at time [at]; 0 immediately after a beat. *)

val status : t -> node:int -> at:float -> status

val last_beat : t -> node:int -> float

val status_to_string : status -> string
(** "up", "suspect", "down". *)
