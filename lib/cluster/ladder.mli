(** The rungs of the serving ladder as pure functions.

    A request for a hosted type walks its replica set through six
    rungs: {e skip} the replicas that cannot serve, {e steal} from an
    overloaded node to a victim with headroom, {e shed} from a full
    node, {e fail over} an attempt an outage kills, {e back off} when
    the candidates run out, and {e degrade} once the retries are
    spent.  Each rung here decides from the state it is handed —
    per-replica views, per-node loads, the steal policy, the attempt
    number and the skip flags — and returns what to do.
    {!Serve.run} applies the answers on its discrete-event clock:
    scheduling, slot accounting, breaker marks and counters.  The
    rungs never touch a PRNG, a clock or the observer. *)

type reason = Breaker_open | All_replicas_down | Saturated | Retries_exhausted
(** Why a request answered degraded. *)

val reason_to_string : reason -> string
(** ["breaker-open"], ["all-replicas-down"], ["saturated"],
    ["retries-exhausted"]. *)

type replica = {
  status : Health.status;  (** Detector verdict at the round's query time. *)
  resyncing : bool;  (** Still re-replicating after a rejoin. *)
  admits : bool;  (** Its breaker lets a request through now. *)
}
(** What the ladder knows of one node when it considers it. *)

type skips = {
  down : bool;  (** A replica was skipped as down or resyncing. *)
  breaker : bool;  (** A replica was skipped for its open breaker. *)
  saturated : bool;  (** A candidate was full and shed the request. *)
}

type walk = {
  attempt : int;  (** Backoff rounds already spent; 0 on arrival. *)
  pending : int list;  (** Candidates not yet tried, in order. *)
  skips : skips;
}
(** One round of a request's walk over its replica set. *)

val round : attempt:int -> view:(int -> replica) -> int list -> walk
(** {e Skip}: the round's candidates from the replica list — [Up]
    replicas first, then [Suspect] ones, each in replica order.  A
    [Down] or resyncing replica is skipped and sets [down]; one whose
    breaker refuses is skipped and sets [breaker].  [view] is asked
    once per replica, in order. *)

val victim : replica -> bool
(** A steal victim must be [Up], past its resync and admitted by its
    breaker. *)

type placement =
  | Serve of { denied : bool }  (** The node has a free slot. *)
  | Shed of { denied : bool }  (** Every slot of the node is in flight. *)
  | Steal of Steal.pick  (** An overloaded node hands the request off. *)
(** [denied] is set when the node was overloaded but no victim had
    headroom: a steal denial. *)

val place :
  Steal.policy ->
  salt:int ->
  node:int ->
  replicas:int list ->
  members:int list ->
  view:(int -> replica) ->
  load:(int -> int * int) ->
  holds:(int -> bool) ->
  placement
(** {e Steal} and {e shed}: where the candidate [node] puts the
    request.  With stealing enabled and [node] overloaded,
    {!Steal.select} elects a {!victim} among [replicas], then
    [members]; [load] gives a node's (in-flight, slots).  Without a
    victim, a full node sheds and one with a free slot serves. *)

val claims_probe : Breaker.state -> bool
(** Serving on a half-open breaker claims its probe slot. *)

val connect_timeout_us : float
(** 100 us: the cost of an attempt routed to a node that is down but
    not yet detected. *)

val kill_time :
  Faults.Outages.down_table -> at:float -> service_us:float -> float option
(** {e Failover}: when the outage schedule kills an attempt that starts
    at [at] and needs [service_us] — [at + connect_timeout_us] on a
    node already down, the start of an outage inside the service
    window — or [None] when it completes. *)

val shed : walk -> walk
(** The candidate was full: continue with [saturated] set. *)

val degrade_reason : skips -> reason
(** [Saturated] over [Breaker_open] over [All_replicas_down] over
    [Retries_exhausted]. *)

type step =
  | Try of int * walk
      (** Place the request on this candidate; a killed attempt or a
          shed continues with the returned walk. *)
  | Retry of float  (** Back off this long, then start a new round. *)
  | Degrade of reason  (** Answer with the stale decision. *)

val next :
  Faults.Backoff.policy ->
  max_retries:int ->
  draw:(unit -> float) ->
  walk ->
  step
(** {e Failover}, {e backoff} and {e degrade}: the next candidate while
    any is left; then a retry delay from {!Faults.Backoff.delay} while
    [attempt < max_retries]; then the degrade reason.  [draw] supplies
    the jitter draw and is called only for a retry under a jittered
    policy. *)
