(** Structured event log: the cluster's flight recorder.

    Typed event variants covering the life of a request (admission,
    retries, failovers, sheds, degradation, completion), node health
    transitions, circuit-breaker transitions, fault-campaign scrubs and
    relocations, and SLO burn alerts — each stamped with sim-time and
    optional request/node correlation fields.

    Storage is a bounded ring buffer: when full, the oldest event is
    overwritten and the explicit {!dropped} counter grows, so the log
    never allocates beyond its capacity and loss is visible, never
    silent.  The disabled sink ({!noop}) records nothing and allocates
    nothing — one constructor match per {!record} call, the same cost
    contract as {!Tracer.noop}.

    Every timestamp is caller-supplied sim-time, so for a fixed seed the
    {!to_ndjson} export is byte-deterministic — event recording must
    happen in a sequential (control) phase, never from worker domains. *)

type kind =
  | Request_admitted of { app : string; type_id : int }
  | Request_retry of { attempt : int; delay_us : float }
      (** A backoff round was scheduled ([attempt] is 0-based). *)
  | Request_failover of { from_node : int }
      (** An in-flight attempt was killed; the ladder moves on. *)
  | Request_shed of { at_node : int }
      (** A saturated node skipped the request (cluster scope). *)
  | Request_steal of { from_node : int; to_node : int option; scope : string }
      (** An overloaded node handed the request to a victim
          ([to_node = Some v], [scope] "replica" or "global"), or
          looked for one and found none ([to_node = None], a steal
          denial — the ladder sheds or serves locally as before). *)
  | Request_degraded of { reason : string; stale_impl : int option }
  | Request_completed of { at_node : int; impl_id : int; latency_us : float }
  | Request_failed of { error : string }
      (** Engine error — never an availability event. *)
  | Node_transition of { prev : string; next : string }
      (** Failure-detector verdict change; the node field carries the id. *)
  | Node_rejoin of { resync_lag_us : float }
      (** Back from a transient outage, catch-up re-replication started. *)
  | Breaker_transition of { prev : string; next : string }
  | Scrub of { corrupted_words : int; diagnostics : int }
  | Relocation of { device : string; qos_delta : float }
  | Slo_alert of {
      objective : string;
      state : string;  (** "firing" or "resolved". *)
      burn_fast : float;
      burn_slow : float;
    }

type event = {
  ts : float;  (** Sim-time, microseconds. *)
  request : int option;  (** Submission index, where one applies. *)
  node : int option;
  kind : kind;
}

type t

val noop : unit -> t
(** The disabled sink: every operation is a no-op. *)

val recording : ?capacity:int -> unit -> t
(** A live log holding at most [capacity] (default 65536) events.
    @raise Invalid_argument when [capacity < 1]. *)

val enabled : t -> bool

val record : t -> ts:float -> ?request:int -> ?node:int -> kind -> unit
(** Append one event; overwrites the oldest when the ring is full. *)

val recorded : t -> int
(** Total events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** [recorded - still stored]: how many the ring has overwritten. *)

val capacity : t -> int
(** Ring size; 0 for the no-op sink. *)

val events : t -> event list
(** Surviving events, oldest first. *)

val kind_name : kind -> string
(** The NDJSON ["event"] tag, e.g. ["request-failover"]. *)

val to_ndjson : t -> string
(** One JSON object per line — fixed field order [ts, event, request,
    node, ...] — terminated by an [eventlog-summary] line carrying the
    {!recorded}/{!dropped} totals.  Byte-deterministic for a fixed
    event sequence. *)
