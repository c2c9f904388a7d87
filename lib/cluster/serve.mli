(** The [qosalloc serve] engine: a deterministic multi-node serving
    run under a seeded outage campaign.

    One run is three phases.

    {b Workload generation} expands the seed into per-application
    arrival sources: per-app PRNG streams are split from the root seed
    exactly as the fault campaign splits them, then two private
    injector streams are drawn — one for the outage schedule
    ({!Faults.Outages}), one for retry jitter.  The sources merge
    through [Workload.Stream] by (time, app index); the
    {!Pregenerated} source drains the merge into an array up front,
    the {!Stream} source pulls arrivals one at a time in O(apps)
    memory — both produce the identical arrival sequence.

    {b Decision computation} retrieves every request on its {e primary}
    replica's engine, through one pure call for both sources: a
    decision depends only on the node's sub-case-base, which hosts the
    full function type.  {!Pregenerated} makes that call before the
    control phase starts, across [min jobs nodes] workers so that each
    worker owns a node: worker [w] decides every request whose primary
    node [n] has [n mod workers = w], so each node's engine is driven
    by exactly one worker, and writes it into that request's
    submission-index slot.  Worker 0 runs on the calling domain and
    each other worker on a domain of its own, so [jobs = 1] spawns no
    domain and [jobs = 127] on 6 nodes spawns 5.  A worker whose nodes
    are no request's primary decides nothing.  {!Stream} makes it
    as each arrival is pulled.  Both then feed the arrivals to the
    control phase through the same pull loop: the event queue runs up
    to an arrival's timestamp and the request starts there.  Decisions
    and control order are therefore identical at any [jobs] and for
    either source.

    {b Control} replays the run on a single discrete-event clock:
    heartbeats feed the {!Health} detector, outages and rejoins (with
    catch-up re-replication lag) come from the seeded schedule, and
    each request walks the degradation ladder of {!Ladder} — skip
    detector-down / breaker-open / re-syncing replicas, deprioritise
    suspects, steal from an overloaded node to a less-loaded victim
    ({!Steal}), shed from saturated nodes, fail over in-flight work
    killed by an outage, back off with capped jittered retries, and
    finally answer {e degraded} with the stale decision rather than
    fail.  The rungs decide; [run] applies their answers — scheduling,
    slot accounting, breaker marks and counters — and hands every
    record to one observer.  Every control decision happens in
    deterministic event order, so the end-of-run report is
    byte-identical for a fixed seed at any [jobs] and for either
    arrival source.

    The detector, breaker, connect-timeout, resync and service-floor
    values are fixed constants, not spec fields: heartbeats every
    {!heartbeat_period_us}, the phi thresholds {!Health.suspect_phi}
    and {!Health.down_phi}, {!Breaker.default_config},
    {!Ladder.connect_timeout_us}, {!resync_rate} and
    {!min_service_us}. *)

type slo_spec = {
  slo_availability : float;  (** Target fraction, shared by both objectives. *)
  slo_latency_us : float;  (** A response slower than this is a bad event. *)
}
(** Both objectives use the windows and burn threshold of
    {!Obs.Slo.default_spec}. *)

type source =
  | Pregenerated
      (** Expand the whole arrival trace up front so the decisions can
          shard over [jobs]; the control phase then pulls from it. *)
  | Stream
      (** Pull arrivals on demand — O(apps) generation memory, same
          arrival sequence and byte-identical report. *)

val source_to_string : source -> string

type spec = {
  duration_us : float;
      (** Arrival horizon; the run itself continues until every request
          has answered. *)
  seed : int;  (** Root of every PRNG stream: arrivals, outages, jitter. *)
  nodes : int;
  replication : int;  (** Replicas per function type, clamped to [nodes]. *)
  fault_domains : int;  (** Node [i] sits in domain [i mod fault_domains]. *)
  vnodes : int;  (** Virtual nodes per node on the placement ring. *)
  jobs : int;
      (** Decision domains for the {!Pregenerated} source, in
          1..{!max_jobs}. *)
  engine_name : string;  (** Registry name, for the report. *)
  engine : Qos_core.Engine.factory;  (** Each node's retrieval engine. *)
  apps : Desim.Apps.profile list;  (** The application mix. *)
  casebase : Qos_core.Casebase.t;
  outage : Faults.Outages.spec;  (** The seeded kill-and-bounce campaign. *)
  backoff : Faults.Backoff.policy;  (** Delay between retry rounds. *)
  max_retries : int;  (** Backoff rounds before answering degraded. *)
  slo : slo_spec option;
      (** When set, an availability and a latency objective are tracked
          over the run with multi-window burn-rate alerting; a missed
          objective is an {!Unrecovered_loss}.  Tracking is independent
          of [?obs] — it must move the exit code even when nothing is
          exported. *)
  steal : Steal.policy;
      (** Work stealing between under- and over-saturated nodes;
          disabled by default.  Victim election is seeded and
          sim-time-deterministic, so reports stay byte-identical at
          any [jobs]. *)
  source : source;
  max_requests : int option;
      (** Stop after this many arrivals (the first N of the merged
          sequence, identical for either source). *)
  retain_requests : bool;
      (** Keep per-request outcomes/meta for {!results_to_string}.
          Equal outcomes share one value, so the array costs one word
          per request beyond the run's distinct answers.  Off, the run
          holds only aggregates — how the streaming bench reaches
          millions of requests; [report.outcomes] is then empty. *)
  load_scale : float;
      (** Divide every app's inter-arrival period by this factor;
          1.0 leaves the standard mix untouched. *)
}

val default_spec : unit -> spec
(** 200 ms, seed 42, 6 nodes in 3 fault domains, replication 3, 64
    virtual nodes, one decision domain, the four standard applications
    against the reference case base on the [native] engine, no
    outages, [Faults.Backoff.default] with 5 retries (a ~6 ms
    envelope, sized to outlast a typical transient bounce plus
    detector recovery and rejoin re-replication), no SLO, stealing
    disabled, pregenerated source, retention on, load scale 1. *)

val max_jobs : int
(** 127: the OCaml 5 runtime's 128-domain limit minus the main domain.
    {!run} refuses a [jobs] outside 1..[max_jobs]. *)

val heartbeat_period_us : float
(** 500 us: every live node beats at this period, and the detector
    expects it. *)

val min_service_us : float
(** 40 us: the service-time floor of an attempt, and the whole service
    time on an engine without a cycle model. *)

val resync_rate : float
(** 0.01 entries per us: the catch-up re-replication rate of a node
    rejoining after a transient outage. *)

type response =
  | Full of { node : int; decision : Qos_core.Engine.decision }
      (** Answered at full QoS by a live replica. *)
  | Degraded of { stale_impl : int option; reason : Ladder.reason }
      (** Answered from the stale decision, never dropped, because no
          replica could serve in time. *)
  | Failed of string  (** Engine error; never an availability event. *)

val response_tag : response -> string
(** ["full"], ["degraded"] or ["failed"] — the metric/span label. *)

type node_stats = {
  ns_node : int;
  ns_domain : int;
  ns_types : int;
  ns_entries : int;
  ns_slots : int;
  ns_served : int;
  ns_shed : int;  (** Saturation skips charged to this node. *)
  ns_stolen : int;  (** Requests this node served as a steal victim. *)
  ns_donated : int;  (** Requests this node handed off while overloaded. *)
  ns_peak_inflight : int;
  ns_breaker_opens : int;
  ns_downtime_us : float;  (** Ground-truth, clamped to the horizon. *)
  ns_resyncs : int;
  ns_end_status : Health.status;  (** Detector verdict at the horizon. *)
}

type report = {
  seed : int;
  duration_us : float;
  nodes : int;
  replication : int;
  fault_domains : int;
  jobs : int;
  engine_name : string;
  requests : int;
  full : int;
  degraded : int;
  failed : int;
  availability : float;  (** [full / requests]; 1.0 when no requests. *)
  failovers : int;  (** In-flight attempts killed by an outage. *)
  retries : int;  (** Backoff rounds entered. *)
  sheds : int;  (** Saturation skips, total. *)
  steals : int;  (** Requests handed to a steal victim, total. *)
  steal_denials : int;  (** Steal attempts that found no victim. *)
  outage_events : int;
  heartbeats : int;
  degraded_reasons : (string * int) list;  (** Fixed order, zeros kept. *)
  per_node : node_stats list;  (** Ascending node ID. *)
  mean_latency_us : float;  (** Arrival to response, over all answered. *)
  max_latency_us : float;
  latency : Workload.Stats.summary option;
      (** Latency distribution (percentiles) over all answered
          requests; [None] only when there were none. *)
  outcomes : response array;
      (** By submission index; empty when [retain_requests] was off. *)
  request_meta : (string * int * float) array;
      (** (app, type_id, arrival_us) by submission index; empty when
          [retain_requests] was off. *)
  slo : Obs.Slo.report list;
      (** One report per tracked objective; [[]] when [spec.slo] is
          [None]. *)
}

type verdict = Clean | Degraded_recovered | Unrecovered_loss

val classify : min_availability:float -> report -> verdict
(** {!Unrecovered_loss} on any [Failed] response, availability below
    the floor, or a missed SLO; {!Degraded_recovered} when outages,
    degraded answers or recovery actions (failovers, sheds, retries,
    steals) occurred but every request was answered; {!Clean}
    otherwise. *)

val exit_code : min_availability:float -> report -> int

val workload : spec -> (string * float * Qos_core.Request.t) array
(** The arrival trace — (app, arrival time, request) in submission
    order, honouring [max_requests] and [load_scale].  A pure function
    of the seed, apps and horizon; exposed for property tests and the
    bench harness. *)

val run : ?obs:Obs.Ctx.t -> spec -> (report, string) result
(** Every in-run record goes through one observer built from [obs] and
    [spec.slo].  With [obs], the request-latency, steal-latency and
    replication-lag histograms record each sample at the sim-time it
    happens.  The counters — requests by outcome, retries, heartbeats,
    steal denials, and per node served / shed / stolen / donated /
    failover / breaker opens — and the per-node saturation gauge
    ([peak_inflight / slots]) are the report's own figures, written
    into the registry once at the end of the run.  The control phase
    also records the request life cycle — including every steal and
    steal denial — node and breaker transitions, rejoins and SLO
    alerts into the context's event log, and emits one [X] span per
    request plus one per attempt hop into its tracer; the context's
    clock follows the control engine.  All of it happens in the
    sequential control phase, so every export is byte-identical at any
    [jobs] and for either source.  The observer draws no PRNG value
    and reads no host clock, so the report is identical with or
    without it; without [obs] and [spec.slo] it builds no payload. *)

val results_to_string : report -> string
(** Canonical plain-text rendering: run header, totals, latency
    percentiles, per-node table and one line per request in submission
    order.  Byte-identical for a fixed seed at any [jobs] and for
    either arrival source. *)

val results_digest : report -> string
(** MD5 hex of {!results_to_string} — the CI chaos-leg contract. *)

val pp : Format.formatter -> report -> unit
(** Human summary (no per-request lines). *)
