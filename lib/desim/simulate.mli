(** Full-system discrete-event simulation: applications issue
    QoS-constrained requests against the allocation manager running on
    a multi-device platform. *)

type spec = {
  duration_us : float;
  seed : int;
  devices : Allocator.Device.t list;
  policy : Allocator.Manager.policy;
  placement : Allocator.Placement.policy option;
      (** When set, FPGA devices are fragmentation-modelled (column
          maps, contiguous admission). *)
  collect_trace : bool;
      (** Record one {!Tracefile.row} per request in the report. *)
  casebase : Qos_core.Casebase.t;
  apps : Apps.profile list;
  max_negotiation_rounds : int;
  retrieval_engine : Qos_core.Engine.factory;
      (** Engine that models per-grant retrieval latency: the manager
          charges its cycles at [Engine.clock_mhz]. *)
}

val default_spec : unit -> spec
(** 200 ms of the Fig. 1 reference system under the four standard
    applications, seed 42, with the retrieval unit's latency modelled
    by [Rtlsim.Engine.factory] at the paper's 75 MHz clock. *)

type app_metrics = {
  requests : int;
  grants : int;
  bypass_grants : int;
  refusals : int;
  extra_rounds : int;  (** Negotiation rounds beyond the first. *)
  preemptions_suffered : int;
  similarity_sum : float;  (** Over grants, for averaging. *)
  setup_us_sum : float;
  energy_uj_sum : float;
      (** Scheduled task energy (units x device power density x hold
          time) in microjoules; bypass grants add none. *)
}

val empty_metrics : app_metrics

type report = {
  per_app : (string * app_metrics) list;  (** In [spec.apps] order. *)
  totals : app_metrics;
  events_fired : int;
  tasks_resident_at_end : int;
  bypass : Allocator.Bypass.stats;
  duration_us : float;
  trace : Tracefile.row list;  (** Empty unless [spec.collect_trace]. *)
  mean_utilization : (string * float) list;
      (** Per device, mean occupied fraction sampled at request
          arrivals; [spec.devices] order. *)
  event_counts : (string * int) list;
      (** The manager's event tally ({!Allocator.Manager.event_counts}). *)
}

type hooks = {
  on_outcome : Allocator.Negotiation.outcome -> unit;
      (** Sees each request's negotiation outcome, before its grant is
          loaded. *)
  load : Qos_core.Request.t -> Allocator.Manager.grant -> hold:float -> unit;
      (** Loads a non-bypass grant, given the request as the application
          issued it and the drawn hold time.  The default schedules the
          release [hold] later. *)
}

val run :
  ?obs:Obs.Ctx.t ->
  ?layer:(Allocator.Manager.t -> Engine.t -> Workload.Prng.t -> hooks) ->
  spec ->
  report
(** With [obs], the context's clock is re-pointed at the engine's
    sim-time, the manager is created instrumented (see
    {!Allocator.Manager.create}), every request is wrapped in a
    "request" span, the [qosalloc_sim_queue_depth] gauge samples the
    event-queue depth at each arrival, and {!Allocator.Manager.publish}
    writes the event counters at the end.  Instrumentation never reads
    the PRNGs, so the report is identical with or without it.

    [layer] runs a system on top of this one ([Faults.Campaign]): it is
    called once, after the per-application PRNG splits and after the
    arrival processes are scheduled, with the manager, the event engine
    and the root PRNG, and returns the {!hooks} every request then
    goes through. *)

val mean_similarity : app_metrics -> float
(** 0 when there were no grants. *)

val grant_rate : app_metrics -> float
(** Granted fraction of requests; 0 when there were none. *)

val pp_report : Format.formatter -> report -> unit
