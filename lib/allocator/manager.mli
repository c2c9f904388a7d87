(** The function-allocation manager (Fig. 1, "Function-Allocation-
    Management" layer).

    For each application request it: checks the bypass-token cache;
    runs CBR retrieval for the n best variants above the acceptance
    threshold (Sec. 3); checks feasibility of each against current
    device load; optionally preempts strictly lower-priority tasks
    (the paper's previous work managed hardware tasks "with adaptive
    priorities"); and either grants a placement or returns the
    still-acceptable variants as an offer the application can react to
    (the QoS negotiation hook). *)

type policy = {
  threshold : float;
      (** Minimum acceptable global similarity (Sec. 3's rejection
          threshold). *)
  max_candidates : int;  (** How many n-best variants to consider. *)
  allow_preemption : bool;
  flash_read_us_per_word : float;
      (** Configuration-repository read cost, per 16-bit word. *)
}

val default_policy : policy
(** threshold 0.5, 4 candidates, preemption on, 0.02 us/word. *)

type task = private {
  task_id : int;
  app_id : string;
  type_id : int;
  impl_id : int;
  device_id : string;
  units : int;
  priority : int;  (** Higher preempts lower. *)
  score : float;  (** Similarity at grant time. *)
  extent : Placement.extent option;
      (** Column extent when the hosting device is fragmentation-
          modelled (see [placement_policy]); [None] otherwise. *)
}

type grant = {
  task : task;
  preempted : task list;
  setup_time_us : float;
      (** Placement cost (reconfiguration + repository read), plus the
          retrieval latency when modelled.  0 for bypass grants. *)
  retrieval_us : float;
      (** Retrieval-unit latency included in [setup_time_us]; 0 when
          not modelled or served via bypass. *)
  via_bypass : bool;
}

type offer = {
  offer_impl_id : int;
  offer_score : float;
  offer_target : Qos_core.Target.t;
}

type refusal =
  | Unknown_request of Qos_core.Retrieval.error
  | All_below_threshold of offer list
      (** Retrieval worked but nothing met the threshold; the scored
          variants are reported so the caller can decide to relax. *)
  | No_feasible of offer list
      (** Acceptable variants exist but none fits, even after allowed
          preemption; the offers support the negotiation loop. *)

type failure_cause =
  | Flash_read_error  (** The configuration repository read failed. *)
  | Bitstream_load_error  (** The bitstream transfer itself failed. *)
  | Load_deadline_exceeded
      (** The load did not complete within the campaign deadline. *)

val failure_cause_to_string : failure_cause -> string
(** "flash-read-error", "bitstream-load-error",
    "load-deadline-exceeded". *)

type event =
  | Granted of grant
  | Refused of { app_id : string; type_id : int; refusal : refusal }
  | Preempted_task of task
  | Released_task of task
  | Reconfig_failed of { failed_task : task; cause : failure_cause; attempt : int }
      (** A granted placement's bitstream load failed on [attempt]
          (1-based); the task is still resident pending retry or
          release. *)
  | Retried of { retried_task : task; attempt : int; backoff_us : float }
      (** A retry of the load was scheduled [backoff_us] later. *)
  | Relocated of { displaced : task; replacement : task; similarity_delta : float }
      (** A task evicted by a device failure was re-hosted elsewhere;
          [similarity_delta] = displaced score - replacement score
          (positive means QoS degraded). *)
  | Device_failed of { device_id : string; permanent : bool; evicted : task list }
  | Device_restored of { device_id : string }
  | Scrubbed of { corrupted_words : int; diagnostics : int }
      (** A scrubbing pass repaired the live image: how many words
          differed from the golden copy, and how many diagnostics the
          image check raised. *)

type t

val create :
  casebase:Qos_core.Casebase.t ->
  devices:Device.t list ->
  catalog:Catalog.t ->
  ?policy:policy ->
  ?placement_policy:Placement.policy ->
  ?obs:Obs.Ctx.t ->
  ?retrieval_engine:Qos_core.Engine.factory ->
  unit ->
  t
(** With [placement_policy] set, every FPGA-class device is modelled as
    a 1D column map ([Placement]): admission requires a {e contiguous}
    gap, preemption evicts until one appears, and tasks carry their
    column extent.  Without it (the default) devices are simple
    capacity counters.

    With [retrieval_engine], every non-bypass allocation also runs
    the engine it builds and charges the decision's cycles at
    [Engine.clock_mhz], so bypass tokens save measurable
    microseconds.  An engine that reports no cycle counts, or none at
    all (the default), models retrieval as free.

    With [obs] set, the manager resolves its setup-time and
    retrieval-latency histograms once, samples them per grant, and
    emits spans per allocation — "allocate" wrapping the whole
    decision, "placement" around the candidate loop,
    "retrieval"/"reconfigure" as duration events.  The event counters
    are written by {!publish}.  Without [obs] every instrumentation
    point costs one [option] match. *)

val obs : t -> Obs.Ctx.t option
(** The context passed at creation, for collaborators (negotiation)
    that span their own stages of the same allocation. *)

val allocate :
  t -> app_id:string -> ?priority:int -> Qos_core.Request.t
  -> (grant, refusal) result
(** Default priority 0. *)

val release : t -> task_id:int -> (task, string) result
(** Unloads the task and invalidates bypass tokens pointing at its
    variant if no other instance remains resident. *)

val release_app : t -> app_id:string -> int
(** Releases every task of the application; returns the count. *)

val tasks : t -> task list
val free_units : t -> device_id:string -> int option

val fragmentation : t -> device_id:string -> float option
(** Fragmentation of a column-mapped device ([Placement.fragmentation]);
    [None] for counter-managed devices. *)

val largest_gap : t -> device_id:string -> int option
(** Largest contiguous free extent of a column-mapped device. *)

val bypass_stats : t -> Bypass.stats

val device_available : t -> device_id:string -> bool
(** [false] while the device is marked failed (also [false] for an
    unknown id). *)

val fail_device :
  t -> device_id:string -> permanent:bool -> (task list, string) result
(** Marks the device failed and evicts its resident tasks (bypass
    tokens for their variants are invalidated, exactly as preemption
    does).  Returns the evicted tasks so the caller can relocate them;
    [Error] for an unknown device, [Ok []] when already down.
    [permanent] only annotates the {!Device_failed} event — transient
    recovery is the caller's {!restore_device} call. *)

val restore_device : t -> device_id:string -> bool
(** Ends a transient failure; [false] when the device was not down. *)

val relocate :
  t -> task:task -> Qos_core.Request.t -> (grant * float, refusal) result
(** Re-runs CBR retrieval for a task evicted by {!fail_device}: a
    plain {!allocate} under the task's app and priority (failed
    devices are never offered), accepting the next-best variant on a
    healthy device.  On success returns the grant and the similarity
    delta (old score - new score, the QoS-degradation metric) and
    pushes a {!Relocated} event. *)

val record_reconfig_failure :
  t -> task:task -> cause:failure_cause -> attempt:int -> unit
(** Push a {!Reconfig_failed} event — the fault engine owns the retry
    policy; the manager owns the event stream. *)

val record_retry : t -> task:task -> attempt:int -> backoff_us:float -> unit
val record_scrub : t -> corrupted_words:int -> diagnostics:int -> unit

val drain_events : t -> event list
(** Events since the last drain, oldest first. *)

val event_counts : t -> (string * int) list
(** Every event pushed since {!create}, counted once by kind, in fixed
    order: "granted", "refused", "preempted", "released",
    "reconfig-failed", "retried", "relocated", "device-failed",
    "device-restored", "scrubbed".  {!drain_events} does not reset it. *)

val publish : t -> unit
(** Adds the tally to the [obs] registry given at {!create}: the
    [qosalloc_alloc_events_total] counter by kind (hyphens become
    underscores in the [event] label), the bypass-grant counter and the
    scrubbed-word counter.  Call it once, at the end of a run; a no-op
    without [obs]. *)

val refusal_to_string : refusal -> string
val pp_task : Format.formatter -> task -> unit
val pp_grant : Format.formatter -> grant -> unit
