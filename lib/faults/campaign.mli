(** Deterministic fault-injection campaigns over the full-system
    simulation: the Desim workload plus SEUs, load failures, device
    failures and flash read errors, with the recovery machinery
    (scrubbing, bounded retry, relocation) engaged end to end.

    A campaign runs on {!Desim.Simulate.run}'s loop, as a layer passed
    to it: the simulation issues the requests, negotiates them and
    counts their outcomes, and the campaign checks each retrieval
    against the live image, loads each non-bypass grant under fault
    injection, and schedules the device faults, scrub passes and SEUs.
    With every fault model off it reports exactly the simulation's
    requests, outcomes and event count.

    A campaign is a pure function of its {!spec}: every fault decision
    flows through one {!Injector} stream derived from the same seed as
    the workload — so the same seed and spec yield a byte-identical
    {!to_json} report. *)

type device_fault = {
  df_device_id : string;
  df_at_us : float;  (** Failure onset, in simulated microseconds. *)
  df_kind : [ `Transient of float | `Permanent ];
      (** [`Transient dur] restores the device [dur] us later. *)
}

type spec = {
  base : Desim.Simulate.spec;  (** Workload, devices, policy, seed. *)
  seu_mean_interval_us : float option;
      (** Mean of the Poisson SEU process; [None] disables upsets. *)
  scrub_period_us : float option;
      (** Scrubbing period; [None] disables scrubbing {e and} the
          retrieval-time readback check — corrupted retrievals then go
          undetected. *)
  reconfig_fail_prob : float;  (** Per-attempt bitstream-load failure. *)
  flash_error_prob : float;  (** Per-attempt repository read error. *)
  load_deadline_us : float option;
      (** When set, a first attempt whose setup time exceeds the
          deadline fails deterministically ([Load_deadline_exceeded]);
          retries are assumed to hit a warm flash path. *)
  max_retries : int;  (** Retries after the initial attempt. *)
  backoff : Backoff.policy;
      (** Delay before each retry.  The jitter draw comes from the
          campaign's injector stream; a jitter of 0 consumes no
          randomness, so jitter-free campaigns replay their exact fault
          schedule. *)
  device_faults : device_fault list;
}

val default_spec : unit -> spec
(** The {!Desim.Simulate.default_spec} workload with every fault model
    disabled — a campaign that must classify as {!Clean} — and 3
    retries under {!Backoff.default}. *)

type corruption = {
  seu_injected : int;
  scrub_runs : int;  (** Periodic scrub passes executed. *)
  scrub_repairs : int;  (** Golden reloads (periodic or readback). *)
  scrub_diagnostics : int;
      (** Error diagnostics {!Analysis.Image_check} raised over
          corrupted images. *)
  detected_retrievals : int;
      (** Retrievals that found the image corrupted and repaired it
          first (scrubbing on). *)
  undetected_retrievals : int;
      (** Retrievals that silently consumed a corrupted image
          (scrubbing off) — the paper's worst case. *)
}

type recovery = {
  failed_loads : int;
  flash_errors : int;
  bitstream_errors : int;
  deadline_misses : int;
  retries : int;
  recovered_loads : int;  (** Loads that succeeded after >= 1 retry. *)
  lost_allocations : int;  (** Loads abandoned after the last retry. *)
  mean_recovery_us : float;
      (** Mean accumulated backoff of recovered loads (MTTR of the
          reconfiguration path). *)
}

type degradation = {
  relocations : int;
  lost_tasks : int;
      (** Evicted tasks nothing could re-host — unrecovered loss. *)
  similarity_deltas : float list;
      (** Chronological; old score minus new score per relocation
          (positive = QoS degraded). *)
}

type availability = {
  av_device_id : string;
  av_failures : int;
  av_downtime_us : float;
  av_availability : float;  (** 1 - downtime / campaign duration. *)
  av_mttr_us : float;  (** Mean downtime per failure; 0 if none. *)
}

type report = {
  seed : int;
  duration_us : float;
  requests : int;
  grants : int;
  bypass_grants : int;
  refusals : int;
  events_fired : int;
  corruption : corruption;
  recovery : recovery;
  degradation : degradation;
  availability : availability list;  (** In [spec.base.devices] order. *)
  event_counts : (string * int) list;
      (** Manager event tally by kind, fixed order. *)
}

type verdict = Clean | Degraded_recovered | Unrecovered_loss

val verdict_to_string : verdict -> string
(** "clean", "degraded-recovered", "unrecovered-loss". *)

val classify : report -> verdict
(** {!Unrecovered_loss} on any lost allocation, lost task or
    undetected-corruption retrieval; {!Degraded_recovered} when faults
    occurred but every one was absorbed; {!Clean} otherwise. *)

val exit_code : report -> int
(** 0 / 1 / 2 for clean / degraded-but-recovered / unrecovered loss —
    the [qosalloc faults] CI contract. *)

val run : ?obs:Obs.Ctx.t -> spec -> report
(** [obs] instruments the simulation exactly as {!Desim.Simulate.run}
    does (the scrub, retry and relocation counters come from the
    manager's event tally) and adds per-device repair times in the
    [qosalloc_device_mttr_us] histogram.  Instrumentation never touches
    the injector or workload PRNGs, so the report — including its JSON
    rendering — is identical with or without it.

    @raise Invalid_argument when [scrub_period_us] or
    [seu_mean_interval_us] is non-finite or not positive. *)

val pp : Format.formatter -> report -> unit

val to_json : report -> string
(** Stable machine-readable rendering, one JSON document with a
    trailing newline; byte-identical across runs of the same spec. *)
