(** Application models for the Fig. 1 system: an MP3 player, a video
    scaler, an automotive ECU function and a cruise controller, each
    issuing QoS-constrained function requests over time.

    Also provides the multimedia/automotive reference case base these
    applications request against.  Attribute dictionary (IDs shared
    with the paper example where applicable):
    1 bitwidth [8,32] - 2 processing mode [0,1] - 3 output mode [0,2] -
    4 sample rate [8,48] kS/s - 5 response latency class [1,1000] -
    6 power [10,5000] mW - 7 frame rate [5,60] fps -
    8 resolution class [1,16] - 9 error-rate class [0,100]. *)

val reference_schema : Qos_core.Attr.Schema.t

val reference_casebase : Qos_core.Casebase.t
(** Six function types (FIR equalizer, 1D-FFT, MP3 decode, video
    scaler, ECU control, cruise PID), 3 variants each across
    FPGA/DSP/GPP/ASIC targets. *)

(** One request shape an application issues. *)
type template = {
  t_type_id : int;
  t_constraints : (Qos_core.Attr.id * Qos_core.Attr.value * int * float) list;
      (** (attribute, nominal value, +/- jitter, weight). *)
}

type arrival = Periodic | Poisson

type profile = {
  app_id : string;
  priority : int;
  arrival : arrival;
  period_us : float;  (** Mean inter-request time. *)
  hold_us : float * float;  (** Uniform task-lifetime range. *)
  templates : template list;  (** Cycled round-robin. *)
}

val mp3_player : profile
val video_scaler : profile
val automotive_ecu : profile
val cruise_control : profile

val standard_apps : profile list
(** The four applications of Fig. 1. *)

type compiled
(** A template validated and quantised once: the request
    [Qos_core.Request.make] builds at the template's nominal values
    (clamped to [0, Attr.max_word]), with each constraint's nominal
    value, jitter and place in that request's ID order. *)

val compile : template -> (compiled, string) result
(** [Qos_core.Request.make] on the template's IDs and weights at the
    clamped nominal values, with its error verbatim: the only
    validation a template gets. *)

val draw : Workload.Prng.t -> compiled -> Qos_core.Request.t
(** One request from the template.  Each jittered constraint draws
    [Prng.int_in ~lo:(-jitter) ~hi:jitter] in the order the template
    lists its constraints; the value is clamped to the word range and
    set with [Request.with_values].  The result equals
    [Request.make] on the jittered, clamped values and leaves [rng]
    where that path leaves it.  A template with no jitter draws
    nothing and returns the same request every time, without
    allocating.  A compiled template holds the scratch its draws fill,
    so one domain at a time draws from it: each arrival source and
    each simulation compiles its own. *)

val instantiate : Workload.Prng.t -> template -> Qos_core.Request.t
(** {!compile} then {!draw}, for a one-off request.
    @raise Failure when {!compile} refuses the template. *)

val compile_templates : profile -> compiled array
(** The profile's templates compiled once, in profile order: what an
    arrival source and a simulation draw from.
    @raise Failure when {!compile} refuses a template. *)

val arrival_source :
  profile ->
  rng:Workload.Prng.t ->
  horizon:float ->
  unit ->
  (float * Qos_core.Request.t) option
(** Pull-based arrival source for one profile, shaped for
    [Workload.Stream]: each call draws the next inter-arrival gap and
    then the next template — exactly the draw order of the
    pregenerated expansion, so a given [rng] yields the identical
    timestamped sequence either way.  [None] once the next arrival
    would land at or past [horizon]; the source then stays exhausted
    and draws nothing further.

    The profile's templates are compiled ({!compile_templates}) when
    the source is built, so an invalid template fails there, not at its
    first arrival.  Only
    the built-in profiles and generated benchmark workloads make
    templates.
    @raise Failure when a template does not compile.
    @raise Invalid_argument when the profile has no templates. *)
