open Qos_core

type slo_spec = { slo_availability : float; slo_latency_us : float }

type source = Pregenerated | Stream

let source_to_string = function
  | Pregenerated -> "pregenerated"
  | Stream -> "stream"

type spec = {
  duration_us : float;
  seed : int;
  nodes : int;
  replication : int;
  fault_domains : int;
  vnodes : int;
  jobs : int;
  engine_name : string;
  engine : Engine.factory;
  apps : Desim.Apps.profile list;
  casebase : Casebase.t;
  outage : Faults.Outages.spec;
  backoff : Faults.Backoff.policy;
  max_retries : int;
  slo : slo_spec option;
  steal : Steal.policy;
  source : source;
  max_requests : int option;
  retain_requests : bool;
  load_scale : float;
}

let max_jobs = 127
let heartbeat_period_us = 500.0
let min_service_us = 40.0
let resync_rate = 0.01

let default_spec () =
  let engine =
    match Engines.of_name "native" with
    | Ok f -> f
    | Error e -> failwith e (* the registry always has native *)
  in
  {
    duration_us = 200_000.0;
    seed = 42;
    nodes = 6;
    replication = 3;
    fault_domains = 3;
    vnodes = 64;
    jobs = 1;
    engine_name = "native";
    engine;
    apps = Desim.Apps.standard_apps;
    casebase = Desim.Apps.reference_casebase;
    outage = Faults.Outages.default_spec;
    backoff = Faults.Backoff.default;
    (* Five rounds at the default policy is a ~6 ms envelope — enough
       to outlast a typical transient bounce plus the detector beat and
       the rejoin re-replication before answering degraded. *)
    max_retries = 5;
    slo = None;
    steal = Steal.default;
    source = Pregenerated;
    max_requests = None;
    retain_requests = true;
    load_scale = 1.0;
  }

let reason_index = function
  | Ladder.Breaker_open -> 0
  | Ladder.All_replicas_down -> 1
  | Ladder.Saturated -> 2
  | Ladder.Retries_exhausted -> 3

type response =
  | Full of { node : int; decision : Engine.decision }
  | Degraded of { stale_impl : int option; reason : Ladder.reason }
  | Failed of string

let response_tag = function
  | Full _ -> "full"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

type node_stats = {
  ns_node : int;
  ns_domain : int;
  ns_types : int;
  ns_entries : int;
  ns_slots : int;
  ns_served : int;
  ns_shed : int;
  ns_stolen : int;
  ns_donated : int;
  ns_peak_inflight : int;
  ns_breaker_opens : int;
  ns_downtime_us : float;
  ns_resyncs : int;
  ns_end_status : Health.status;
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
  availability : float;
  failovers : int;
  retries : int;
  sheds : int;
  steals : int;
  steal_denials : int;
  outage_events : int;
  heartbeats : int;
  degraded_reasons : (string * int) list;
  per_node : node_stats list;
  mean_latency_us : float;
  max_latency_us : float;
  latency : Workload.Stats.summary option;
  outcomes : response array;
  request_meta : (string * int * float) array;
  slo : Obs.Slo.report list;
}

type verdict = Clean | Degraded_recovered | Unrecovered_loss

let classify ~min_availability r =
  if
    r.failed > 0
    || r.availability < min_availability
    || List.exists (fun s -> not s.Obs.Slo.r_met) r.slo
  then Unrecovered_loss
  else if
    r.degraded > 0 || r.failovers > 0 || r.sheds > 0 || r.retries > 0
    || r.steals > 0 || r.outage_events > 0
  then Degraded_recovered
  else Clean

let exit_code ~min_availability r =
  match classify ~min_availability r with
  | Clean -> 0
  | Degraded_recovered -> 1
  | Unrecovered_loss -> 2

(* --- workload generation ---------------------------------------------------- *)

let scaled_apps (spec : spec) =
  if spec.load_scale = 1.0 then spec.apps
  else if spec.load_scale <= 0.0 then
    invalid_arg "Serve: load_scale must be > 0"
  else
    List.map
      (fun (p : Desim.Apps.profile) ->
        { p with Desim.Apps.period_us = p.Desim.Apps.period_us /. spec.load_scale })
      spec.apps

(* Expand the seed into the merged arrival stream plus the two injector
   seeds.  App streams split first, in apps order — the same discipline
   as [Faults.Campaign] — then outages, then retry jitter.  The per-app
   sources are live: building them costs O(apps), and each pull draws
   exactly the rng values a full expansion would.  [Workload.Stream]
   merges them by (time, app index), per-source order preserved. *)
let arrival_stream (spec : spec) =
  let root = Workload.Prng.create ~seed:spec.seed in
  let sources =
    List.map
      (fun (p : Desim.Apps.profile) ->
        ( p.Desim.Apps.app_id,
          Desim.Apps.arrival_source p ~rng:(Workload.Prng.split root)
            ~horizon:spec.duration_us ))
      (scaled_apps spec)
  in
  let outage_seed = Workload.Prng.int root ~bound:0x3FFFFFFF in
  let retry_seed = Workload.Prng.int root ~bound:0x3FFFFFFF in
  ( Array.of_list (List.map fst sources),
    Workload.Stream.create (List.map snd sources),
    outage_seed,
    retry_seed )

let workload spec =
  let names, stream, _, _ = arrival_stream spec in
  Array.of_list
    (List.map
       (fun (src, t, request) -> (names.(src), t, request))
       (Workload.Stream.drain ?max_items:spec.max_requests stream))

(* --- decision phase --------------------------------------------------------- *)

let primary sub (request : Request.t) =
  match Substrate.replicas_for sub ~type_id:request.Request.type_id with
  | p :: _ -> p
  | [] -> 0 (* unreachable: route always returns members *)

(* Every request is retrieved on its primary replica's engine: a pure
   function of (node engine, request), so independent of [jobs] and of
   the arrival source. *)
let decide sub request =
  match (Substrate.node sub (primary sub request)).Substrate.engine with
  | None -> Error (Engine.Engine_failure "node hosts no types")
  | Some e -> e.Engine.retrieve request

(* [min jobs nodes] workers, so each owns at least one node: worker [w]
   decides exactly the indices whose primary node [n] has
   [n mod workers = w].  An engine instance is only ever driven from
   one domain and workers write disjoint indices of the shared array.
   Worker 0 runs on the calling domain, so one worker spawns none. *)
let compute_decisions sub (arrivals : (int * float * Request.t) array) ~jobs =
  let decisions =
    Array.make (Array.length arrivals)
      (Error (Engine.Engine_failure "unserved"))
  in
  let workers = min jobs (Array.length sub.Substrate.nodes) in
  let owner = Array.map (fun (_, _, request) -> primary sub request) arrivals in
  let worker w () =
    Array.iteri
      (fun idx (_, _, request) ->
        if owner.(idx) mod workers = w then
          decisions.(idx) <- decide sub request)
      arrivals
  in
  let spawned =
    Array.init (workers - 1) (fun w -> Domain.spawn (worker (w + 1)))
  in
  worker 0 ();
  Array.iter Domain.join spawned;
  decisions

(* --- sequential control phase ----------------------------------------------- *)

let service_us (d : Engine.decision) =
  match d.Engine.cycles with
  | Some c -> Float.max min_service_us (float_of_int c /. Engine.clock_mhz)
  | None -> min_service_us

(* Growable per-request storage, only populated when the spec retains
   requests; the streaming 1M+ bench runs with retention off so memory
   stays in the aggregates. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let grown = Array.make (max 16 (2 * Array.length v.data)) x in
      Array.blit v.data 0 grown 0 v.len;
      v.data <- grown
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let set v i x = v.data.(i) <- x
  let to_array v = Array.sub v.data 0 v.len
end

(* Every record a run makes goes through one observer, built once per
   run from [?obs] and [spec.slo]: the event log (with the node and
   breaker transition tracking), the request and attempt spans, the
   latency, steal-latency and replication-lag histograms, the SLO
   trackers and, at the end, the report's counters.  Without [?obs]
   its sinks are the no-op ones and no hook builds a payload.  It
   draws no PRNG value and reads no host clock. *)
module Observer = struct
  (* The SLO trackers live independently of [?obs]: [--slo] must move
     the exit code even when nothing is exported. *)
  type slo_tracker = {
    st_slo : Obs.Slo.t;
    st_name : string;
    st_good : response -> float -> bool;  (* response, latency_us *)
  }

  type t = {
    registry : Obs.Metrics.t option;
    ev : Obs.Events.t;
    observing : bool;
    tracer : Obs.Tracer.t;
    latency : Obs.Metrics.histogram option;
    steal_latency : Obs.Metrics.histogram option;
    lag : Obs.Metrics.histogram option;
    slos : slo_tracker list;
    (* Last observed detector verdict / breaker state per node, so the
       event log carries transitions rather than a level sample per
       tick.  Both start in their creation state. *)
    last_health : Health.status array;
    last_breaker : Breaker.state array;
  }

  let slo_trackers (s : slo_spec) =
    List.map
      (fun (name, good) ->
        let spec =
          { Obs.Slo.default_spec with Obs.Slo.name; target = s.slo_availability }
        in
        { st_slo = Obs.Slo.create spec; st_name = name; st_good = good })
      [
        ("availability", fun r _ -> match r with Full _ -> true | _ -> false);
        ("latency", fun _ lat -> lat <= s.slo_latency_us);
      ]

  let create ?obs ~nodes ~clock slo =
    let ev, tracer =
      match obs with
      | Some o ->
          Obs.Ctx.set_clock o clock;
          (o.Obs.Ctx.events, o.Obs.Ctx.tracer)
      | None -> (Obs.Events.noop (), Obs.Tracer.noop ())
    in
    let histogram ~help ~buckets name =
      Option.map
        (fun o -> Obs.Metrics.histogram o.Obs.Ctx.registry ~help ~buckets name)
        obs
    in
    let latency =
      histogram ~help:"Request latency, arrival to response (us)"
        ~buckets:Obs.Metrics.latency_buckets_us "qosalloc_cluster_latency_us"
    in
    let steal_latency =
      histogram ~help:"Latency of stolen requests, arrival to response (us)"
        ~buckets:Obs.Metrics.latency_buckets_us
        "qosalloc_cluster_steal_latency_us"
    in
    let lag =
      histogram ~help:"Catch-up re-replication lag on rejoin (us)"
        ~buckets:Obs.Metrics.lag_buckets_us
        "qosalloc_cluster_replication_lag_us"
    in
    {
      registry = Option.map (fun o -> o.Obs.Ctx.registry) obs;
      ev;
      observing = Obs.Events.enabled ev;
      tracer;
      latency;
      steal_latency;
      lag;
      slos = Option.fold ~none:[] ~some:slo_trackers slo;
      last_health = Array.make nodes Health.Up;
      last_breaker = Array.make nodes Breaker.Closed;
    }

  let observe h v = match h with Some h -> Obs.Metrics.observe h v | None -> ()

  (* Log a node's state only when it differs from the last one seen. *)
  let track t last to_string kind ~node ~at st =
    if st <> last.(node) then begin
      Obs.Events.record t.ev ~ts:at ~node
        (kind (to_string last.(node)) (to_string st));
      last.(node) <- st
    end

  let health t detector ~node ~at =
    if t.observing then
      track t t.last_health Health.status_to_string
        (fun prev next -> Obs.Events.Node_transition { prev; next })
        ~node ~at
        (Health.status detector ~node ~at)

  (* A breaker changes state on marks but also by cooldown expiry, so
     the ladder reports every point where it consults or marks one. *)
  let breaker t b ~node ~at =
    if t.observing then
      track t t.last_breaker Breaker.state_to_string
        (fun prev next -> Obs.Events.Breaker_transition { prev; next })
        ~node ~at (Breaker.state b ~at)

  let rejoin t ~node ~lag ~at =
    if t.observing then
      Obs.Events.record t.ev ~ts:at ~node
        (Obs.Events.Node_rejoin { resync_lag_us = lag });
    observe t.lag lag

  let admitted t idx ~app ~type_id ~at =
    if t.observing then
      Obs.Events.record t.ev ~ts:at ~request:idx
        (Obs.Events.Request_admitted { app; type_id })

  let retry t idx ~attempt ~delay ~at =
    if t.observing then
      Obs.Events.record t.ev ~ts:at ~request:idx
        (Obs.Events.Request_retry { attempt; delay_us = delay })

  (* A steal grant, or a denial when no victim had headroom. *)
  let steal t idx ~node pick ~at =
    if t.observing then begin
      let to_node, scope =
        match pick with
        | Some p -> (Some p.Steal.victim, Steal.scope_to_string p.Steal.scope)
        | None -> (None, "denied")
      in
      Obs.Events.record t.ev ~ts:at ~request:idx ~node
        (Obs.Events.Request_steal { from_node = node; to_node; scope })
    end

  let shed t idx ~node ~at =
    if t.observing then
      Obs.Events.record t.ev ~ts:at ~request:idx ~node
        (Obs.Events.Request_shed { at_node = node })

  let attempt_span t idx ~node ~since ~at outcome =
    if Obs.Tracer.enabled t.tracer then
      Obs.Tracer.complete t.tracer ~ts:since ~dur:(at -. since)
        ~args:
          [
            ("request", string_of_int idx);
            ("node", string_of_int node);
            ("outcome", outcome);
          ]
        "attempt"

  let served t idx ~node ~stolen ~t0 ~since ~at =
    if stolen then observe t.steal_latency (at -. t0);
    attempt_span t idx ~node ~since ~at "ok"

  let failover t idx ~node ~since ~at =
    if t.observing then
      Obs.Events.record t.ev ~ts:at ~request:idx ~node
        (Obs.Events.Request_failover { from_node = node });
    attempt_span t idx ~node ~since ~at "failover"

  let responded t idx ~app ~t0 ~at r =
    let lat = at -. t0 in
    if t.observing then begin
      let node, kind =
        match r with
        | Full { node; decision } ->
            ( Some node,
              Obs.Events.Request_completed
                {
                  at_node = node;
                  impl_id = decision.Engine.impl_id;
                  latency_us = lat;
                } )
        | Degraded { stale_impl; reason } ->
            ( None,
              Obs.Events.Request_degraded
                { reason = Ladder.reason_to_string reason; stale_impl } )
        | Failed msg -> (None, Obs.Events.Request_failed { error = msg })
      in
      Obs.Events.record t.ev ~ts:at ~request:idx ?node kind
    end;
    observe t.latency lat;
    (* Overlapping requests forbid B/E nesting; X events carry their
       own extent and Perfetto nests them by time containment. *)
    if Obs.Tracer.enabled t.tracer then
      Obs.Tracer.complete t.tracer ~ts:t0 ~dur:lat
        ~args:
          [
            ("request", string_of_int idx);
            ("app", app);
            ("outcome", response_tag r);
          ]
        "request";
    List.iter
      (fun st ->
        match Obs.Slo.record st.st_slo ~at ~good:(st.st_good r lat) with
        | Some al when t.observing ->
            Obs.Events.record t.ev ~ts:at
              (Obs.Events.Slo_alert
                 {
                   objective = st.st_name;
                   state =
                     Obs.Slo.transition_to_string al.Obs.Slo.al_transition;
                   burn_fast = al.Obs.Slo.al_burn_fast;
                   burn_slow = al.Obs.Slo.al_burn_slow;
                 })
        | Some _ | None -> ())
      t.slos

  let slo_reports t ~at =
    List.map (fun st -> Obs.Slo.report st.st_slo ~at) t.slos

  (* The report's counters and the saturation gauge, written into the
     registry once the run is over.  Only the histograms record
     samples while it runs. *)
  let publish t (r : report) ~failovers =
    match t.registry with
    | None -> ()
    | Some reg ->
        let count ?labels ~help name v =
          Obs.Metrics.inc_by (Obs.Metrics.counter reg ?labels ~help name) v
        in
        List.iter
          (fun (outcome, v) ->
            count ~help:"Cluster requests by outcome"
              ~labels:[ ("outcome", outcome) ]
              "qosalloc_cluster_requests_total" v)
          [ ("full", r.full); ("degraded", r.degraded); ("failed", r.failed) ];
        count ~help:"Backoff rounds scheduled" "qosalloc_cluster_retries_total"
          r.retries;
        count ~help:"Heartbeats observed by the detector"
          "qosalloc_cluster_heartbeats_total" r.heartbeats;
        count ~help:"Steal attempts that found no victim with headroom"
          "qosalloc_cluster_steal_denied_total" r.steal_denials;
        List.iter
          (fun ns ->
            let labels = [ ("node", string_of_int ns.ns_node) ] in
            let count = count ~labels in
            count ~help:"Requests served at full QoS"
              "qosalloc_cluster_served_total" ns.ns_served;
            count ~help:"Requests shed from a saturated node"
              "qosalloc_cluster_shed_total" ns.ns_shed;
            count ~help:"Requests stolen onto this node as the victim"
              "qosalloc_cluster_stolen_total" ns.ns_stolen;
            count ~help:"Requests this overloaded node handed to a victim"
              "qosalloc_cluster_donated_total" ns.ns_donated;
            count ~help:"In-flight attempts failed over to a replica"
              "qosalloc_cluster_failover_total" failovers.(ns.ns_node);
            count ~help:"Circuit-breaker trips"
              "qosalloc_cluster_breaker_opens_total" ns.ns_breaker_opens;
            Obs.Metrics.set
              (Obs.Metrics.gauge reg ~labels
                 ~help:"Peak in-flight service fraction per node"
                 "qosalloc_cluster_node_saturation")
              (float_of_int ns.ns_peak_inflight /. float_of_int ns.ns_slots))
          r.per_node
end

let run ?obs (spec : spec) =
  let ( let* ) = Result.bind in
  let* () =
    if spec.jobs < 1 || spec.jobs > max_jobs then
      Error
        (Printf.sprintf "serve: jobs must be in 1..%d, got %d" max_jobs
           spec.jobs)
    else Ok ()
  in
  let* sub =
    Substrate.create ~vnodes:spec.vnodes ~fault_domains:spec.fault_domains
      ~nodes:spec.nodes ~replication:spec.replication ~engine:spec.engine
      spec.casebase
  in
  let app_names, stream, outage_seed, retry_seed = arrival_stream spec in
  let outage_inj = Faults.Injector.create ~seed:outage_seed in
  let retry_inj = Faults.Injector.create ~seed:retry_seed in
  let events =
    Faults.Outages.generate outage_inj ~nodes:spec.nodes
      ~duration_us:spec.duration_us spec.outage
  in
  (* Ground-truth outage intervals; permanent kills never end, so the
     retry tail past the workload horizon still sees them down. *)
  let down =
    Array.init spec.nodes (fun node ->
        Faults.Outages.down_table events ~duration_us:Float.infinity ~node)
  in
  let sim = Desim.Engine.create () in
  let o =
    Observer.create ?obs ~nodes:spec.nodes
      ~clock:(fun () -> Desim.Engine.now sim)
      spec.slo
  in
  let detector =
    Health.create ~period_us:heartbeat_period_us ~nodes:spec.nodes ()
  in
  let breakers = Array.init spec.nodes (fun _ -> Breaker.create ()) in
  let served = Array.make spec.nodes 0 in
  let shed = Array.make spec.nodes 0 in
  let stolen = Array.make spec.nodes 0 in
  let donated = Array.make spec.nodes 0 in
  let failovers = Array.make spec.nodes 0 in
  let resync_until = Array.make spec.nodes 0.0 in
  let resyncs = Array.make spec.nodes 0 in
  let heartbeats = ref 0 in
  let retries = ref 0 in
  let steal_denials = ref 0 in
  let retain = spec.retain_requests in
  let outcomes : response option Vec.t = Vec.create () in
  (* A run gives few distinct answers (a few hundred over 500k
     chaos-steal requests), so the retained outcomes share one block
     per distinct response instead of keeping one per request. *)
  let distinct : (response, response option) Hashtbl.t = Hashtbl.create 256 in
  let retained r =
    match Hashtbl.find distinct r with
    | shared -> shared
    | exception Not_found ->
        let shared = Some r in
        Hashtbl.add distinct r shared;
        shared
  in
  let meta : (string * int * float) Vec.t = Vec.create () in
  let steals = ref 0 in
  let full_c = ref 0 in
  let degraded_c = ref 0 in
  let failed_c = ref 0 in
  let reason_counts = Array.make 4 0 in
  let lat_acc = Workload.Stats.create () in
  let lat_sum = ref 0.0 in
  let lat_max = ref 0.0 in
  (* The detector has nothing new to say after the last scheduled
     heartbeat scan, so queries from the retry tail clamp to the
     horizon instead of decaying every node to Down. *)
  let query_time t = Float.min t spec.duration_us in
  (* Heartbeat scans: every live node beats; dead nodes miss and their
     phi accrues. *)
  let rec scan k _e =
    let t = float_of_int k *. heartbeat_period_us in
    Array.iteri
      (fun node d ->
        if not (Faults.Outages.is_down d t) then begin
          Health.beat detector ~node ~at:t;
          incr heartbeats
        end;
        Observer.health o detector ~node ~at:t)
      down;
    let next = float_of_int (k + 1) *. heartbeat_period_us in
    if next <= spec.duration_us then
      Desim.Engine.schedule_at sim ~time:next (scan (k + 1))
  in
  if heartbeat_period_us <= spec.duration_us then
    Desim.Engine.schedule_at sim ~time:heartbeat_period_us (scan 1);
  (* Rejoin after a transient outage: the node re-replicates what it
     missed before taking traffic again. *)
  Array.iteri
    (fun node (d : Faults.Outages.down_table) ->
      Array.iter
        (fun hi ->
          if Float.is_finite hi then
            Desim.Engine.schedule_at sim ~time:hi (fun _ ->
                let entries = (Substrate.node sub node).Substrate.entries in
                let lag = float_of_int entries /. resync_rate in
                resync_until.(node) <- hi +. lag;
                resyncs.(node) <- resyncs.(node) + 1;
                Observer.rejoin o ~node ~lag ~at:hi))
        d.Faults.Outages.ends)
    down;
  (* What the ladder sees of a node at [now], for a round that queries
     the detector at [tq]; the observer notes the breaker state it
     read. *)
  let view_at ~now ~tq node =
    let b = breakers.(node) in
    Observer.breaker o b ~node ~at:now;
    {
      Ladder.status = Health.status detector ~node ~at:tq;
      resyncing = now < resync_until.(node);
      admits = Breaker.allows b ~at:now;
    }
  in
  let members = Substrate.members sub in
  let load node = Substrate.load sub ~node in
  let draw () = Faults.Injector.uniform retry_inj in
  let deny idx ~node ~at =
    incr steal_denials;
    Observer.steal o idx ~node None ~at
  in
  (* Per-request degradation ladder: the rungs decide, this applies. *)
  let start_request idx ~app ~t0 ~(request : Request.t) ~decision =
    let type_id = request.Request.type_id in
    if retain then begin
      Vec.push outcomes None;
      Vec.push meta (app, type_id, t0)
    end;
    Observer.admitted o idx ~app ~type_id ~at:t0;
    let respond r =
      let now = Desim.Engine.now sim in
      if retain then Vec.set outcomes idx (retained r);
      let lat = now -. t0 in
      Workload.Stats.add lat_acc lat;
      lat_sum := !lat_sum +. lat;
      if lat > !lat_max then lat_max := lat;
      (match r with
      | Full _ -> incr full_c
      | Degraded { reason; _ } ->
          incr degraded_c;
          let i = reason_index reason in
          reason_counts.(i) <- reason_counts.(i) + 1
      | Failed _ -> incr failed_c);
      Observer.responded o idx ~app ~t0 ~at:now r
    in
    match decision with
    | Error e -> respond (Failed (Engine.error_to_string e))
    | Ok decision ->
        let replicas = Substrate.replicas_for sub ~type_id in
        let holds node = Substrate.holds sub ~node ~type_id in
        let rec round attempt _e =
          let now = Desim.Engine.now sim in
          let tq = query_time now in
          let view node = view_at ~now ~tq node in
          advance ~tq (Ladder.round ~attempt ~view replicas)
        and advance ~tq w =
          let now = Desim.Engine.now sim in
          match
            Ladder.next spec.backoff ~max_retries:spec.max_retries ~draw w
          with
          | Ladder.Retry delay ->
              incr retries;
              Observer.retry o idx ~attempt:w.Ladder.attempt ~delay ~at:now;
              Desim.Engine.schedule sim ~delay (round (w.Ladder.attempt + 1))
          | Ladder.Degrade reason ->
              respond
                (Degraded { stale_impl = Some decision.Engine.impl_id; reason })
          | Ladder.Try (node, w) -> (
              let view node = view_at ~now ~tq node in
              match
                Ladder.place spec.steal ~salt:idx ~node ~replicas ~members
                  ~view ~load ~holds
              with
              | Ladder.Steal p ->
                  incr steals;
                  donated.(node) <- donated.(node) + 1;
                  stolen.(p.Steal.victim) <- stolen.(p.Steal.victim) + 1;
                  Observer.steal o idx ~node (Some p) ~at:now;
                  execute ~tq w ~node:p.Steal.victim ~stolen:(Some p)
              | Ladder.Serve { denied } ->
                  if denied then deny idx ~node ~at:now;
                  execute ~tq w ~node ~stolen:None
              | Ladder.Shed { denied } ->
                  if denied then deny idx ~node ~at:now;
                  shed.(node) <- shed.(node) + 1;
                  Observer.shed o idx ~node ~at:now;
                  advance ~tq (Ladder.shed w))
        and execute ~tq w ~node ~stolen =
          let now = Desim.Engine.now sim in
          let b = breakers.(node) in
          if Ladder.claims_probe (Breaker.state b ~at:now) then
            Breaker.mark_probe b;
          Substrate.acquire sub ~node;
          let s =
            service_us decision
            +.
            match stolen with
            | Some p when p.Steal.resync -> spec.steal.Steal.transfer_penalty_us
            | _ -> 0.0
          in
          match Ladder.kill_time down.(node) ~at:now ~service_us:s with
          | None ->
              Desim.Engine.schedule sim ~delay:s (fun _ ->
                  let tdone = Desim.Engine.now sim in
                  Substrate.release sub ~node;
                  Breaker.record_success b ~at:tdone;
                  Observer.breaker o b ~node ~at:tdone;
                  served.(node) <- served.(node) + 1;
                  Observer.served o idx ~node ~stolen:(Option.is_some stolen)
                    ~t0 ~since:now ~at:tdone;
                  respond (Full { node; decision }))
          | Some tf ->
              (* The outage kills this attempt in flight: fail over to
                 the next candidate at the failure time. *)
              Desim.Engine.schedule_at sim ~time:tf (fun _ ->
                  Substrate.release sub ~node;
                  Breaker.record_failure b ~at:tf;
                  Observer.breaker o b ~node ~at:tf;
                  failovers.(node) <- failovers.(node) + 1;
                  Observer.failover o idx ~node ~since:now ~at:tf;
                  advance ~tq w)
        in
        round 0 sim
  in
  (* One arrival feed for both sources: run the queue up to each
     arrival's timestamp, move the clock onto it and start the request
     there, so a same-time heartbeat or rejoin lands after it.
     [Pregenerated] drains the merge into an array first only so that
     the decisions can shard over [jobs]; [Stream] decides each pull
     with the same [decide]. *)
  let pull, decision =
    match spec.source with
    | Stream ->
        ( (fun () -> Workload.Stream.pull stream),
          fun _ request -> decide sub request )
    | Pregenerated ->
        let arrivals =
          Array.of_list
            (Workload.Stream.drain ?max_items:spec.max_requests stream)
        in
        let decisions = compute_decisions sub arrivals ~jobs:spec.jobs in
        let next = ref 0 in
        ( (fun () ->
            if !next = Array.length arrivals then None
            else begin
              incr next;
              Some arrivals.(!next - 1)
            end),
          fun idx _ -> decisions.(idx) )
  in
  let cap = Option.value spec.max_requests ~default:max_int in
  let rec feed idx =
    if idx >= cap then idx
    else
      match pull () with
      | None -> idx
      | Some (src, t, request) ->
          ignore (Desim.Engine.run_before sim ~time:t);
          Desim.Engine.advance sim ~time:t;
          start_request idx ~app:app_names.(src) ~t0:t ~request
            ~decision:(decision idx request);
          feed (idx + 1)
  in
  let n_req = feed 0 in
  (* Run to quiescence, not to the horizon: the retry tail of the last
     arrivals must resolve — every request answers, full or degraded. *)
  ignore (Desim.Engine.run sim);
  let* () =
    let answered = !full_c + !degraded_c + !failed_c in
    if answered <> n_req then
      Error
        (Printf.sprintf "serve: %d requests left unresolved" (n_req - answered))
    else Ok ()
  in
  let downtime node =
    let d = down.(node) in
    Array.fold_left ( +. ) 0.0
      (Array.map2
         (fun lo hi ->
           Float.max 0.0
             (Float.min spec.duration_us hi -. Float.min spec.duration_us lo))
         d.Faults.Outages.starts d.Faults.Outages.ends)
  in
  let per_node =
    List.init spec.nodes (fun i ->
        let node = Substrate.node sub i in
        {
          ns_node = i;
          ns_domain = node.Substrate.fault_domain;
          ns_types = List.length node.Substrate.hosted_types;
          ns_entries = node.Substrate.entries;
          ns_slots = node.Substrate.slots;
          ns_served = served.(i);
          ns_shed = shed.(i);
          ns_stolen = stolen.(i);
          ns_donated = donated.(i);
          ns_peak_inflight = node.Substrate.peak_inflight;
          ns_breaker_opens = Breaker.opens breakers.(i);
          ns_downtime_us = downtime i;
          ns_resyncs = resyncs.(i);
          ns_end_status =
            Health.status detector ~node:i ~at:spec.duration_us;
        })
  in
  let end_ts = Float.max spec.duration_us (Desim.Engine.now sim) in
  let outcomes_arr =
    if retain then
      Array.map
        (function Some r -> r | None -> Failed "unresolved")
        (Vec.to_array outcomes)
    else [||]
  in
  let report =
    {
      seed = spec.seed;
      duration_us = spec.duration_us;
      nodes = spec.nodes;
      replication = sub.Substrate.replication;
      fault_domains = spec.fault_domains;
      jobs = spec.jobs;
      engine_name = spec.engine_name;
      requests = n_req;
      full = !full_c;
      degraded = !degraded_c;
      failed = !failed_c;
      availability =
        (if n_req = 0 then 1.0 else float_of_int !full_c /. float_of_int n_req);
      failovers = Array.fold_left ( + ) 0 failovers;
      retries = !retries;
      sheds = Array.fold_left ( + ) 0 shed;
      steals = !steals;
      steal_denials = !steal_denials;
      outage_events = List.length events;
      heartbeats = !heartbeats;
      degraded_reasons =
        List.map
          (fun r -> (Ladder.reason_to_string r, reason_counts.(reason_index r)))
          [
            Ladder.Breaker_open;
            All_replicas_down;
            Saturated;
            Retries_exhausted;
          ];
      per_node;
      mean_latency_us =
        (if n_req = 0 then 0.0 else !lat_sum /. float_of_int n_req);
      max_latency_us = !lat_max;
      latency = Workload.Stats.finalize lat_acc;
      outcomes = outcomes_arr;
      request_meta = Vec.to_array meta;
      slo = Observer.slo_reports o ~at:end_ts;
    }
  in
  Observer.publish o report ~failovers;
  Ok report

(* --- rendering -------------------------------------------------------------- *)

(* [jobs] and the arrival source are deliberately absent: the rendering
   (and so the digest) is the cross-[jobs] and stream-vs-pregenerated
   determinism contract. *)
let results_to_string (r : report) =
  let buf = Buffer.create (96 * (r.requests + 16)) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "cluster-results v2\n";
  add "seed=%d duration_us=%.1f nodes=%d replication=%d domains=%d engine=%s\n"
    r.seed r.duration_us r.nodes r.replication r.fault_domains r.engine_name;
  add "requests=%d full=%d degraded=%d failed=%d availability=%.6f\n"
    r.requests r.full r.degraded r.failed r.availability;
  add
    "failovers=%d retries=%d sheds=%d steals=%d steal-denials=%d outages=%d \
     heartbeats=%d\n"
    r.failovers r.retries r.sheds r.steals r.steal_denials r.outage_events
    r.heartbeats;
  (match r.latency with
  | None -> ()
  | Some l ->
      add "latency mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f\n"
        l.Workload.Stats.mean l.Workload.Stats.p50 l.Workload.Stats.p90
        l.Workload.Stats.p95 l.Workload.Stats.p99 l.Workload.Stats.maximum);
  add "degraded:";
  List.iter (fun (k, v) -> add " %s=%d" k v) r.degraded_reasons;
  add "\n";
  List.iter
    (fun ns ->
      add
        "node %d: domain=%d types=%d entries=%d slots=%d served=%d shed=%d \
         stolen=%d donated=%d peak=%d opens=%d downtime_us=%.1f resyncs=%d \
         end=%s\n"
        ns.ns_node ns.ns_domain ns.ns_types ns.ns_entries ns.ns_slots
        ns.ns_served ns.ns_shed ns.ns_stolen ns.ns_donated ns.ns_peak_inflight
        ns.ns_breaker_opens ns.ns_downtime_us ns.ns_resyncs
        (Health.status_to_string ns.ns_end_status))
    r.per_node;
  Array.iteri
    (fun i o ->
      let app, type_id, at = r.request_meta.(i) in
      add "%4d app=%s type=%d t=%.3f " i app type_id at;
      (match o with
      | Full { node; decision } ->
          add "full node=%d impl=%d score=%d" node decision.Engine.impl_id
            (Fxp.Q15.to_raw decision.Engine.score)
      | Degraded { stale_impl; reason } ->
          add "degraded stale=%s reason=%s"
            (match stale_impl with Some i -> string_of_int i | None -> "-")
            (Ladder.reason_to_string reason)
      | Failed msg -> add "failed: %s" msg);
      add "\n")
    r.outcomes;
  Buffer.contents buf

let results_digest r = Digest.to_hex (Digest.string (results_to_string r))

let pp ppf (r : report) =
  Format.fprintf ppf
    "cluster serve: seed=%d nodes=%d replication=%d domains=%d jobs=%d \
     engine=%s@,"
    r.seed r.nodes r.replication r.fault_domains r.jobs r.engine_name;
  Format.fprintf ppf
    "requests=%d full=%d degraded=%d failed=%d availability=%.4f@," r.requests
    r.full r.degraded r.failed r.availability;
  Format.fprintf ppf
    "failovers=%d retries=%d sheds=%d steals=%d steal-denials=%d outages=%d \
     heartbeats=%d@,"
    r.failovers r.retries r.sheds r.steals r.steal_denials r.outage_events
    r.heartbeats;
  Format.fprintf ppf "latency mean=%.1fus max=%.1fus@," r.mean_latency_us
    r.max_latency_us;
  (match r.latency with
  | None -> ()
  | Some l -> Format.fprintf ppf "latency %a@," Workload.Stats.pp_summary l);
  List.iter
    (fun s ->
      Format.fprintf ppf
        "slo %s: target=%.4f attained=%.4f met=%b alerts=%d firing=%.0fus@,"
        s.Obs.Slo.r_spec.Obs.Slo.name s.Obs.Slo.r_spec.Obs.Slo.target
        s.Obs.Slo.r_attained s.Obs.Slo.r_met s.Obs.Slo.r_alerts_fired
        s.Obs.Slo.r_firing_us)
    r.slo;
  List.iter
    (fun ns ->
      Format.fprintf ppf
        "  node %d (domain %d): served=%d shed=%d stolen=%d donated=%d \
         downtime=%.0fus resyncs=%d breaker-opens=%d end=%s@,"
        ns.ns_node ns.ns_domain ns.ns_served ns.ns_shed ns.ns_stolen
        ns.ns_donated ns.ns_downtime_us ns.ns_resyncs ns.ns_breaker_opens
        (Health.status_to_string ns.ns_end_status))
    r.per_node;
  Format.fprintf ppf "digest=%s" (results_digest r)
