open Qos_core

type slo_spec = {
  slo_availability : float;
  slo_latency_us : float;
  slo_fast_window_us : float;
  slo_slow_window_us : float;
  slo_burn_threshold : float;
}

let default_slo ~availability ~latency_us =
  let d = Obs.Slo.default_spec in
  {
    slo_availability = availability;
    slo_latency_us = latency_us;
    slo_fast_window_us = d.Obs.Slo.fast_window_us;
    slo_slow_window_us = d.Obs.Slo.slow_window_us;
    slo_burn_threshold = d.Obs.Slo.burn_threshold;
  }

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
  heartbeat_period_us : float;
  suspect_phi : float;
  down_phi : float;
  breaker : Breaker.config;
  connect_timeout_us : float;
  min_service_us : float;
  resync_rate : float;
  min_availability : float;
  slo : slo_spec option;
  steal : Steal.policy;
  source : source;
  max_requests : int option;
  retain_requests : bool;
  load_scale : float;
}

let clock_mhz = 75.0

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
    heartbeat_period_us = 500.0;
    suspect_phi = 1.0;
    down_phi = 3.0;
    breaker = Breaker.default_config;
    connect_timeout_us = 100.0;
    min_service_us = 40.0;
    resync_rate = 0.01;
    min_availability = 0.99;
    slo = None;
    steal = Steal.default;
    source = Pregenerated;
    max_requests = None;
    retain_requests = true;
    load_scale = 1.0;
  }

type reason = Breaker_open | All_replicas_down | Saturated | Retries_exhausted

let reason_to_string = function
  | Breaker_open -> "breaker-open"
  | All_replicas_down -> "all-replicas-down"
  | Saturated -> "saturated"
  | Retries_exhausted -> "retries-exhausted"

let reason_index = function
  | Breaker_open -> 0
  | All_replicas_down -> 1
  | Saturated -> 2
  | Retries_exhausted -> 3

type response =
  | Full of { node : int; decision : Engine.decision }
  | Degraded of { stale_impl : int option; reason : reason }
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

let verdict_to_string = function
  | Clean -> "clean"
  | Degraded_recovered -> "degraded-recovered"
  | Unrecovered_loss -> "unrecovered-loss"

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

(* Worker [w] decides exactly the indices whose primary node [n] has
   [n mod jobs = w], so an engine instance is only ever driven from one
   domain and workers write disjoint indices of the shared array. *)
let compute_decisions sub (arrivals : (int * float * Request.t) array) ~jobs =
  let decisions =
    Array.make (Array.length arrivals)
      (Error (Engine.Engine_failure "unserved"))
  in
  let owner = Array.map (fun (_, _, request) -> primary sub request) arrivals in
  let jobs = max 1 jobs in
  let worker w () =
    Array.iteri
      (fun idx (_, _, request) ->
        if owner.(idx) mod jobs = w then decisions.(idx) <- decide sub request)
      arrivals
  in
  Array.iter Domain.join (Array.init jobs (fun w -> Domain.spawn (worker w)));
  decisions

(* --- sequential control phase ----------------------------------------------- *)

let service_us (spec : spec) (d : Engine.decision) =
  match d.Engine.cycles with
  | Some c -> Float.max spec.min_service_us (float_of_int c /. clock_mhz)
  | None -> spec.min_service_us

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

(* The report's counters and the saturation gauge, written into the
   registry once the run is over.  Only the latency, steal-latency and
   replication-lag histograms record samples while it runs. *)
let publish reg (r : report) ~failovers =
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
      count ~help:"Requests served at full QoS" "qosalloc_cluster_served_total"
        ns.ns_served;
      count ~help:"Requests shed from a saturated node"
        "qosalloc_cluster_shed_total" ns.ns_shed;
      count ~help:"Requests stolen onto this node as the victim"
        "qosalloc_cluster_stolen_total" ns.ns_stolen;
      count ~help:"Requests this overloaded node handed to a victim"
        "qosalloc_cluster_donated_total" ns.ns_donated;
      count ~help:"In-flight attempts failed over to a replica"
        "qosalloc_cluster_failover_total" failovers.(ns.ns_node);
      count ~help:"Circuit-breaker trips" "qosalloc_cluster_breaker_opens_total"
        ns.ns_breaker_opens;
      Obs.Metrics.set
        (Obs.Metrics.gauge reg ~labels
           ~help:"Peak in-flight service fraction per node"
           "qosalloc_cluster_node_saturation")
        (float_of_int ns.ns_peak_inflight /. float_of_int ns.ns_slots))
    r.per_node

(* The SLO trackers live independently of [?obs]: [--slo] must move the
   exit code even when nothing is exported. *)
type slo_tracker = {
  st_slo : Obs.Slo.t;
  st_name : string;
  st_good : response -> float -> bool;  (* response, latency_us *)
}

let make_slo_trackers (s : slo_spec) =
  let mk name =
    Obs.Slo.create
      {
        Obs.Slo.name;
        target = s.slo_availability;
        fast_window_us = s.slo_fast_window_us;
        slow_window_us = s.slo_slow_window_us;
        burn_threshold = s.slo_burn_threshold;
        min_samples = Obs.Slo.default_spec.Obs.Slo.min_samples;
      }
  in
  [
    {
      st_slo = mk "availability";
      st_name = "availability";
      st_good = (fun r _ -> match r with Full _ -> true | _ -> false);
    };
    {
      st_slo = mk "latency";
      st_name = "latency";
      st_good = (fun _ lat -> lat <= s.slo_latency_us);
    };
  ]

let run ?obs (spec : spec) =
  let ( let* ) = Result.bind in
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
  let is_down node t = Faults.Outages.is_down down.(node) t in
  let next_failure node t s =
    if is_down node t then Some (t +. spec.connect_timeout_us)
    else
      match Faults.Outages.next_down down.(node) t with
      | Some lo as next when lo <= t +. s -> next
      | Some _ | None -> None
  in
  let sim = Desim.Engine.create () in
  (match obs with
  | Some o -> Obs.Ctx.set_clock o (fun () -> Desim.Engine.now sim)
  | None -> ());
  let ev =
    match obs with Some o -> o.Obs.Ctx.events | None -> Obs.Events.noop ()
  in
  let tracer =
    match obs with Some o -> o.Obs.Ctx.tracer | None -> Obs.Tracer.noop ()
  in
  let histogram ~help ~buckets name =
    Option.map
      (fun o -> Obs.Metrics.histogram o.Obs.Ctx.registry ~help ~buckets name)
      obs
  in
  let observe h v =
    match h with Some h -> Obs.Metrics.observe h v | None -> ()
  in
  let latency_h =
    histogram ~help:"Request latency, arrival to response (us)"
      ~buckets:Obs.Metrics.latency_buckets_us "qosalloc_cluster_latency_us"
  in
  let steal_latency_h =
    histogram ~help:"Latency of stolen requests, arrival to response (us)"
      ~buckets:Obs.Metrics.latency_buckets_us
      "qosalloc_cluster_steal_latency_us"
  in
  let lag_h =
    histogram ~help:"Catch-up re-replication lag on rejoin (us)"
      ~buckets:Obs.Metrics.lag_buckets_us "qosalloc_cluster_replication_lag_us"
  in
  let observing = Obs.Events.enabled ev in
  let slos = match spec.slo with None -> [] | Some s -> make_slo_trackers s in
  let detector =
    Health.create ~period_us:spec.heartbeat_period_us
      ~suspect_phi:spec.suspect_phi ~down_phi:spec.down_phi ~nodes:spec.nodes
      ()
  in
  let breakers =
    Array.init spec.nodes (fun _ -> Breaker.create ~config:spec.breaker ())
  in
  let served = Array.make spec.nodes 0 in
  let shed = Array.make spec.nodes 0 in
  let stolen = Array.make spec.nodes 0 in
  let donated = Array.make spec.nodes 0 in
  let failovers = Array.make spec.nodes 0 in
  let resync_until = Array.make spec.nodes 0.0 in
  let resyncs = Array.make spec.nodes 0 in
  (* Last observed detector verdict / breaker state per node, so the
     event log carries transitions rather than a level sample per
     tick.  Both start in their creation state. *)
  let last_health = Array.make spec.nodes Health.Up in
  let last_breaker = Array.make spec.nodes Breaker.Closed in
  (* Breaker state changes on marks but also by cooldown expiry, so
     transitions are detected by observation: call at every point the
     ladder consults or updates a breaker. *)
  let sync_breaker node ~at =
    if observing then begin
      let st = Breaker.state breakers.(node) ~at in
      if st <> last_breaker.(node) then begin
        Obs.Events.record ev ~ts:at ~node
          (Obs.Events.Breaker_transition
             {
               prev = Breaker.state_to_string last_breaker.(node);
               next = Breaker.state_to_string st;
             });
        last_breaker.(node) <- st
      end
    end
  in
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
    let t = float_of_int k *. spec.heartbeat_period_us in
    Array.iteri
      (fun node _ ->
        if not (is_down node t) then begin
          Health.beat detector ~node ~at:t;
          incr heartbeats
        end;
        if observing then begin
          let st = Health.status detector ~node ~at:t in
          if st <> last_health.(node) then begin
            Obs.Events.record ev ~ts:t ~node
              (Obs.Events.Node_transition
                 {
                   prev = Health.status_to_string last_health.(node);
                   next = Health.status_to_string st;
                 });
            last_health.(node) <- st
          end
        end)
      served;
    let next = float_of_int (k + 1) *. spec.heartbeat_period_us in
    if next <= spec.duration_us then
      Desim.Engine.schedule_at sim ~time:next (scan (k + 1))
  in
  if spec.heartbeat_period_us <= spec.duration_us then
    Desim.Engine.schedule_at sim ~time:spec.heartbeat_period_us (scan 1);
  (* Rejoin after a transient outage: the node re-replicates what it
     missed before taking traffic again. *)
  Array.iteri
    (fun node (d : Faults.Outages.down_table) ->
      Array.iter
        (fun hi ->
          if Float.is_finite hi then
            Desim.Engine.schedule_at sim ~time:hi (fun _ ->
                let entries = (Substrate.node sub node).Substrate.entries in
                let lag = float_of_int entries /. spec.resync_rate in
                resync_until.(node) <- hi +. lag;
                resyncs.(node) <- resyncs.(node) + 1;
                if observing then
                  Obs.Events.record ev ~ts:hi ~node
                    (Obs.Events.Node_rejoin { resync_lag_us = lag });
                observe lag_h lag))
        d.Faults.Outages.ends)
    down;
  (* Per-request degradation ladder. *)
  let start_request idx ~app ~t0 ~(request : Request.t) ~decision =
    let type_id = request.Request.type_id in
    if retain then begin
      Vec.push outcomes None;
      Vec.push meta (app, type_id, t0)
    end;
    if observing then
      Obs.Events.record ev ~ts:t0 ~request:idx
        (Obs.Events.Request_admitted { app; type_id });
    let respond r =
      let now = Desim.Engine.now sim in
      if retain then Vec.set outcomes idx (retained r);
      let lat = now -. t0 in
      Workload.Stats.add lat_acc lat;
      lat_sum := !lat_sum +. lat;
      if lat > !lat_max then lat_max := lat;
      (match r with
      | Full { node; decision } ->
          incr full_c;
          if observing then
            Obs.Events.record ev ~ts:now ~request:idx ~node
              (Obs.Events.Request_completed
                 {
                   at_node = node;
                   impl_id = decision.Engine.impl_id;
                   latency_us = lat;
                 })
      | Degraded { stale_impl; reason } ->
          incr degraded_c;
          reason_counts.(reason_index reason) <-
            reason_counts.(reason_index reason) + 1;
          if observing then
            Obs.Events.record ev ~ts:now ~request:idx
              (Obs.Events.Request_degraded
                 { reason = reason_to_string reason; stale_impl })
      | Failed msg ->
          incr failed_c;
          if observing then
            Obs.Events.record ev ~ts:now ~request:idx
              (Obs.Events.Request_failed { error = msg }));
      observe latency_h lat;
      (* Overlapping requests forbid B/E nesting; X events carry their
         own extent and Perfetto nests them by time containment. *)
      if Obs.Tracer.enabled tracer then
        Obs.Tracer.complete tracer ~ts:t0 ~dur:lat
          ~args:
            [
              ("request", string_of_int idx);
              ("app", app);
              ("outcome", response_tag r);
            ]
          "request";
      List.iter
        (fun st ->
          match
            Obs.Slo.record st.st_slo ~at:now ~good:(st.st_good r lat)
          with
          | None -> ()
          | Some al ->
              if observing then
                Obs.Events.record ev ~ts:now
                  (Obs.Events.Slo_alert
                     {
                       objective = st.st_name;
                       state =
                         Obs.Slo.transition_to_string
                           al.Obs.Slo.al_transition;
                       burn_fast = al.Obs.Slo.al_burn_fast;
                       burn_slow = al.Obs.Slo.al_burn_slow;
                     }))
        slos
    in
    match decision with
    | Error e -> respond (Failed (Engine.error_to_string e))
    | Ok decision ->
        let replicas = Substrate.replicas_for sub ~type_id in
        let rec round attempt _e =
          let now = Desim.Engine.now sim in
          let tq = query_time now in
          let saw_breaker = ref false in
          let saw_down = ref false in
          let saw_saturated = ref false in
          (* Skip detector-down / re-syncing / breaker-open replicas;
             suspects stay eligible but go to the back of the line. *)
          let ups, suspects =
            List.fold_left
              (fun (ups, sus) node ->
                sync_breaker node ~at:now;
                match Health.status detector ~node ~at:tq with
                | Health.Down ->
                    saw_down := true;
                    (ups, sus)
                | _ when now < resync_until.(node) ->
                    saw_down := true;
                    (ups, sus)
                | _ when not (Breaker.allows breakers.(node) ~at:now) ->
                    saw_breaker := true;
                    (ups, sus)
                | Health.Suspect -> (ups, node :: sus)
                | Health.Up -> (node :: ups, sus))
              ([], []) replicas
          in
          let candidates = List.rev ups @ List.rev suspects in
          let rec try_candidates = function
            | [] ->
                if attempt < spec.max_retries then begin
                  incr retries;
                  let u =
                    if spec.backoff.Faults.Backoff.jitter > 0.0 then
                      Faults.Injector.uniform retry_inj
                    else 0.5
                  in
                  let delay = Faults.Backoff.delay spec.backoff ~attempt ~u in
                  if observing then
                    Obs.Events.record ev ~ts:(Desim.Engine.now sim)
                      ~request:idx
                      (Obs.Events.Request_retry { attempt; delay_us = delay });
                  Desim.Engine.schedule sim ~delay (round (attempt + 1))
                end
                else
                  let reason =
                    if !saw_saturated then Saturated
                    else if !saw_breaker then Breaker_open
                    else if !saw_down then All_replicas_down
                    else Retries_exhausted
                  in
                  respond
                    (Degraded
                       { stale_impl = Some decision.Engine.impl_id; reason })
            | node :: rest -> dispatch node rest
          (* Serve on [node] (possibly a steal victim); on an outage
             mid-flight, fail over to the remaining candidates. *)
          and execute ~node ~stolen rest =
            let now = Desim.Engine.now sim in
            (match Breaker.state breakers.(node) ~at:now with
            | Breaker.Half_open -> Breaker.mark_probe breakers.(node)
            | _ -> ());
            Substrate.acquire sub ~node;
            let s =
              service_us spec decision
              +.
              match stolen with
              | Some p when p.Steal.resync ->
                  spec.steal.Steal.transfer_penalty_us
              | _ -> 0.0
            in
            let attempt_span outcome ~until =
              if Obs.Tracer.enabled tracer then
                Obs.Tracer.complete tracer ~ts:now ~dur:(until -. now)
                  ~args:
                    [
                      ("request", string_of_int idx);
                      ("node", string_of_int node);
                      ("outcome", outcome);
                    ]
                  "attempt"
            in
            match next_failure node now s with
            | None ->
                Desim.Engine.schedule sim ~delay:s (fun _ ->
                    let tdone = Desim.Engine.now sim in
                    Substrate.release sub ~node;
                    Breaker.record_success breakers.(node) ~at:tdone;
                    sync_breaker node ~at:tdone;
                    served.(node) <- served.(node) + 1;
                    if Option.is_some stolen then
                      observe steal_latency_h (tdone -. t0);
                    attempt_span "ok" ~until:tdone;
                    respond (Full { node; decision }))
            | Some tf ->
                (* The outage kills this attempt in flight: fail
                   over to the next replica at the failure time. *)
                Desim.Engine.schedule_at sim ~time:tf (fun _ ->
                    Substrate.release sub ~node;
                    Breaker.record_failure breakers.(node) ~at:tf;
                    sync_breaker node ~at:tf;
                    failovers.(node) <- failovers.(node) + 1;
                    if observing then
                      Obs.Events.record ev ~ts:tf ~request:idx ~node
                        (Obs.Events.Request_failover { from_node = node });
                    attempt_span "failover" ~until:tf;
                    try_candidates rest)
          and dispatch node rest =
            let now = Desim.Engine.now sim in
            let inflight_n, slots = Substrate.load sub ~node in
            let steal_pick =
              if
                spec.steal.Steal.enabled
                && Steal.overloaded spec.steal ~inflight:inflight_n ~slots
              then begin
                let eligible v =
                  sync_breaker v ~at:now;
                  Health.status detector ~node:v ~at:tq = Health.Up
                  && now >= resync_until.(v)
                  && Breaker.allows breakers.(v) ~at:now
                in
                let pick =
                  Steal.select spec.steal ~salt:idx ~donor:node ~replicas
                    ~members:(Substrate.members sub) ~eligible
                    ~load:(fun v -> Substrate.load sub ~node:v)
                    ~holds:(fun v -> Substrate.holds sub ~node:v ~type_id)
                in
                (match pick with
                | Some p ->
                    incr steals;
                    donated.(node) <- donated.(node) + 1;
                    stolen.(p.Steal.victim) <- stolen.(p.Steal.victim) + 1;
                    if observing then
                      Obs.Events.record ev ~ts:now ~request:idx ~node
                        (Obs.Events.Request_steal
                           {
                             from_node = node;
                             to_node = Some p.Steal.victim;
                             scope = Steal.scope_to_string p.Steal.scope;
                           })
                | None ->
                    incr steal_denials;
                    if observing then
                      Obs.Events.record ev ~ts:now ~request:idx ~node
                        (Obs.Events.Request_steal
                           { from_node = node; to_node = None; scope = "denied" }));
                pick
              end
              else None
            in
            match steal_pick with
            | Some p -> execute ~node:p.Steal.victim ~stolen:(Some p) rest
            | None ->
                if inflight_n >= slots then begin
                  (* Saturated: shed towards the next replica instead
                     of queueing behind the full node. *)
                  saw_saturated := true;
                  shed.(node) <- shed.(node) + 1;
                  if observing then
                    Obs.Events.record ev ~ts:now ~request:idx ~node
                      (Obs.Events.Request_shed { at_node = node });
                  try_candidates rest
                end
                else execute ~node ~stolen:None rest
          in
          try_candidates candidates
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
  let slo_reports =
    List.map (fun st -> Obs.Slo.report st.st_slo ~at:end_ts) slos
  in
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
      jobs = max 1 spec.jobs;
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
          (fun r -> (reason_to_string r, reason_counts.(reason_index r)))
          [ Breaker_open; All_replicas_down; Saturated; Retries_exhausted ];
      per_node;
      mean_latency_us =
        (if n_req = 0 then 0.0 else !lat_sum /. float_of_int n_req);
      max_latency_us = !lat_max;
      latency = Workload.Stats.finalize lat_acc;
      outcomes = outcomes_arr;
      request_meta = Vec.to_array meta;
      slo = slo_reports;
    }
  in
  Option.iter (fun o -> publish o.Obs.Ctx.registry report ~failovers) obs;
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
            (reason_to_string reason)
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
