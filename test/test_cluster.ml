(* Cluster substrate: consistent-hash placement, the phi failure
   detector, circuit breakers, capped jittered backoff, seeded outage
   campaigns, and the serve run's robustness contract — zero
   unrecovered requests and a jobs-invariant report digest. *)

open Qos_core
module Ring = Cluster.Ring
module Health = Cluster.Health
module Breaker = Cluster.Breaker
module Substrate = Cluster.Substrate
module Steal = Cluster.Steal
module Ladder = Cluster.Ladder
module Serve = Cluster.Serve
module Backoff = Faults.Backoff
module Outages = Faults.Outages
module Injector = Faults.Injector
module Ev = Obs.Events

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let get = function Ok x -> x | Error e -> Alcotest.fail e

let six_nodes = List.init 6 (fun i -> (i, i mod 3))

(* --- ring ------------------------------------------------------------------ *)

let test_ring_route () =
  let ring = get (Ring.create ~nodes:six_nodes ()) in
  check_int "members" 6 (List.length (Ring.node_ids ring));
  let r = Ring.route ring ~key:3 ~replicas:3 in
  check_int "replica count" 3 (List.length r);
  check_int "distinct" 3 (List.length (List.sort_uniq compare r));
  check_bool "deterministic" true (Ring.route ring ~key:3 ~replicas:3 = r);
  check_int "oversubscribed walk returns everyone" 6
    (List.length (Ring.route ring ~key:3 ~replicas:99));
  Alcotest.check_raises "bad replicas"
    (Invalid_argument "Ring.route: replicas must be >= 1") (fun () ->
      ignore (Ring.route ring ~key:1 ~replicas:0))

let test_ring_domain_diversity () =
  (* Three domains, three replicas: every replica set must use each
     domain exactly once, so one rack outage never strands a type. *)
  let ring = get (Ring.create ~nodes:six_nodes ()) in
  for key = 1 to 50 do
    let domains =
      List.map
        (fun n -> Option.get (Ring.domain_of ring n))
        (Ring.route ring ~key ~replicas:3)
    in
    check_int
      (Printf.sprintf "key %d spans all domains" key)
      3
      (List.length (List.sort_uniq compare domains))
  done

let test_ring_spread () =
  let ring = get (Ring.create ~nodes:six_nodes ()) in
  let keys = List.init 100 (fun i -> i + 1) in
  let census = Ring.spread ring ~keys ~replicas:3 in
  check_int "census covers members" 6 (List.length census);
  check_int "every key counted once per replica" 300
    (List.fold_left (fun a (_, c) -> a + c) 0 census);
  List.iter
    (fun (node, count) ->
      check_bool (Printf.sprintf "node %d hosts something" node) true
        (count > 0))
    census

(* --- health ---------------------------------------------------------------- *)

let test_health_thresholds () =
  let h = Health.create ~period_us:500.0 ~nodes:2 () in
  Health.beat h ~node:0 ~at:1_000.0;
  check_bool "fresh beat is up" true
    (Health.status h ~node:0 ~at:1_100.0 = Health.Up);
  check_bool "phi is zero at the beat" true (Health.phi h ~node:0 ~at:1_000.0 = 0.0);
  (* suspect_phi 1.0 crosses at ~2.3 missed periods *)
  check_bool "late beats turn suspect" true
    (Health.status h ~node:0 ~at:(1_000.0 +. (2.5 *. 500.0)) = Health.Suspect);
  (* down_phi 3.0 crosses at ~6.9 missed periods *)
  check_bool "very late beats turn down" true
    (Health.status h ~node:0 ~at:(1_000.0 +. (8.0 *. 500.0)) = Health.Down);
  Health.beat h ~node:0 ~at:5_000.0;
  check_bool "a beat recovers the node" true
    (Health.status h ~node:0 ~at:5_100.0 = Health.Up);
  Health.beat h ~node:0 ~at:4_000.0;
  check_bool "beats never move time backwards" true
    (Health.last_beat h ~node:0 = 5_000.0)

(* --- breaker --------------------------------------------------------------- *)

let test_breaker_ladder () =
  let b =
    Breaker.create
      ~config:{ Breaker.failure_threshold = 3; cooldown_us = 1_000.0 }
      ()
  in
  Breaker.record_failure b ~at:10.0;
  Breaker.record_failure b ~at:20.0;
  check_bool "under threshold stays closed" true (Breaker.allows b ~at:25.0);
  Breaker.record_failure b ~at:30.0;
  check_bool "third consecutive failure opens" true
    (Breaker.state b ~at:31.0 = Breaker.Open);
  check_bool "open sheds" false (Breaker.allows b ~at:500.0);
  check_bool "cooldown expiry goes half-open" true
    (Breaker.state b ~at:1_031.0 = Breaker.Half_open);
  check_bool "half-open admits one probe" true (Breaker.allows b ~at:1_031.0);
  Breaker.mark_probe b;
  check_bool "probe slot taken" false (Breaker.allows b ~at:1_032.0);
  Breaker.record_failure b ~at:1_040.0;
  check_bool "failed probe re-opens" true
    (Breaker.state b ~at:1_041.0 = Breaker.Open);
  check_int "two trips recorded" 2 (Breaker.opens b);
  Breaker.record_success b ~at:2_100.0;
  check_bool "successful probe closes" true
    (Breaker.state b ~at:2_101.0 = Breaker.Closed && Breaker.allows b ~at:2_101.0)

(* --- backoff --------------------------------------------------------------- *)

let test_backoff_cap_and_jitter () =
  let p =
    { Backoff.base_us = 200.0; factor = 2.0; cap_us = 1_000.0; jitter = 0.25 }
  in
  let mid = { p with Backoff.jitter = 0.0 } in
  check_bool "attempt 0 is the base" true
    (Backoff.delay mid ~attempt:0 ~u:0.5 = 200.0);
  check_bool "attempt 2 is base*factor^2" true
    (Backoff.delay mid ~attempt:2 ~u:0.5 = 800.0);
  check_bool "the exponential is capped" true
    (Backoff.delay mid ~attempt:20 ~u:0.5 = 1_000.0);
  (* Jitter stays inside [capped*(1-j), capped*(1+j)). *)
  List.iter
    (fun u ->
      let d = Backoff.delay p ~attempt:20 ~u in
      check_bool
        (Printf.sprintf "jittered delay in bounds at u=%.2f" u)
        true
        (d >= 750.0 && d < 1_250.0))
    [ 0.0; 0.25; 0.5; 0.75; 0.999 ];
  check_bool "max_delay bounds the envelope" true
    (Backoff.max_delay p = 1_250.0);
  Alcotest.check_raises "jitter must stay below 1"
    (Invalid_argument "Backoff.delay: jitter must be in [0, 1)") (fun () ->
      ignore (Backoff.delay { p with Backoff.jitter = 1.0 } ~attempt:0 ~u:0.5))

(* --- outages --------------------------------------------------------------- *)

let outage_spec =
  {
    Outages.permanent_frac = 0.34;
    permanent_window = (0.2, 0.7);
    transient_mean_us = Some 20_000.0;
    transient_down_us = (1_000.0, 5_000.0);
  }

let test_outages_schedule () =
  let gen () =
    Outages.generate
      (Injector.create ~seed:5)
      ~nodes:6 ~duration_us:100_000.0 outage_spec
  in
  let events = gen () in
  check_bool "same seed, same schedule" true (events = gen ());
  let kills =
    List.filter (fun e -> e.Outages.ev_kind = `Permanent) events
  in
  check_int "floor(0.34 * 6) permanent kills" 2 (List.length kills);
  check_int "distinct victims" 2
    (List.length
       (List.sort_uniq compare (List.map (fun e -> e.Outages.ev_node) kills)));
  let times = List.map (fun e -> e.Outages.ev_at_us) events in
  check_bool "sorted by time" true (List.sort compare times = times);
  for node = 0 to 5 do
    let spans =
      Outages.down_intervals events ~duration_us:100_000.0 ~node
    in
    ignore
      (List.fold_left
         (fun prev (lo, hi) ->
           check_bool "interval well-formed" true (lo < hi);
           check_bool "intervals disjoint and sorted" true (lo > prev);
           hi)
         (-1.0) spans)
  done

let test_outages_bad_down_time () =
  let gen down =
    Outages.generate
      (Injector.create ~seed:5)
      ~nodes:6 ~duration_us:100_000.0
      { outage_spec with Outages.transient_down_us = down }
  in
  List.iter
    (fun down ->
      Alcotest.check_raises "bad down-time bound"
        (Invalid_argument
           "Outages.generate: transient down-times must be finite and >= 0")
        (fun () -> ignore (gen down)))
    [ (Float.nan, Float.nan); (1_000.0, Float.infinity); (-1.0, 5_000.0) ];
  check_bool "bounds unused with bounces off" true
    (Outages.generate
       (Injector.create ~seed:5)
       ~nodes:6 ~duration_us:100_000.0
       {
         Outages.default_spec with
         Outages.transient_down_us = (Float.nan, Float.nan);
       }
    = [])

(* --- substrate ------------------------------------------------------------- *)

let native = get (Engines.of_name "native")

let test_substrate_placement () =
  let cb = Desim.Apps.reference_casebase in
  let sub =
    get
      (Substrate.create ~nodes:6 ~replication:3 ~fault_domains:3 ~engine:native
         cb)
  in
  check_int "replication effective" 3 sub.Substrate.replication;
  let total_impls =
    List.fold_left
      (fun a (ft : Ftype.t) -> a + List.length ft.Ftype.impls)
      0 cb.Casebase.ftypes
  in
  let hosted_entries =
    Array.fold_left (fun a n -> a + n.Substrate.entries) 0 sub.Substrate.nodes
  in
  check_int "every entry hosted replication times" (3 * total_impls)
    hosted_entries;
  List.iter
    (fun (ft : Ftype.t) ->
      let replicas = Substrate.replicas_for sub ~type_id:ft.Ftype.id in
      check_int "replica set size" 3 (List.length replicas);
      List.iter
        (fun r ->
          let node = Substrate.node sub r in
          check_bool "replica hosts the type" true
            (List.mem ft.Ftype.id node.Substrate.hosted_types);
          check_bool "replica has an engine" true
            (node.Substrate.engine <> None))
        replicas)
    cb.Casebase.ftypes

(* A node's case base is the full one cut down to the types the ring
   places on it, under the name "<name>@n<k>": the case base
   [Casebase.make] builds from those types. *)
let test_substrate_sub_casebases () =
  List.iter
    (fun (cb : Casebase.t) ->
      let sub =
        get
          (Substrate.create ~nodes:6 ~replication:3 ~fault_domains:3
             ~engine:native cb)
      in
      Array.iter
        (fun (node : Substrate.node) ->
          let id = node.Substrate.node_id in
          let expect =
            get
              (Casebase.make
                 ~name:(Printf.sprintf "%s@n%d" cb.Casebase.name id)
                 ~schema:cb.Casebase.schema
                 (List.filter
                    (fun (ft : Ftype.t) ->
                      Substrate.holds sub ~node:id ~type_id:ft.Ftype.id)
                    cb.Casebase.ftypes))
          in
          check_bool
            (Printf.sprintf "%s node %d" cb.Casebase.name id)
            true
            (Casebase.equal expect node.Substrate.casebase))
        sub.Substrate.nodes)
    [
      Desim.Apps.reference_casebase;
      Workload.Generator.sized_casebase ~seed:11 ~types:15 ~impls:4 ~attrs:5;
    ]

(* --- ladder rungs ---------------------------------------------------------- *)

(* Each rung on its own, from hand-built views and loads: no run. *)

let up = { Ladder.status = Health.Up; resyncing = false; admits = true }
let suspect = { up with Ladder.status = Health.Suspect }
let no_skips = { Ladder.down = false; breaker = false; saturated = false }
let check_ints = Alcotest.(check (list int))

let test_ladder_skip () =
  let views =
    [|
      suspect;
      up;
      { up with Ladder.status = Health.Down };
      up;
      { up with Ladder.resyncing = true };
      { up with Ladder.admits = false };
      suspect;
    |]
  in
  let w =
    Ladder.round ~attempt:2 ~view:(Array.get views) [ 0; 1; 2; 3; 4; 5; 6 ]
  in
  check_ints "up replicas first, then suspects, in replica order"
    [ 1; 3; 0; 6 ] w.Ladder.pending;
  check_int "attempt kept" 2 w.Ladder.attempt;
  let skips v =
    (Ladder.round ~attempt:0 ~view:(fun _ -> v) [ 0 ]).Ladder.skips
  in
  let flags (s : Ladder.skips) =
    [ s.Ladder.down; s.Ladder.breaker; s.Ladder.saturated ]
  in
  let check_flags label expected v =
    Alcotest.(check (list bool)) label expected (flags (skips v))
  in
  check_flags "up skips nothing" [ false; false; false ] up;
  check_flags "suspect skips nothing" [ false; false; false ] suspect;
  check_flags "down sets down" [ true; false; false ]
    { up with Ladder.status = Health.Down };
  check_flags "resyncing sets down" [ true; false; false ]
    { up with Ladder.resyncing = true };
  check_flags "breaker-open sets breaker" [ false; true; false ]
    { suspect with Ladder.admits = false };
  check_flags "down counts before its breaker" [ true; false; false ]
    { Ladder.status = Health.Down; resyncing = false; admits = false };
  List.iter
    (fun v ->
      check_ints "a skipped replica is not a candidate" []
        (Ladder.round ~attempt:0 ~view:(fun _ -> v) [ 0 ]).Ladder.pending)
    [
      { up with Ladder.status = Health.Down };
      { up with Ladder.resyncing = true };
      { up with Ladder.admits = false };
    ]

let test_ladder_place () =
  (* Ten slots per node, so the 0.9 threshold overloads a node at 9 in
     flight.  Node 0 is the donor; nodes 1 and 2 are its replicas,
     node 3 holds another type. *)
  let policy = { Steal.default with Steal.enabled = true } in
  let inflight = [| 9; 2; 5; 0 |] in
  let views = Array.make 4 up in
  let place ?(policy = policy) node =
    Ladder.place policy ~salt:0 ~node ~replicas:[ 0; 1; 2 ]
      ~members:[ 0; 1; 2; 3 ] ~view:(Array.get views)
      ~load:(fun n -> (inflight.(n), 10))
      ~holds:(fun n -> n < 3)
  in
  let expect label want got =
    let show = function
      | Ladder.Serve { denied } -> Printf.sprintf "serve denied=%b" denied
      | Ladder.Shed { denied } -> Printf.sprintf "shed denied=%b" denied
      | Ladder.Steal p ->
          Printf.sprintf "steal to %d %s resync=%b" p.Steal.victim
            (Steal.scope_to_string p.Steal.scope)
            p.Steal.resync
    in
    Alcotest.(check string) label want (show got)
  in
  expect "an overloaded donor steals to its least-loaded replica"
    "steal to 1 replica resync=false" (place 0);
  views.(1) <- suspect;
  expect "a suspect is no victim" "steal to 2 replica resync=false" (place 0);
  views.(2) <- { up with Ladder.resyncing = true };
  expect "a resyncing node is no victim; the steal goes global"
    "steal to 3 global resync=true" (place 0);
  views.(3) <- { up with Ladder.admits = false };
  expect "a breaker that refuses bars the victim" "serve denied=true" (place 0);
  inflight.(0) <- 10;
  expect "without a victim a full node sheds" "shed denied=true" (place 0);
  let off = { policy with Steal.enabled = false } in
  expect "stealing off: a full node sheds" "shed denied=false"
    (place ~policy:off 0);
  inflight.(0) <- 9;
  expect "stealing off: a free slot serves" "serve denied=false"
    (place ~policy:off 0);
  expect "a node below the threshold serves" "serve denied=false" (place 1);
  check_bool "victim: up, past resync, admitted" true (Ladder.victim up)

let test_ladder_half_open () =
  check_bool "half-open claims the probe" true
    (Ladder.claims_probe Breaker.Half_open);
  check_bool "closed claims nothing" false (Ladder.claims_probe Breaker.Closed);
  check_bool "open claims nothing" false (Ladder.claims_probe Breaker.Open);
  let b =
    Breaker.create
      ~config:{ Breaker.failure_threshold = 1; cooldown_us = 100.0 }
      ()
  in
  Breaker.record_failure b ~at:0.0;
  check_bool "cooldown over: the probe slot is free" true
    (Breaker.allows b ~at:150.0);
  if Ladder.claims_probe (Breaker.state b ~at:150.0) then Breaker.mark_probe b;
  check_bool "serving marked the probe" false (Breaker.allows b ~at:150.0)

let test_ladder_failover () =
  let down =
    Outages.down_table
      [
        { Outages.ev_node = 0; ev_at_us = 1_000.0; ev_kind = `Transient 500.0 };
        { Outages.ev_node = 0; ev_at_us = 3_000.0; ev_kind = `Permanent };
      ]
      ~duration_us:Float.infinity ~node:0
  in
  let kill at = Ladder.kill_time down ~at ~service_us:40.0 in
  let check_kill label want at =
    Alcotest.(check (option (float 0.0))) label want (kill at)
  in
  check_kill "completes before the outage" None 900.0;
  check_kill "killed when the outage starts mid-service" (Some 1_000.0) 980.0;
  check_kill "a down node costs the connect timeout"
    (Some (1_200.0 +. Ladder.connect_timeout_us))
    1_200.0;
  check_kill "completes after the bounce" None 1_500.0;
  check_kill "a killed node stays down" (Some 3_600.0) 3_500.0;
  (* The walk: a killed attempt continues with the candidates left. *)
  let next =
    Ladder.next Backoff.default ~max_retries:5 ~draw:(fun () ->
        Alcotest.fail "no draw while candidates remain")
  in
  let w = Ladder.round ~attempt:0 ~view:(fun _ -> up) [ 4; 2; 5 ] in
  match next w with
  | Ladder.Try (4, w) -> (
      check_ints "the rest stay pending" [ 2; 5 ] w.Ladder.pending;
      match next w with
      | Ladder.Try (2, w) -> (
          match next w with
          | Ladder.Try (5, w) ->
              check_ints "every candidate tried" [] w.Ladder.pending
          | _ -> Alcotest.fail "the third candidate is next")
      | _ -> Alcotest.fail "failover goes to the second candidate")
  | _ -> Alcotest.fail "the first candidate is tried first"

let test_ladder_backoff () =
  let policy =
    { Backoff.base_us = 200.0; factor = 2.0; cap_us = 1_000.0; jitter = 0.0 }
  in
  let draws = ref 0 in
  let draw () =
    incr draws;
    0.25
  in
  let exhausted ?(policy = policy) attempt =
    Ladder.next policy ~max_retries:3 ~draw
      { Ladder.attempt; pending = []; skips = no_skips }
  in
  let delay = function
    | Ladder.Retry d -> d
    | Ladder.Try _ | Ladder.Degrade _ -> Alcotest.fail "expected a retry"
  in
  check_bool "attempt 0 backs off the base" true (delay (exhausted 0) = 200.0);
  check_bool "attempt 2 backs off base*factor^2" true
    (delay (exhausted 2) = 800.0);
  check_int "no jitter, no draw" 0 !draws;
  (match exhausted 3 with
  | Ladder.Degrade Ladder.Retries_exhausted -> ()
  | _ -> Alcotest.fail "at max_retries the request degrades");
  let jittered = { policy with Backoff.jitter = 0.5 } in
  check_bool "a jittered retry uses the draw" true
    (delay (exhausted ~policy:jittered 1)
    = Backoff.delay jittered ~attempt:1 ~u:0.25);
  check_int "one draw per jittered retry" 1 !draws;
  ignore (exhausted ~policy:jittered 3);
  check_int "degrading draws nothing" 1 !draws

let test_ladder_degrade_priority () =
  List.iter
    (fun (down, breaker, saturated, want) ->
      Alcotest.(check string)
        (Printf.sprintf "down=%b breaker=%b saturated=%b" down breaker
           saturated)
        (Ladder.reason_to_string want)
        (Ladder.reason_to_string
           (Ladder.degrade_reason { Ladder.down; breaker; saturated })))
    [
      (true, true, true, Ladder.Saturated);
      (false, false, true, Ladder.Saturated);
      (true, true, false, Ladder.Breaker_open);
      (false, true, false, Ladder.Breaker_open);
      (true, false, false, Ladder.All_replicas_down);
      (false, false, false, Ladder.Retries_exhausted);
    ];
  check_bool "a shed marks the walk saturated" true
    (Ladder.shed { Ladder.attempt = 0; pending = [ 1 ]; skips = no_skips })
      .Ladder.skips
      .Ladder.saturated

(* --- serve ----------------------------------------------------------------- *)

let spec ?(duration_us = 60_000.0) ?(seed = 7) ?(nodes = 6) ?(replication = 3)
    ?(jobs = 1) ?(outage = Outages.default_spec) () =
  let d = Serve.default_spec () in
  { d with Serve.duration_us; seed; nodes; replication; jobs; outage }

let test_serve_clean () =
  let s = spec ~duration_us:20_000.0 ~seed:42 () in
  let r = get (Serve.run s) in
  check_bool "has requests" true (r.Serve.requests > 0);
  check_int "all full" r.Serve.requests r.Serve.full;
  check_bool "availability 1.0" true (r.Serve.availability = 1.0);
  check_int "clean exit" 0 (Serve.exit_code ~min_availability:0.99 r);
  let again = get (Serve.run s) in
  check_bool "byte-identical rerun" true
    (String.equal (Serve.results_to_string r) (Serve.results_to_string again))

let test_serve_chaos_acceptance () =
  (* The ISSUE acceptance: a seeded campaign permanently killing 1/3 of
     the nodes and bouncing the rest must complete with every request
     answered (full or explicitly degraded), >= 99% full-QoS
     availability, and a report digest that is byte-identical at any
     --jobs. *)
  let run jobs =
    get (Serve.run (spec ~duration_us:200_000.0 ~seed:7 ~jobs ~outage:outage_spec ()))
  in
  let r1 = run 1 in
  check_bool "outages actually happened" true (r1.Serve.outage_events > 0);
  check_int "zero unrecovered requests" 0 r1.Serve.failed;
  check_int "every request answered" r1.Serve.requests
    (r1.Serve.full + r1.Serve.degraded);
  check_bool "availability >= 99%" true (r1.Serve.availability >= 0.99);
  check_bool "failovers exercised" true (r1.Serve.failovers > 0);
  check_bool "verdict at worst degraded-recovered" true
    (Serve.exit_code ~min_availability:0.99 r1 <= 1);
  let d1 = Serve.results_digest r1 in
  check_bool "digest invariant at jobs=3" true
    (String.equal d1 (Serve.results_digest (run 3)));
  check_bool "digest invariant at jobs=4" true
    (String.equal d1 (Serve.results_digest (run 4)));
  (* More jobs than the 6 nodes: one worker per node. *)
  check_bool "digest invariant at jobs=8" true
    (String.equal d1 (Serve.results_digest (run 8)))

let test_serve_degraded_path () =
  (* Replication 1 leaves no replica to fail over to: killing nodes
     must degrade (stale decisions), never drop requests. *)
  let outage = { outage_spec with Outages.permanent_frac = 0.5 } in
  let r =
    get (Serve.run (spec ~duration_us:100_000.0 ~seed:3 ~replication:1 ~outage ()))
  in
  check_int "zero unrecovered" 0 r.Serve.failed;
  check_bool "degradation engaged" true (r.Serve.degraded > 0);
  Array.iter
    (function
      | Serve.Degraded { stale_impl; _ } ->
          check_bool "degraded carries the stale decision" true
            (stale_impl <> None)
      | Serve.Full _ -> ()
      | Serve.Failed msg -> Alcotest.fail ("unexpected failure: " ^ msg))
    r.Serve.outcomes

let test_serve_shares_outcomes () =
  (* A retained report keeps one value per distinct response: equal
     outcomes, full and degraded alike, are physically shared. *)
  let outage = { outage_spec with Outages.permanent_frac = 0.5 } in
  let r =
    get
      (Serve.run
         (spec ~duration_us:100_000.0 ~seed:3 ~replication:1 ~outage ()))
  in
  let first = Hashtbl.create 64 in
  Array.iter
    (fun o ->
      match Hashtbl.find_opt first o with
      | None -> Hashtbl.add first o o
      | Some shared ->
          check_bool "equal outcomes are one value" true (shared == o))
    r.Serve.outcomes;
  check_bool "fewer distinct outcomes than requests" true
    (Hashtbl.length first < Array.length r.Serve.outcomes)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_serve_obs () =
  let obs = Obs.Ctx.create () in
  let _r = get (Serve.run ~obs (spec ~duration_us:30_000.0 ~outage:outage_spec ())) in
  let prom = Obs.Metrics.to_prometheus obs.Obs.Ctx.registry in
  List.iter
    (fun name -> check_bool (name ^ " exported") true (contains prom name))
    [
      "qosalloc_cluster_requests_total";
      "qosalloc_cluster_node_saturation";
      "qosalloc_cluster_shed_total";
      "qosalloc_cluster_failover_total";
      "qosalloc_cluster_replication_lag_us";
      "qosalloc_cluster_latency_us";
      "qosalloc_cluster_retries_total";
      "qosalloc_cluster_breaker_opens_total";
      "qosalloc_cluster_heartbeats_total";
    ]

(* --- event log through the serve path -------------------------------------- *)

let events_ctx () = Obs.Ctx.create ~events:(Ev.recording ()) ()

(* Transition events carry (prev, next) state names; the log is valid
   when, per node, each event's [prev] is the previous event's [next]
   (starting from the creation state) — i.e. the flight recorder saw
   every state change, in order, with none invented or skipped. *)
let transitions sel evs =
  List.filter_map
    (fun e ->
      match (sel e.Ev.kind, e.Ev.node) with
      | Some pn, Some node -> Some (node, pn)
      | _ -> None)
    evs

let chained ~start l =
  let last : (int, string) Hashtbl.t = Hashtbl.create 8 in
  List.for_all
    (fun (node, (prev, next)) ->
      let expected = Option.value ~default:start (Hashtbl.find_opt last node) in
      Hashtbl.replace last node next;
      String.equal prev expected)
    l

let test_serve_eventlog () =
  (* Replication 1 under a kill-and-bounce campaign: failovers, breaker
     trips, detector verdicts, rejoins and a latency-SLO burn are all
     visible in one run — the ISSUE acceptance scenario. *)
  let outage = { outage_spec with Outages.permanent_frac = 0.34 } in
  let mk jobs =
    let obs = events_ctx () in
    let s =
      {
        (spec ~duration_us:100_000.0 ~seed:7 ~replication:1 ~jobs ~outage ())
        with
        Serve.slo =
          Some { Serve.slo_availability = 0.99; slo_latency_us = 500.0 };
      }
    in
    let r = get (Serve.run ~obs s) in
    (r, obs.Obs.Ctx.events)
  in
  let r, log = mk 1 in
  let _, log4 = mk 4 in
  check_bool "NDJSON byte-identical at jobs 1 vs 4" true
    (String.equal (Ev.to_ndjson log) (Ev.to_ndjson log4));
  check_int "ring did not overflow" 0 (Ev.dropped log);
  let evs = Ev.events log in
  let count p = List.length (List.filter (fun e -> p e.Ev.kind) evs) in
  check_bool "failovers recorded" true
    (count (function Ev.Request_failover _ -> true | _ -> false) > 0);
  check_bool "rejoins recorded" true
    (count (function Ev.Node_rejoin _ -> true | _ -> false) > 0);
  check_bool "SLO burn alert fired" true
    (count (function
       | Ev.Slo_alert { state = "firing"; _ } -> true
       | _ -> false)
    > 0);
  check_int "one admission per request" r.Serve.requests
    (count (function Ev.Request_admitted _ -> true | _ -> false));
  check_int "one terminal event per request" r.Serve.requests
    (count (function
       | Ev.Request_completed _ | Ev.Request_degraded _ | Ev.Request_failed _
         -> true
       | _ -> false));
  let health =
    transitions
      (function Ev.Node_transition { prev; next } -> Some (prev, next) | _ -> None)
      evs
  and breaker =
    transitions
      (function
        | Ev.Breaker_transition { prev; next } -> Some (prev, next) | _ -> None)
      evs
  in
  check_bool "health verdicts chain from up, no step skipped" true
    (chained ~start:"up" health);
  check_bool "a node was suspected" true
    (List.exists (fun (_, (_, next)) -> String.equal next "suspect") health);
  check_bool "suspicion precedes the down verdict" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "suspect" && String.equal next "down")
       health);
  check_bool "a down node came back up" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "down" && String.equal next "up")
       health);
  check_bool "breaker states chain from closed, no step skipped" true
    (chained ~start:"closed" breaker);
  check_bool "a breaker tripped" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "closed" && String.equal next "open")
       breaker);
  check_bool "cooldown expiry went half-open" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "open" && String.equal next "half-open")
       breaker);
  check_bool "a missed SLO classifies as unrecovered loss" true
    (Serve.exit_code ~min_availability:0.0 r = 2);
  check_bool "slo reports present" true
    (List.exists (fun s -> not s.Obs.Slo.r_met) r.Serve.slo)

(* --- work stealing --------------------------------------------------------- *)

(* A single-type hot app drives its 3-node replica set past saturation
   while the rest of the cluster idles; stealing must convert sheds and
   backoff retries into donated work, at no availability cost, without
   perturbing the jobs/source digest contract. *)
let steal_spec ?(jobs = 1) ?(source = Serve.Pregenerated) ~enabled () =
  {
    (spec ~duration_us:10_000.0 ~seed:7 ~jobs ())
    with
    Serve.load_scale = 1000.0;
    steal = { Steal.default with Steal.enabled };
    source;
  }

let test_serve_steal () =
  let off = get (Serve.run (steal_spec ~enabled:false ())) in
  let on = get (Serve.run (steal_spec ~enabled:true ())) in
  check_int "same workload" off.Serve.requests on.Serve.requests;
  check_bool "saturation without stealing" true (off.Serve.sheds > 0);
  check_bool "steals happened" true (on.Serve.steals > 0);
  check_bool "sheds strictly decrease" true (on.Serve.sheds < off.Serve.sheds);
  check_bool "availability no worse" true
    (on.Serve.availability >= off.Serve.availability);
  check_int "every request answered" on.Serve.requests
    (on.Serve.full + on.Serve.degraded);
  check_bool "donations visible per node" true
    (List.exists (fun ns -> ns.Serve.ns_donated > 0) on.Serve.per_node);
  check_bool "thefts visible per node" true
    (List.exists (fun ns -> ns.Serve.ns_stolen > 0) on.Serve.per_node);
  (* Recovery actions occurred, so the verdict is degraded-recovered. *)
  check_int "steals move the exit code" 1
    (Serve.exit_code ~min_availability:0.99 on);
  (* The steal decision is made on the sequential control clock with a
     seeded tie-break: the report never depends on --jobs or on the
     arrival source. *)
  let d = Serve.results_digest on in
  check_bool "digest invariant at jobs=4" true
    (String.equal d (Serve.results_digest (get (Serve.run (steal_spec ~enabled:true ~jobs:4 ())))));
  check_bool "digest invariant when streaming" true
    (String.equal d
       (Serve.results_digest
          (get (Serve.run (steal_spec ~enabled:true ~source:Serve.Stream ())))))

let test_serve_steal_events () =
  let obs = events_ctx () in
  let r = get (Serve.run ~obs (steal_spec ~enabled:true ())) in
  let evs = Ev.events obs.Obs.Ctx.events in
  let grants, denials =
    List.fold_left
      (fun (g, d) e ->
        match e.Ev.kind with
        | Ev.Request_steal { to_node = Some _; _ } -> (g + 1, d)
        | Ev.Request_steal { to_node = None; _ } -> (g, d + 1)
        | _ -> (g, d))
      (0, 0) evs
  in
  check_int "one event per steal" r.Serve.steals grants;
  check_int "one event per denial" r.Serve.steal_denials denials;
  check_bool "steals visible in NDJSON" true
    (contains (Ev.to_ndjson obs.Obs.Ctx.events) "\"event\":\"request-steal\"")

let test_serve_streaming_cap () =
  (* max_requests takes the first N of the merged arrival sequence —
     identical for either source, and O(apps) memory when streaming
     with retention off. *)
  let base = { (steal_spec ~enabled:false ()) with Serve.max_requests = Some 200 } in
  let pre = get (Serve.run base) in
  let st =
    get
      (Serve.run
         { base with Serve.source = Serve.Stream; retain_requests = false })
  in
  check_int "pregenerated capped" 200 pre.Serve.requests;
  check_int "streaming capped" 200 st.Serve.requests;
  check_bool "same availability" true
    (pre.Serve.availability = st.Serve.availability);
  check_int "no retained outcomes" 0 (Array.length st.Serve.outcomes);
  check_bool "retained run keeps outcomes" true
    (Array.length pre.Serve.outcomes = 200)

let counters (r : Serve.report) =
  [
    r.Serve.requests; r.Serve.full; r.Serve.degraded; r.Serve.failed;
    r.Serve.failovers; r.Serve.retries; r.Serve.sheds; r.Serve.steals;
    r.Serve.steal_denials; r.Serve.outage_events; r.Serve.heartbeats;
  ]

let test_serve_eventlog_absent_when_disabled () =
  (* Instrumentation never changes the report.  The chaos campaign
     with stealing on and an SLO set runs with no context, with a
     metrics-only one — which stays on the no-op event sink: nothing
     recorded — and with a full recording one. *)
  let s =
    {
      (steal_spec ~enabled:true ()) with
      Serve.outage = outage_spec;
      slo = Some { Serve.slo_availability = 0.99; slo_latency_us = 500.0 };
    }
  in
  let bare = get (Serve.run s) in
  let metrics = Obs.Ctx.create () in
  let recording =
    Obs.Ctx.create ~tracer:(Obs.Tracer.collecting ()) ~events:(Ev.recording ())
      ()
  in
  check_bool "steals happened" true (bare.Serve.steals > 0);
  check_bool "outages happened" true (bare.Serve.outage_events > 0);
  let summary r = Format.asprintf "%a" Serve.pp r in
  List.iter
    (fun (label, obs) ->
      let r = get (Serve.run ~obs s) in
      Alcotest.(check string)
        (label ^ ": digest") (Serve.results_digest bare)
        (Serve.results_digest r);
      Alcotest.(check (list int)) (label ^ ": counters") (counters bare)
        (counters r);
      Alcotest.(check string)
        (label ^ ": latency, SLO and per-node figures")
        (summary bare) (summary r))
    [ ("metrics only", metrics); ("full recording", recording) ];
  check_int "no events" 0 (Ev.recorded metrics.Obs.Ctx.events);
  check_bool "the recording context saw the run" true
    (Ev.recorded recording.Obs.Ctx.events > 0
    && Obs.Tracer.events recording.Obs.Ctx.tracer <> [])

(* --- engine axis ----------------------------------------------------------- *)

(* The engine-independent face of one response: who served it, with
   which variant and Q15 score, or the stale variant and the reason it
   degraded.  Cycle counts are left out — only they may differ. *)
let outcome_key = function
  | Serve.Full { node; decision } ->
      Printf.sprintf "full node=%d impl=%d score=%d" node
        decision.Engine.impl_id
        (Fxp.Q15.to_raw decision.Engine.score)
  | Serve.Degraded { stale_impl; reason } ->
      Printf.sprintf "degraded stale=%s reason=%s"
        (Option.fold ~none:"-" ~some:string_of_int stale_impl)
        (Ladder.reason_to_string reason)
  | Serve.Failed msg -> "failed " ^ msg

let test_serve_engine_invariance () =
  (* Every bit-accurate engine decides as native does, so a chaos run
     on any of them, at any worker count, routes, fails over, degrades
     and answers exactly as the native run. *)
  let outage = { outage_spec with Outages.permanent_frac = 0.5 } in
  let base =
    { (spec ~replication:1 ~outage ()) with Serve.load_scale = 5.0 }
  in
  let reference = get (Serve.run base) in
  check_bool "the run degrades some requests" true
    (reference.Serve.degraded > 0);
  let keys r = Array.to_list (Array.map outcome_key r.Serve.outcomes) in
  List.iter
    (fun (name, factory) ->
      List.iter
        (fun jobs ->
          let r =
            get
              (Serve.run
                 { base with Serve.engine = factory; engine_name = name; jobs })
          in
          let label what = Printf.sprintf "%s at jobs %d: %s" name jobs what in
          Alcotest.(check (list int)) (label "counters") (counters reference)
            (counters r);
          Alcotest.(check (list string)) (label "outcomes") (keys reference)
            (keys r))
        [ 1; 3 ])
    Engines.bit_accurate

(* An out-of-range [jobs] is refused before the run starts any
   domain. *)
let test_serve_jobs_range () =
  List.iter
    (fun jobs ->
      match Serve.run (spec ~duration_us:1_000.0 ~jobs ()) with
      | Ok _ -> Alcotest.failf "jobs %d accepted" jobs
      | Error msg ->
          check_bool
            (Printf.sprintf "jobs %d names the range" jobs)
            true
            (contains msg (Printf.sprintf "1..%d" Serve.max_jobs)))
    [ 0; -1; Serve.max_jobs + 1 ];
  check_int "the runtime limit minus the main domain" 127 Serve.max_jobs

let test_serve_unknown_type () =
  (* A request for a type the case base lacks is an engine error: it
     answers [Failed] naming the type — never degraded, never dropped —
     and the run classifies as unrecovered loss. *)
  let ghost =
    {
      Desim.Apps.cruise_control with
      Desim.Apps.app_id = "ghost";
      templates =
        [ { Desim.Apps.t_type_id = 9999; t_constraints = [ (5, 10, 0, 1.0) ] } ];
    }
  in
  let s = spec ~duration_us:20_000.0 () in
  let r = get (Serve.run { s with Serve.apps = s.Serve.apps @ [ ghost ] }) in
  let ghosts = ref 0 in
  Array.iteri
    (fun i outcome ->
      let app, _, _ = r.Serve.request_meta.(i) in
      match outcome with
      | Serve.Failed msg ->
          incr ghosts;
          check_bool "only the ghost app fails" true (app = "ghost");
          check_bool "names the type" true (contains msg "9999")
      | Serve.Full _ | Serve.Degraded _ ->
          check_bool "the ghost app never succeeds" false (app = "ghost"))
    r.Serve.outcomes;
  check_bool "ghost requests were issued" true (!ghosts > 0);
  check_int "failed counter" !ghosts r.Serve.failed;
  check_int "unrecovered loss" 2 (Serve.exit_code ~min_availability:0.99 r)

let test_serve_matches_sequential_engine () =
  (* Sharding the decision phase over domains changes who computes an
     answer, never the answer: on a clean run at jobs 4 every request
     is served with the variant and Q15 score the sequential
     fixed-point engine picks over the whole case base. *)
  let s = spec ~duration_us:20_000.0 ~seed:72 ~jobs:4 () in
  let r = get (Serve.run s) in
  let requests = Serve.workload s in
  check_int "trace and outcomes align" (Array.length requests)
    (Array.length r.Serve.outcomes);
  check_bool "has requests" true (r.Serve.requests > 0);
  check_int "all full" r.Serve.requests r.Serve.full;
  Array.iteri
    (fun i (_, _, request) ->
      match (r.Serve.outcomes.(i), Engine_fixed.best s.Serve.casebase request)
      with
      | Serve.Full { decision; _ }, Ok ranked ->
          check_int "same variant as the sequential engine"
            ranked.Retrieval.impl.Impl.id decision.Engine.impl_id;
          check_int "same Q15 score"
            (Fxp.Q15.to_raw ranked.Retrieval.score)
            (Fxp.Q15.to_raw decision.Engine.score)
      | _ -> Alcotest.fail "expected Full + sequential Ok")
    requests

(* --- replica-consistency property ------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

(* Reference model for the ring walk: identical splitmix64 placement,
   but scanning every nodes x vnodes point with no early exit.  The
   production walk stops as soon as every member has been seen; this
   model pins that the shortcut never changes a route. *)
let ref_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let ref_hash2 a b =
  ref_mix
    (Int64.add (ref_mix (Int64.of_int a))
       (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int b)))

let ref_route ~nodes ~vnodes ~key ~replicas =
  let points =
    List.concat_map
      (fun (id, _) -> List.init vnodes (fun v -> (ref_hash2 id v, id)))
      nodes
  in
  let points =
    Array.of_list
      (List.sort
         (fun (h1, n1) (h2, n2) ->
           match Int64.unsigned_compare h1 h2 with
           | 0 -> compare n1 n2
           | c -> c)
         points)
  in
  let n = Array.length points in
  let h = ref_hash2 key 0x5eed in
  let s = ref 0 in
  while !s < n && Int64.unsigned_compare (fst points.(!s)) h < 0 do
    incr s
  done;
  let s = if !s = n then 0 else !s in
  (* Full scan: every point, no early exit. *)
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  for i = 0 to n - 1 do
    let node = snd points.((s + i) mod n) in
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.add seen node ();
      order := node :: !order
    end
  done;
  let order = List.rev !order in
  let domains = Hashtbl.create 8 in
  let preferred, parked =
    List.fold_left
      (fun (pref, park) node ->
        let d = Option.value (List.assoc_opt node nodes) ~default:node in
        if Hashtbl.mem domains d then (pref, node :: park)
        else begin
          Hashtbl.add domains d ();
          (node :: pref, park)
        end)
      ([], []) order
  in
  let ranked = List.rev preferred @ List.rev parked in
  List.filteri (fun i _ -> i < replicas) ranked

let props =
  [
    (* For any seeded outage schedule, every successful (full-QoS)
       response is decision-identical to the single-node native engine
       over the whole case base: replication and failover never change
       an answer, only who serves it. *)
    prop "full responses match the single-node engine"
      QCheck2.Gen.(triple (int_range 0 10_000) bool (int_range 1 4))
      (fun (seed, storm, jobs) ->
        let outage =
          if storm then outage_spec else Outages.default_spec
        in
        let s = spec ~duration_us:20_000.0 ~seed ~jobs ~outage () in
        let r = get (Serve.run s) in
        let reference = get (native s.Serve.casebase) in
        let requests = Serve.workload s in
        check_int "trace and outcomes align" (Array.length requests)
          (Array.length r.Serve.outcomes);
        Array.for_all2
          (fun (_, _, request) outcome ->
            match outcome with
            | Serve.Failed _ -> false
            | Serve.Degraded { stale_impl; _ } -> (
                match reference.Engine.retrieve request with
                | Ok d -> stale_impl = Some d.Engine.impl_id
                | Error _ -> false)
            | Serve.Full { decision; _ } -> (
                match reference.Engine.retrieve request with
                | Ok d -> Engine.equal_decision d decision
                | Error _ -> false))
          requests r.Serve.outcomes);
    (* The flight recorder only ever runs in the sequential control
       phase, so its timestamps are nondecreasing — globally and hence
       per correlated node — at any worker count. *)
    prop "event timestamps are monotone per node"
      QCheck2.Gen.(triple (int_range 0 10_000) bool (int_range 1 4))
      (fun (seed, storm, jobs) ->
        let outage = if storm then outage_spec else Outages.default_spec in
        let obs = Obs.Ctx.create ~events:(Ev.recording ()) () in
        let s = spec ~duration_us:20_000.0 ~seed ~jobs ~outage () in
        let _ = get (Serve.run ~obs s) in
        let last_global = ref 0.0 in
        let last_node : (int, float) Hashtbl.t = Hashtbl.create 8 in
        List.for_all
          (fun e ->
            let ok = e.Ev.ts >= !last_global in
            last_global := e.Ev.ts;
            match e.Ev.node with
            | None -> ok
            | Some node ->
                let prev =
                  Option.value ~default:0.0 (Hashtbl.find_opt last_node node)
                in
                Hashtbl.replace last_node node e.Ev.ts;
                ok && e.Ev.ts >= prev)
          (Ev.events obs.Obs.Ctx.events));
    (* The early-exit ring walk must route every key exactly as the
       exhaustive full-scan reference at any cluster shape. *)
    prop "early-exit walk leaves every route unchanged"
      QCheck2.Gen.(
        tup4 (int_range 1 8) (int_range 1 16) (int_range 0 10_000)
          (int_range 1 8))
      (fun (node_count, vnodes, key, replicas) ->
        let nodes = List.init node_count (fun i -> (i, i mod 3)) in
        let ring = get (Ring.create ~vnodes ~nodes ()) in
        Ring.route ring ~key ~replicas = ref_route ~nodes ~vnodes ~key ~replicas);
    (* The substrate's placement accessors answer exactly what the ring
       routes and what each node hosts, for every case-base type and
       for keys outside the case base, at any cluster shape. *)
    prop "substrate placement accessors match the ring"
      QCheck2.Gen.(
        tup6 (int_range 1 8) (int_range 1 16) (int_range 1 8) (int_range 1 4)
          (option (int_range 0 10_000))
          (int_range 1 12))
      (fun (nodes, vnodes, replication, fault_domains, sized, types) ->
        let cb =
          match sized with
          | None -> Desim.Apps.reference_casebase
          | Some seed ->
              Workload.Generator.sized_casebase ~seed ~types ~impls:3 ~attrs:4
        in
        let sub =
          get
            (Substrate.create ~vnodes ~fault_domains ~nodes ~replication
               ~engine:native cb)
        in
        let node_ids = List.init nodes Fun.id in
        let max_id =
          List.fold_left (fun a (ft : Ftype.t) -> max a ft.Ftype.id) 0
            cb.Casebase.ftypes
        in
        (* Every case-base type, plus keys on both sides of it. *)
        let keys = List.init (max_id + 24) (fun k -> k - 3) in
        Substrate.members sub = node_ids
        && List.for_all
             (fun key ->
               Substrate.replicas_for sub ~type_id:key
               = Ring.route sub.Substrate.ring ~key
                   ~replicas:sub.Substrate.replication
               && List.for_all
                    (fun node ->
                      Substrate.holds sub ~node ~type_id:key
                      = List.mem key
                          (Substrate.node sub node).Substrate.hosted_types)
                    node_ids)
             keys);
    (* The down table's binary-search lookups answer what serve's list
       scans answered, at every interval edge and one ulp either side
       of it, for campaigns that end at the horizon or (as in serve)
       never. *)
    prop "outage lookups match the interval scans"
      QCheck2.Gen.(
        tup6 (int_range 0 10_000) (int_range 1 8) (float_range 0.0 1.0)
          (option (float_range 2_000.0 20_000.0))
          (pair (float_range 0.0 3_000.0) (float_range 0.0 3_000.0))
          (pair bool (float_range 0.0 5_000.0)))
      (fun ( seed,
             nodes,
             permanent_frac,
             transient_mean_us,
             (dlo, dw),
             (forever, s) ) ->
        let duration_us = 100_000.0 in
        let events =
          Outages.generate (Injector.create ~seed) ~nodes ~duration_us
            {
              outage_spec with
              Outages.permanent_frac;
              transient_mean_us;
              transient_down_us = (dlo, dlo +. dw);
            }
        in
        let horizon = if forever then Float.infinity else duration_us in
        List.for_all
          (fun node ->
            let spans =
              Outages.down_intervals events ~duration_us:horizon ~node
            in
            let d = Outages.down_table events ~duration_us:horizon ~node in
            let scan_down t =
              List.exists (fun (lo, hi) -> lo <= t && t < hi) spans
            in
            let scan_next t within =
              List.find_map
                (fun (lo, _) -> if t < lo && within lo then Some lo else None)
                spans
            in
            let next_within t =
              match Outages.next_down d t with
              | Some lo when lo <= t +. s -> Some lo
              | Some _ | None -> None
            in
            let times =
              List.concat_map
                (fun (lo, hi) ->
                  List.concat_map
                    (fun x -> [ Float.pred x; x; Float.succ x ])
                    [ lo; hi ])
                spans
            in
            List.for_all
              (fun t ->
                Outages.is_down d t = scan_down t
                && Outages.next_down d t = scan_next t (fun _ -> true)
                && next_within t = scan_next t (fun lo -> lo <= t +. s))
              (0.0 :: times))
          (List.init nodes Fun.id));
    (* Pulling arrivals on demand must produce the byte-identical
       report to pregenerating the whole trace, with or without chaos
       or stealing in play. *)
    prop "streaming arrivals are byte-equivalent to pregenerated"
      QCheck2.Gen.(triple (int_range 0 10_000) bool bool)
      (fun (seed, storm, stealing) ->
        let outage = if storm then outage_spec else Outages.default_spec in
        let base =
          {
            (spec ~duration_us:20_000.0 ~seed ~outage ()) with
            Serve.steal = { Steal.default with Steal.enabled = stealing };
          }
        in
        let pre = get (Serve.run base) in
        let st = get (Serve.run { base with Serve.source = Serve.Stream }) in
        String.equal
          (Serve.results_to_string pre)
          (Serve.results_to_string st));
  ]

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "route" `Quick test_ring_route;
          Alcotest.test_case "fault-domain diversity" `Quick
            test_ring_domain_diversity;
          Alcotest.test_case "spread" `Quick test_ring_spread;
        ] );
      ( "health",
        [ Alcotest.test_case "phi thresholds" `Quick test_health_thresholds ] );
      ( "breaker",
        [ Alcotest.test_case "open/half-open ladder" `Quick test_breaker_ladder ]
      );
      ( "backoff",
        [
          Alcotest.test_case "cap and jitter bounds" `Quick
            test_backoff_cap_and_jitter;
        ] );
      ( "outages",
        [
          Alcotest.test_case "seeded schedule" `Quick test_outages_schedule;
          Alcotest.test_case "bad down-time bounds" `Quick
            test_outages_bad_down_time;
        ] );
      ( "substrate",
        [
          Alcotest.test_case "placement" `Quick test_substrate_placement;
          Alcotest.test_case "sub case bases" `Quick
            test_substrate_sub_casebases;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "skip" `Quick test_ladder_skip;
          Alcotest.test_case "placement" `Quick test_ladder_place;
          Alcotest.test_case "half-open probe" `Quick test_ladder_half_open;
          Alcotest.test_case "failover" `Quick test_ladder_failover;
          Alcotest.test_case "backoff" `Quick test_ladder_backoff;
          Alcotest.test_case "degrade reason priority" `Quick
            test_ladder_degrade_priority;
        ] );
      ( "serve",
        [
          Alcotest.test_case "clean run" `Quick test_serve_clean;
          Alcotest.test_case "chaos acceptance" `Quick
            test_serve_chaos_acceptance;
          Alcotest.test_case "degraded path" `Quick test_serve_degraded_path;
          Alcotest.test_case "shared outcomes" `Quick
            test_serve_shares_outcomes;
          Alcotest.test_case "obs metrics" `Quick test_serve_obs;
          Alcotest.test_case "event log" `Quick test_serve_eventlog;
          Alcotest.test_case "work stealing" `Quick test_serve_steal;
          Alcotest.test_case "steal events" `Quick test_serve_steal_events;
          Alcotest.test_case "streaming cap" `Quick test_serve_streaming_cap;
          Alcotest.test_case "event log disabled" `Quick
            test_serve_eventlog_absent_when_disabled;
          Alcotest.test_case "engine invariance" `Quick
            test_serve_engine_invariance;
          Alcotest.test_case "unknown type" `Quick test_serve_unknown_type;
          Alcotest.test_case "jobs out of range" `Quick test_serve_jobs_range;
          Alcotest.test_case "matches sequential engine" `Quick
            test_serve_matches_sequential_engine;
        ] );
      ("properties", props);
    ]
