(* Serve benchmark of record: drives [Cluster.Serve.run] through its
   public API on one named workload.

     servebench --workload NAME --seed N --seconds S --trace 0|1

   [--trace 0] repeats untraced runs for S seconds and reports the
   end-to-end metrics as medians over the samples.  [--trace 1]
   alternates untraced runs with traced ones and reports the host-time
   split across the four serve layers (arrival, decision, control,
   accounting), each timed from outside at calls into its public
   functions.  Either mode then runs a correctness gate; a failed check
   prints no metric and exits 1.

   Standard output ends with three JSON lines: the deterministic
   sim-time figures of the first sub-seed's run; provenance with every
   metric's sample count, median, min and max; and the result, with
   the keys [correct], [attempted], [failed] and [metrics]. *)

open Qos_core
module Serve = Cluster.Serve
module Substrate = Cluster.Substrate

(* --- clock, checks, samples ----------------------------------------------- *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_since t0 = float_of_int (now_ns () - t0) *. 1e-9

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let get = function Ok x -> x | Error e -> raise (Check_failed e)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let json_number v =
  if not (Float.is_finite v) then
    raise (Check_failed (Printf.sprintf "non-finite metric value %f" v));
  Printf.sprintf "%.17g" v

let json_fields fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Obs.Jsonu.str k ^ ": " ^ v) fields)
  ^ "}"

(* A metric is its name, unit and samples; it reports their median. *)
type metric = { name : string; unit_ : string; samples : float list }

let metric name unit_ samples = { name; unit_; samples }
let count name (v : int) = metric name "count" [ float_of_int v ]

(* --- workloads ------------------------------------------------------------ *)

(* The north-star figure: the default six-node spec streaming 1M
   requests with aggregates only. *)
let stream_1m seed =
  {
    (Serve.default_spec ()) with
    Serve.duration_us = 3.0e6;
    seed;
    jobs = 1;
    source = Serve.Stream;
    max_requests = Some 1_000_000;
    retain_requests = false;
    load_scale = 400.0;
  }

(* Every control rung fires: a hot Poisson ECU saturates its replica
   set under a kill-and-bounce campaign with stealing on.  The source
   is pregenerated, so decisions run as a batch on a worker domain. *)
let chaos_steal seed =
  let hot =
    {
      Desim.Apps.automotive_ecu with
      Desim.Apps.arrival = Desim.Apps.Poisson;
      period_us = 4.0;
    }
  in
  {
    (Serve.default_spec ()) with
    Serve.duration_us = 2.0e6;
    seed;
    jobs = 1;
    apps =
      [
        hot;
        Desim.Apps.mp3_player;
        Desim.Apps.video_scaler;
        Desim.Apps.cruise_control;
      ];
    outage =
      {
        Faults.Outages.permanent_frac = 0.34;
        permanent_window = (0.2, 0.7);
        transient_mean_us = Some 20_000.0;
        transient_down_us = (1_000.0, 5_000.0);
      };
    steal = { Cluster.Steal.default with Cluster.Steal.enabled = true; seed };
  }

(* The case base and request templates of [large-cb] come from fixed
   seeds; only arrivals, jitter and the serve seed follow [--seed]. *)
let large_cb_seed = 2004

let large_cb_casebase =
  lazy
    (Workload.Generator.sized_casebase ~seed:large_cb_seed ~types:15 ~impls:40
       ~attrs:10)

(* Four Poisson apps, each cycling four generated full-width
   (10-constraint) templates; together they cover all 15 function
   types.  Full width keeps the retrieval scan the largest layer. *)
let large_cb_apps (cb : Casebase.t) =
  let rng = Workload.Prng.create ~seed:(large_cb_seed + 1) in
  let request_spec =
    {
      Workload.Generator.constraints = (10, 10);
      weight_profile = `Random;
      value_slack = 0.0;
    }
  in
  let template type_id =
    let r =
      Workload.Generator.request rng ~schema:cb.Casebase.schema ~type_id
        request_spec
    in
    {
      Desim.Apps.t_type_id = type_id;
      t_constraints =
        List.map
          (fun (c : Request.constr) ->
            (c.Request.attr, c.Request.value, 8, c.Request.weight))
          r.Request.constraints;
    }
  in
  List.init 4 (fun a ->
      {
        Desim.Apps.app_id = Printf.sprintf "gen-%d" a;
        priority = a + 1;
        arrival = Desim.Apps.Poisson;
        period_us = 400.0;
        hold_us = (1_000.0, 5_000.0);
        templates =
          List.init 4 (fun k -> template (1 + (((4 * a) + k) mod 15)));
      })

let large_cb seed =
  let cb = Lazy.force large_cb_casebase in
  {
    (Serve.default_spec ()) with
    Serve.duration_us = 3.0e6;
    seed;
    jobs = 1;
    casebase = cb;
    apps = large_cb_apps cb;
    source = Serve.Stream;
    retain_requests = false;
    load_scale = 20.0;
  }

let workloads =
  [
    ("stream-1m", stream_1m);
    ("chaos-steal", chaos_steal);
    ("large-cb", large_cb);
  ]

(* --- instrumented entry points -------------------------------------------- *)

let create_substrate (spec : Serve.spec) =
  get
    (Substrate.create ~vnodes:spec.Serve.vnodes
       ~fault_domains:spec.Serve.fault_domains ~nodes:spec.Serve.nodes
       ~replication:spec.Serve.replication ~engine:spec.Serve.engine
       spec.Serve.casebase)

(* Heap size in MiB.  [peak] is its high-water mark during the current
   timed run, sampled at the end of every major GC cycle. *)
let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8))
  /. 1048576.0

let peak = Atomic.make 0.0

let rec raise_peak v =
  let p = Atomic.get peak in
  if v > p && not (Atomic.compare_and_set peak p v) then raise_peak v

let _alarm = Gc.create_alarm (fun () -> raise_peak (heap_mb ()))

(* A full major GC first, so no run pays for the previous run's
   garbage. *)
type run = {
  report : Serve.report;
  wall_s : float;
  cpu_s : float;  (** process CPU time, user + system, all domains *)
  peak_mb : float;
}

let timed_run ?obs spec =
  Gc.full_major ();
  Atomic.set peak (heap_mb ());
  let c0 = Sys.time () in
  let t0 = now_ns () in
  let report = get (Serve.run ?obs spec) in
  let wall_s = seconds_since t0 in
  let cpu_s = Sys.time () -. c0 in
  raise_peak (heap_mb ());
  { report; wall_s; cpu_s; peak_mb = Atomic.get peak }

(* Decision spans.  The pregenerated source retrieves from worker
   domains, so the accumulators are atomic. *)
type decision_acc = {
  span_ns : int Atomic.t;
  calls : int Atomic.t;
  batch_requests : int Atomic.t;
}

let timed_engine acc (factory : Engine.factory) : Engine.factory =
 fun cb ->
  Result.map
    (fun (e : Engine.t) ->
      let retrieve r =
        let t0 = now_ns () in
        let d = e.Engine.retrieve r in
        ignore (Atomic.fetch_and_add acc.span_ns (now_ns () - t0));
        Atomic.incr acc.calls;
        d
      in
      let retrieve_batch rs =
        let t0 = now_ns () in
        let ds = e.Engine.retrieve_batch rs in
        ignore (Atomic.fetch_and_add acc.span_ns (now_ns () - t0));
        ignore (Atomic.fetch_and_add acc.batch_requests (List.length rs));
        ds
      in
      { e with Engine.retrieve; retrieve_batch })
    (factory cb)

(* The arrival sources exactly as [Serve] builds them: one root PRNG,
   one split per app in order, periods divided by the load scale. *)
let replay_sources (spec : Serve.spec) =
  let root = Workload.Prng.create ~seed:spec.Serve.seed in
  List.map
    (fun (p : Desim.Apps.profile) ->
      let p =
        if spec.Serve.load_scale = 1.0 then p
        else
          {
            p with
            Desim.Apps.period_us =
              p.Desim.Apps.period_us /. spec.Serve.load_scale;
          }
      in
      ( p.Desim.Apps.app_id,
        Desim.Apps.arrival_source p ~rng:(Workload.Prng.split root)
          ~horizon:spec.Serve.duration_us ))
    spec.Serve.apps

(* Arrival layer: build the sources and pull the run's arrivals. *)
let arrival_pass spec =
  let t0 = now_ns () in
  let stream = Workload.Stream.create (List.map snd (replay_sources spec)) in
  let cap = Option.value spec.Serve.max_requests ~default:max_int in
  let rec pull n =
    if n >= cap then n
    else
      match Workload.Stream.pull stream with
      | None -> n
      | Some _ -> pull (n + 1)
  in
  let n = pull 0 in
  (n, seconds_since t0)

(* Accounting layer: replay the run's request count into
   [Workload.Stats].  The values follow the run's own latency quantiles
   in a scrambled order, so the final sort sees the run's mix of ties. *)
let accounting_pass (r : Serve.report) =
  let s =
    match r.Serve.latency with
    | Some s -> s
    | None -> raise (Check_failed "run reported no latency summary")
  in
  let knots =
    [|
      (0.0, s.Workload.Stats.minimum);
      (0.5, s.Workload.Stats.p50);
      (0.9, s.Workload.Stats.p90);
      (0.95, s.Workload.Stats.p95);
      (0.99, s.Workload.Stats.p99);
      (1.0, s.Workload.Stats.maximum);
    |]
  in
  let value q =
    let k = ref 1 in
    while !k < Array.length knots - 1 && q > fst knots.(!k) do incr k done;
    let q0, v0 = knots.(!k - 1) and q1, v1 = knots.(!k) in
    v0 +. ((v1 -. v0) *. (q -. q0) /. (q1 -. q0))
  in
  let n = r.Serve.requests in
  let values =
    Array.init n (fun i ->
        value (Float.rem (float_of_int i *. 0.6180339887498949) 1.0))
  in
  let acc = Workload.Stats.create () in
  let t0 = now_ns () in
  Array.iter (Workload.Stats.add acc) values;
  let adds_s = seconds_since t0 in
  let t1 = now_ns () in
  ignore (Sys.opaque_identity (Workload.Stats.finalize acc));
  (adds_s, seconds_since t1)

(* --- correctness gate ----------------------------------------------------- *)

let gate_requests = 2_000

let check_report (r : Serve.report) =
  check (r.Serve.requests > 0) "run issued no requests";
  check (r.Serve.failed = 0) "%d of %d requests failed" r.Serve.failed
    r.Serve.requests;
  check
    (r.Serve.full + r.Serve.degraded = r.Serve.requests)
    "%d full + %d degraded answers for %d requests" r.Serve.full
    r.Serve.degraded r.Serve.requests

(* Everything a speed-only change must leave identical. *)
let signature (r : Serve.report) =
  let p99 =
    match r.Serve.latency with Some s -> s.Workload.Stats.p99 | None -> 0.0
  in
  Printf.sprintf
    "requests=%d full=%d degraded=%d failed=%d failovers=%d retries=%d \
     sheds=%d steals=%d steal_denials=%d heartbeats=%d p99=%h"
    r.Serve.requests r.Serve.full r.Serve.degraded r.Serve.failed
    r.Serve.failovers r.Serve.retries r.Serve.sheds r.Serve.steals
    r.Serve.steal_denials r.Serve.heartbeats p99

let primary_engine sub (req : Request.t) =
  match Substrate.replicas_for sub ~type_id:req.Request.type_id with
  | [] -> None
  | p :: _ -> (Substrate.node sub p).Substrate.engine

(* The first requests of the workload, decided on their primary
   replica's engine as [Serve] does, against the Q15 golden model over
   the full case base. *)
let check_decisions (spec : Serve.spec) =
  let sub = create_substrate spec in
  let reference = get (Engine.fixed_engine spec.Serve.casebase) in
  let prefix =
    Serve.workload { spec with Serve.max_requests = Some gate_requests }
  in
  Array.iteri
    (fun i (_, _, req) ->
      let got =
        match primary_engine sub req with
        | None -> Error (Engine.Engine_failure "primary hosts no engine")
        | Some e -> e.Engine.retrieve req
      in
      match (got, reference.Engine.retrieve req) with
      | Ok a, Ok b ->
          check (Engine.equal_decision a b)
            "request %d: %s decision differs from the fixed engine" i
            spec.Serve.engine_name
      | Error e, _ | _, Error e ->
          check false "request %d: %s" i (Engine.error_to_string e))
    prefix

(* The per-request report must be byte-identical at any jobs and for
   either arrival source.  Only meaningful with retention on. *)
let check_digests (spec : Serve.spec) =
  if spec.Serve.retain_requests then begin
    let digest jobs source =
      Serve.results_digest (timed_run { spec with Serve.jobs; source }).report
    in
    let d = digest 1 Serve.Pregenerated in
    List.iter
      (fun (jobs, source) ->
        check
          (String.equal d (digest jobs source))
          "results digest differs at jobs=%d source=%s" jobs
          (Serve.source_to_string source))
      [ (2, Serve.Pregenerated); (1, Serve.Stream) ]
  end

(* The replay must reproduce the arrival trace [Serve] runs on. *)
let check_arrival_replay (spec : Serve.spec) =
  let expected =
    Serve.workload { spec with Serve.max_requests = Some gate_requests }
  in
  let sources = replay_sources spec in
  let names = Array.of_list (List.map fst sources) in
  let stream = Workload.Stream.create (List.map snd sources) in
  Array.iteri
    (fun i (app, t, req) ->
      match Workload.Stream.pull stream with
      | None -> check false "arrival replay ended at %d" i
      | Some (src, t', req') ->
          check
            (String.equal names.(src) app && Float.equal t t'
           && Request.equal req req')
            "arrival replay diverges from Serve.workload at %d" i)
    expected

(* Deterministic sim-time figures of the seed's run, kept apart from
   the host-time metrics. *)
let sim_time (r : Serve.report) =
  let latency =
    match r.Serve.latency with
    | None -> []
    | Some s ->
        [
          ("latency_n", string_of_int s.Workload.Stats.n);
          ("p50_us", json_number s.Workload.Stats.p50);
          ("p99_us", json_number s.Workload.Stats.p99);
          ("max_us", json_number s.Workload.Stats.maximum);
        ]
  in
  json_fields
    [
      ( "sim_time",
        json_fields
          ([
             ("requests", string_of_int r.Serve.requests);
             ("full", string_of_int r.Serve.full);
             ("degraded", string_of_int r.Serve.degraded);
             ("availability", json_number r.Serve.availability);
           ]
          @ latency) );
    ]

(* --- measurement ---------------------------------------------------------- *)

(* Each run cycles through [sub_seeds] serve seeds derived from
   [--seed], so one outage draw cannot carry a run's figures. *)
let sub_seeds = 5
let sub_seed seed k = (seed * sub_seeds) + k
let setup_reps = 25

(* Call [f] on sample indices 0, 1, ... until [seconds] have passed and
   at least [min] samples exist; results come back in run order. *)
let repeat ~min ~seconds f =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rec go acc i =
    if i >= min && now_ns () >= deadline then List.rev acc
    else go (f i :: acc) (i + 1)
  in
  go [] 0

(* One batch of set-up samples.  Batches are spread over the run so the
   median does not hang on one moment's heap layout. *)
let setup_batch spec =
  List.init setup_reps (fun _ ->
      let t0 = now_ns () in
      ignore (Sys.opaque_identity (create_substrate spec));
      seconds_since t0)

(* [throughput_rps] divides by the run's process CPU time, not its wall
   time.  On a shared host the wall time mostly measures the neighbours:
   ten processes of the same code spread 15-22% in wall throughput.
   The CPU time leaves out the time the core is taken away: with two
   busy loops beside [stream-1m] on a 2-vCPU VM, the wall figure fell
   30% and the CPU figure moved under 1%.  The wall figure stays in
   the provenance line as [wall_rps]. *)
let end_to_end specs ~seconds =
  let sim = sim_time (timed_run specs.(0)).report in
  let signatures = Array.make sub_seeds "" in
  let full = Array.make sub_seeds 0 and requests = Array.make sub_seeds 0 in
  let runs =
    repeat ~min:sub_seeds ~seconds (fun i ->
        let k = i mod sub_seeds in
        let run = timed_run specs.(k) in
        let r = run.report in
        check_report r;
        if i < sub_seeds then begin
          signatures.(k) <- signature r;
          full.(k) <- r.Serve.full;
          requests.(k) <- r.Serve.requests
        end
        else
          check
            (String.equal (signature r) signatures.(k))
            "repeated run diverged: %s vs %s" (signature r) signatures.(k);
        (run, setup_batch specs.(k)))
  in
  let sum = Array.fold_left ( + ) 0 in
  let per_run f = List.map (fun (run, _) -> f run) runs in
  let rate time run = float_of_int run.report.Serve.requests /. time run in
  let metrics =
    [
      metric "throughput_rps" "1/s" (per_run (rate (fun run -> run.cpu_s)));
      metric "setup_s" "s" (List.concat_map snd runs);
      metric "peak_heap_mb" "MiB" (per_run (fun run -> run.peak_mb));
      metric "availability" "ratio"
        [ float_of_int (sum full) /. float_of_int (sum requests) ];
    ]
  in
  let info =
    [ metric "wall_rps" "1/s" (per_run (rate (fun run -> run.wall_s))) ]
  in
  let attempted =
    List.fold_left (fun a (run, _) -> a + run.report.Serve.requests) 0 runs
  in
  (metrics, info, attempted, sim)

type pass = {
  untraced_s : float;
  traced_s : float;
  events_s : float;
  decision_s : float;
  arrival_s : float;
  adds_s : float;
  finalize_s : float;
  render_s : float;
  calls : int;
  batch : int;
  requests : int;
}

(* One untraced run, one traced run with its arrival and accounting
   replays, and one run recording the event log. *)
let traced_pass spec =
  let untraced = timed_run spec in
  let report = untraced.report in
  check_report report;
  let t0 = now_ns () in
  ignore (Sys.opaque_identity (Serve.results_to_string report));
  let render_s = seconds_since t0 in
  let expected = signature report in
  let acc =
    {
      span_ns = Atomic.make 0;
      calls = Atomic.make 0;
      batch_requests = Atomic.make 0;
    }
  in
  let traced_run =
    timed_run { spec with Serve.engine = timed_engine acc spec.Serve.engine }
  in
  let traced = traced_run.report in
  let n = traced.Serve.requests in
  let calls = Atomic.get acc.calls and batch = Atomic.get acc.batch_requests in
  check (calls + batch = n)
    "decision timer saw %d calls + %d batched of %d requests" calls batch n;
  check
    (String.equal (signature traced) expected)
    "traced run diverged from the untraced one";
  let arrivals, arrival_s = arrival_pass spec in
  check (arrivals = n) "arrival replay pulled %d of %d requests" arrivals n;
  let adds_s, finalize_s = accounting_pass traced in
  let obs = Obs.Ctx.create ~events:(Obs.Events.recording ()) () in
  let events = timed_run ~obs spec in
  {
    untraced_s = untraced.wall_s;
    traced_s = traced_run.wall_s;
    events_s = events.wall_s;
    decision_s = float_of_int (Atomic.get acc.span_ns) *. 1e-9;
    arrival_s;
    adds_s;
    finalize_s;
    render_s;
    calls;
    batch;
    requests = n;
  }

let traced_min_passes = 3

(* Counts of the first sub-seed's run: deterministic per seed. *)
let control_counts (r : Serve.report) =
  let attempts =
    r.Serve.requests + r.Serve.retries + r.Serve.failovers + r.Serve.sheds
  in
  [
    count "control.retries" r.Serve.retries;
    count "control.failovers" r.Serve.failovers;
    count "control.sheds" r.Serve.sheds;
    count "control.steals" r.Serve.steals;
    count "control.steal_denials" r.Serve.steal_denials;
    count "control.heartbeats" r.Serve.heartbeats;
    count "control.degraded" r.Serve.degraded;
    metric "control.full_per_attempt" "ratio"
      [ float_of_int r.Serve.full /. float_of_int attempts ];
  ]

let per_layer specs ~seconds =
  let first = (timed_run specs.(0)).report in
  let sim = sim_time first and counts = control_counts first in
  let passes =
    repeat ~min:traced_min_passes ~seconds (fun i ->
        traced_pass specs.(i mod sub_seeds))
  in
  let control p =
    p.traced_s -. p.decision_s -. p.arrival_s -. p.adds_s -. p.finalize_s
  in
  List.iter
    (fun p ->
      check (control p >= 0.0) "control remainder %.6f s is negative"
        (control p))
    passes;
  let over f = List.map f passes in
  let per_req f = over (fun p -> f p *. 1e9 /. float_of_int p.requests) in
  let share f = over (fun p -> f p /. p.traced_s) in
  let accounting p = p.adds_s +. p.finalize_s in
  let pct f = over (fun p -> ((f p /. p.untraced_s) -. 1.0) *. 100.0) in
  let p0 = List.hd passes in
  let metrics =
    [
      metric "arrival.ns_per_req" "ns" (per_req (fun p -> p.arrival_s));
      metric "arrival.share" "ratio" (share (fun p -> p.arrival_s));
      count "decision.calls" p0.calls;
      count "decision.batch_requests" p0.batch;
      metric "decision.ns_per_call" "ns"
        (over (fun p ->
             p.decision_s *. 1e9 /. float_of_int (p.calls + p.batch)));
      metric "decision.share" "ratio" (share (fun p -> p.decision_s));
      metric "control.ns_per_req" "ns" (per_req control);
      metric "control.share" "ratio" (share control);
    ]
    @ counts
    @ [
      metric "accounting.ns_per_req" "ns" (per_req accounting);
      metric "accounting.share" "ratio" (share accounting);
      metric "accounting.stats_ns_per_add" "ns" (per_req (fun p -> p.adds_s));
      metric "accounting.stats_finalize_s" "s" (over (fun p -> p.finalize_s));
      metric "accounting.render_s" "s" (over (fun p -> p.render_s));
      metric "accounting.events_overhead_pct" "%" (pct (fun p -> p.events_s));
      metric "trace.overhead_pct" "%" (pct (fun p -> p.traced_s));
    ]
  in
  let attempted = List.fold_left (fun a p -> a + p.requests) 0 passes in
  (metrics, [], attempted, sim)

(* --- output --------------------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The checked-out commit when run from a git work tree, read from
   [.git] directly; "unknown" in an exported tree. *)
let commit () =
  try
    match String.split_on_char ' ' (String.trim (read_file ".git/HEAD")) with
    | [ "ref:"; name ] -> String.trim (read_file (Filename.concat ".git" name))
    | [ sha ] -> sha
    | _ -> "unknown"
  with Sys_error _ -> "unknown"

let provenance ~workload ~seed ~seconds ~trace metrics =
  let spread m =
    let fold f init = json_number (List.fold_left f init m.samples) in
    ( m.name,
      json_fields
        [
          ("n", string_of_int (List.length m.samples));
          ("median", json_number (median m.samples));
          ("min", fold Float.min infinity);
          ("max", fold Float.max neg_infinity);
        ] )
  in
  json_fields
    [
      ( "provenance",
        json_fields
          [
            ("workload", Obs.Jsonu.str workload);
            ("seed", string_of_int seed);
            ("seconds", json_number seconds);
            ("trace", string_of_int trace);
            ("commit", Obs.Jsonu.str (commit ()));
            ("ocaml", Obs.Jsonu.str Sys.ocaml_version);
            ("nproc", string_of_int (Domain.recommended_domain_count ()));
          ] );
      ("samples", json_fields (List.map spread metrics));
    ]

let result ~attempted metrics =
  json_fields
    [
      ("correct", "true");
      ("attempted", string_of_int attempted);
      ("failed", "0");
      ( "metrics",
        json_fields
          (List.map
             (fun m ->
               ( m.name,
                 json_fields
                   [
                     ("value", json_number (median m.samples));
                     ("unit", Obs.Jsonu.str m.unit_);
                   ] ))
             metrics) );
    ]

(* --- command line --------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: servebench --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: stream-1m chaos-steal large-cb";
  exit 2

let () =
  let rec parse acc = function
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let arg name =
    match List.assoc_opt name args with Some v -> v | None -> usage ()
  in
  let int_arg name =
    match int_of_string_opt (arg name) with Some v -> v | None -> usage ()
  in
  let workload = arg "workload" in
  let seed = int_arg "seed" in
  let seconds = float_of_int (int_arg "seconds") in
  let trace = int_arg "trace" in
  let make_spec =
    match List.assoc_opt workload workloads with Some f -> f | None -> usage ()
  in
  if trace <> 0 && trace <> 1 then usage ();
  try
    let specs = Array.init sub_seeds (fun k -> make_spec (sub_seed seed k)) in
    let metrics, info, attempted, sim =
      if trace = 0 then end_to_end specs ~seconds else per_layer specs ~seconds
    in
    Array.iter check_decisions specs;
    check_digests specs.(0);
    check_arrival_replay specs.(0);
    print_endline sim;
    print_endline
      (provenance ~workload ~seed ~seconds ~trace (metrics @ info));
    print_endline (result ~attempted metrics)
  with Check_failed msg ->
    Printf.eprintf "servebench: check failed: %s\n" msg;
    exit 1
