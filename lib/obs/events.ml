type kind =
  | Request_admitted of { app : string; type_id : int }
  | Request_retry of { attempt : int; delay_us : float }
  | Request_failover of { from_node : int }
  | Request_shed of { at_node : int }
  | Request_steal of { from_node : int; to_node : int option; scope : string }
  | Request_degraded of { reason : string; stale_impl : int option }
  | Request_completed of { at_node : int; impl_id : int; latency_us : float }
  | Request_failed of { error : string }
  | Node_transition of { prev : string; next : string }
  | Node_rejoin of { resync_lag_us : float }
  | Breaker_transition of { prev : string; next : string }
  | Scrub of { corrupted_words : int; diagnostics : int }
  | Relocation of { device : string; qos_delta : float }
  | Slo_alert of {
      objective : string;
      state : string;
      burn_fast : float;
      burn_slow : float;
    }

type event = { ts : float; request : int option; node : int option; kind : kind }

type state = {
  capacity : int;
  ring : event option array;
  mutable next : int;  (* Write cursor into [ring]. *)
  mutable stored : int;  (* <= capacity. *)
  mutable recorded : int;  (* Monotone, includes overwritten events. *)
}

type t = Noop | Recording of state

let default_capacity = 65536

let noop () = Noop

let recording ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Obs.Events.recording: capacity must be >= 1";
  Recording
    { capacity; ring = Array.make capacity None; next = 0; stored = 0;
      recorded = 0 }

let enabled = function Noop -> false | Recording _ -> true

let record t ~ts ?request ?node kind =
  match t with
  | Noop -> ()
  | Recording s ->
      s.ring.(s.next) <- Some { ts; request; node; kind };
      s.next <- (s.next + 1) mod s.capacity;
      if s.stored < s.capacity then s.stored <- s.stored + 1;
      s.recorded <- s.recorded + 1

let recorded = function Noop -> 0 | Recording s -> s.recorded
let dropped = function Noop -> 0 | Recording s -> s.recorded - s.stored
let capacity = function Noop -> 0 | Recording s -> s.capacity

let events = function
  | Noop -> []
  | Recording s ->
      (* Oldest-first: the slot after the write cursor when the ring has
         wrapped, slot 0 otherwise. *)
      let start = if s.stored < s.capacity then 0 else s.next in
      List.init s.stored (fun i ->
          match s.ring.((start + i) mod s.capacity) with
          | Some e -> e
          | None -> assert false)

let kind_name = function
  | Request_admitted _ -> "request-admitted"
  | Request_retry _ -> "request-retry"
  | Request_failover _ -> "request-failover"
  | Request_shed _ -> "request-shed"
  | Request_steal _ -> "request-steal"
  | Request_degraded _ -> "request-degraded"
  | Request_completed _ -> "request-completed"
  | Request_failed _ -> "request-failed"
  | Node_transition _ -> "node-transition"
  | Node_rejoin _ -> "node-rejoin"
  | Breaker_transition _ -> "breaker-transition"
  | Scrub _ -> "scrub"
  | Relocation _ -> "relocation"
  | Slo_alert _ -> "slo-alert"

(* One event, one line, fixed field order: ts, event, request, node,
   then the kind's own fields.  Every number goes through
   [Jsonu.float_str] / [%d], so the export is byte-deterministic. *)
let event_ndjson e =
  let buf = Buffer.create 96 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "{\"ts\":%s,\"event\":%s" (Jsonu.float_str e.ts)
    (Jsonu.str (kind_name e.kind));
  (match e.request with None -> () | Some r -> add ",\"request\":%d" r);
  (match e.node with None -> () | Some n -> add ",\"node\":%d" n);
  (match e.kind with
  | Request_admitted { app; type_id } ->
      add ",\"app\":%s,\"type\":%d" (Jsonu.str app) type_id
  | Request_retry { attempt; delay_us } ->
      add ",\"attempt\":%d,\"delay_us\":%s" attempt (Jsonu.float_str delay_us)
  | Request_failover { from_node } -> add ",\"from_node\":%d" from_node
  | Request_shed { at_node } -> add ",\"at_node\":%d" at_node
  | Request_steal { from_node; to_node; scope } ->
      add ",\"from_node\":%d" from_node;
      (match to_node with None -> () | Some n -> add ",\"to_node\":%d" n);
      add ",\"scope\":%s" (Jsonu.str scope)
  | Request_degraded { reason; stale_impl } ->
      add ",\"reason\":%s" (Jsonu.str reason);
      (match stale_impl with
      | None -> ()
      | Some impl -> add ",\"stale_impl\":%d" impl)
  | Request_completed { at_node; impl_id; latency_us } ->
      add ",\"at_node\":%d,\"impl\":%d,\"latency_us\":%s" at_node impl_id
        (Jsonu.float_str latency_us)
  | Request_failed { error } -> add ",\"error\":%s" (Jsonu.str error)
  | Node_transition { prev; next } ->
      add ",\"prev\":%s,\"next\":%s" (Jsonu.str prev) (Jsonu.str next)
  | Node_rejoin { resync_lag_us } ->
      add ",\"resync_lag_us\":%s" (Jsonu.float_str resync_lag_us)
  | Breaker_transition { prev; next } ->
      add ",\"prev\":%s,\"next\":%s" (Jsonu.str prev) (Jsonu.str next)
  | Scrub { corrupted_words; diagnostics } ->
      add ",\"corrupted_words\":%d,\"diagnostics\":%d" corrupted_words
        diagnostics
  | Relocation { device; qos_delta } ->
      add ",\"device\":%s,\"qos_delta\":%s" (Jsonu.str device)
        (Jsonu.float_str qos_delta)
  | Slo_alert { objective; state; burn_fast; burn_slow } ->
      add ",\"objective\":%s,\"state\":%s,\"burn_fast\":%s,\"burn_slow\":%s"
        (Jsonu.str objective) (Jsonu.str state) (Jsonu.float_str burn_fast)
        (Jsonu.float_str burn_slow));
  add "}";
  Buffer.contents buf

let to_ndjson t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (event_ndjson e);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.add_string buf
    (Printf.sprintf "{\"event\":\"eventlog-summary\",\"recorded\":%d,\
                     \"dropped\":%d}\n"
       (recorded t) (dropped t));
  Buffer.contents buf
