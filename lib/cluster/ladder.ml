(* The serving ladder's rungs as pure functions over explicit state.
   [Serve.run] asks them what to do and applies the answer: it
   schedules, acquires and releases slots, marks breakers and counts.
   A rung reads the cluster only through the views it is handed, so
   each one is tested on its own. *)

type reason = Breaker_open | All_replicas_down | Saturated | Retries_exhausted

let reason_to_string = function
  | Breaker_open -> "breaker-open"
  | All_replicas_down -> "all-replicas-down"
  | Saturated -> "saturated"
  | Retries_exhausted -> "retries-exhausted"

type replica = { status : Health.status; resyncing : bool; admits : bool }
type skips = { down : bool; breaker : bool; saturated : bool }
type walk = { attempt : int; pending : int list; skips : skips }

let connect_timeout_us = 100.0

(* Skip: a detector-down or still-resyncing replica is not tried, nor
   one whose breaker refuses; suspects go to the back of the line. *)
let round ~attempt ~view replicas =
  let rec go ups sus down breaker = function
    | [] ->
        {
          attempt;
          pending = List.rev_append ups (List.rev sus);
          skips = { down; breaker; saturated = false };
        }
    | node :: rest -> (
        let r = view node in
        match r.status with
        | Health.Down -> go ups sus true breaker rest
        | _ when r.resyncing -> go ups sus true breaker rest
        | _ when not r.admits -> go ups sus down true rest
        | Health.Suspect -> go ups (node :: sus) down breaker rest
        | Health.Up -> go (node :: ups) sus down breaker rest)
  in
  go [] [] false false replicas

let victim r = r.status = Health.Up && (not r.resyncing) && r.admits

type placement =
  | Serve of { denied : bool }
  | Shed of { denied : bool }
  | Steal of Steal.pick

(* Steal from an overloaded node when a victim has headroom; otherwise
   a full node sheds towards the next candidate instead of queueing. *)
let place policy ~salt ~node ~replicas ~members ~view ~load ~holds =
  let inflight, slots = load node in
  let stealing =
    policy.Steal.enabled && Steal.overloaded policy ~inflight ~slots
  in
  match
    if stealing then
      Steal.select policy ~salt ~donor:node ~replicas ~members ~load ~holds
        ~eligible:(fun v -> victim (view v))
    else None
  with
  | Some p -> Steal p
  | None when inflight >= slots -> Shed { denied = stealing }
  | None -> Serve { denied = stealing }

let claims_probe = function
  | Breaker.Half_open -> true
  | Breaker.Closed | Breaker.Open -> false

(* An attempt routed to a node that is already down costs the connect
   timeout; one whose node goes down inside the service window dies
   then. *)
let kill_time down ~at ~service_us =
  if Faults.Outages.is_down down at then Some (at +. connect_timeout_us)
  else
    match Faults.Outages.next_down down at with
    | Some lo as next when lo <= at +. service_us -> next
    | Some _ | None -> None

let shed w = { w with skips = { w.skips with saturated = true } }

let degrade_reason s =
  if s.saturated then Saturated
  else if s.breaker then Breaker_open
  else if s.down then All_replicas_down
  else Retries_exhausted

type step = Try of int * walk | Retry of float | Degrade of reason

(* Failover and shed continue with the candidates left; once they run
   out the request backs off, and past [max_retries] it degrades. *)
let next backoff ~max_retries ~draw w =
  match w.pending with
  | node :: pending -> Try (node, { w with pending })
  | [] when w.attempt < max_retries ->
      let u = if backoff.Faults.Backoff.jitter > 0.0 then draw () else 0.5 in
      Retry (Faults.Backoff.delay backoff ~attempt:w.attempt ~u)
  | [] -> Degrade (degrade_reason w.skips)
