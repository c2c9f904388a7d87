(** Deterministic metrics registry: counters, gauges and fixed-bucket
    histograms with labels.

    Every sample is driven by sim-time or cycle counts supplied by the
    caller — the registry never reads a wall clock — so both export
    formats are byte-deterministic for a given run and can be checked
    against golden files.

    A metric {e family} is a (name, kind, help) triple registered once;
    each distinct label set under a family is an independent {e cell}.
    Re-registering the same family/cell returns the existing cell, so
    instrumented components can resolve their handles idempotently.
    Registering the same name with a different kind, or malformed
    names/labels, raises [Invalid_argument] — observability bugs should
    fail loudly at registration, never at export. *)

type t
(** A registry.  Not thread-safe (the whole stack is single-threaded
    simulation). *)

type counter
type gauge
type histogram

val create : unit -> t

val counter :
  t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Monotone integer counter, starts at 0. *)

val gauge :
  t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
(** Last-write-wins float gauge, starts at 0. *)

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  buckets:float list ->
  string ->
  histogram
(** Fixed-bucket histogram.  [buckets] are finite, strictly increasing
    upper bounds; an implicit [+Inf] bucket is always appended.  All
    cells of one family must use identical buckets. *)

val inc : counter -> unit
val inc_by : counter -> int -> unit
(** @raise Invalid_argument on a negative amount. *)

val counter_value : counter -> int
val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Non-finite observations are dropped (histograms must stay
    exportable no matter what a hot path feeds them). *)

val default_buckets : float list
(** Powers-of-two microsecond latency ladder: 1, 2, 4, ... 65536. *)

val latency_buckets_us : float list
(** Purpose-fit request-latency ladder: resolves the ~40-60 us service
    knee (25-150 us steps) and the retry/backoff tail (200 us - 50 ms)
    instead of spending half the ladder below 1 us of sim-time. *)

val lag_buckets_us : float list
(** MTTR-scale ladder (1 ms - 1 s) for rejoin re-replication lag and
    other recovery durations. *)

val to_prometheus : t -> string
(** Text exposition format: [# HELP]/[# TYPE] headers, families sorted
    by name, cells sorted by label serialisation, histogram cells as
    cumulative [_bucket{le=...}] plus [_sum]/[_count]. *)

val to_json : t -> string
(** Canonical JSON export, same ordering as {!to_prometheus}:
    [{"metrics":[{"name","type","help","series":[...]}]}]. *)
