(** Seed-driven node-outage campaigns for the cluster substrate.

    Where {!Campaign} injects faults into one machine's devices, this
    module schedules whole-{e node} failures: a bounded set of
    permanent kills plus per-node Poisson bounce storms (transient
    outages with uniform durations).  The schedule is drawn entirely
    from one {!Injector} stream, so a campaign is a pure function of
    the injector's seed — the property the cluster's byte-identical
    end-of-run reports rest on.

    Node identity is positional ([0 .. nodes-1]); the consumer maps
    indices onto its own node records. *)

type event = {
  ev_node : int;
  ev_at_us : float;
  ev_kind : [ `Transient of float | `Permanent ];
      (** [`Transient dur] restores the node [dur] us later. *)
}

type spec = {
  permanent_frac : float;
      (** Fraction of the fleet killed for good: [floor (frac * nodes)]
          distinct victims.  Clamped to [0, 1]. *)
  permanent_window : float * float;
      (** Kill times land uniformly in this window, given as fractions
          of the campaign duration (e.g. [(0.2, 0.7)]). *)
  transient_mean_us : float option;
      (** Mean interval of each node's Poisson bounce process; [None]
          disables transient outages. *)
  transient_down_us : float * float;
      (** Uniform range of a transient outage's duration. *)
}

val default_spec : spec
(** No permanent kills, bounces off — a campaign that schedules
    nothing. *)

val generate : Injector.t -> nodes:int -> duration_us:float -> spec -> event list
(** Draw one campaign.  Invariants: events are sorted by
    [(ev_at_us, ev_node)]; per node, transient outages are disjoint;
    no event is scheduled on or after a node's permanent kill; every
    event lands inside [0, duration_us).
    @raise Invalid_argument when [nodes < 1], or when bounces are on
    and a [transient_down_us] bound is negative or not finite. *)

val down_intervals : event list -> duration_us:float -> node:int -> (float * float) list
(** The node's ground-truth downtime as sorted disjoint
    [(from, until)] intervals (a permanent kill extends to
    [duration_us]) — the oracle health checks and availability
    accounting read. *)

(** {1 Lookups}

    {!down_intervals} sorts a node's spans by start and merges any span
    that starts at or before the previous one's end, so each interval
    starts after every earlier one has ended.  The array form keeps
    that order; both lookups binary-search the starts for the last
    interval that began at or before the query time, in O(log n)
    instead of a scan of the list. *)

type down_table = private { starts : float array; ends : float array }
(** One node's {!down_intervals}: interval [i] is
    [[starts.(i), ends.(i))].  Read-only. *)

val down_table : event list -> duration_us:float -> node:int -> down_table
(** [down_intervals events ~duration_us ~node] as arrays. *)

val is_down : down_table -> float -> bool
(** Whether [t] lies in some interval [lo <= t < hi]: the last
    interval with [lo <= t] has [t < hi]. *)

val next_down : down_table -> float -> float option
(** The start of the first interval with [lo > t], the next time the
    node goes down after [t]; [None] when no interval starts later. *)
