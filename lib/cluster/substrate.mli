(** The multi-node substrate: membership, replica placement and
    per-node retrieval engines.

    Each node owns a device inventory (an FPGA fabric plus a GPP, the
    minimal Fig. 1 slice), hosts the sub-case-base of every function
    type the {!Ring} routes to it, and compiles that sub-case-base into
    its own [Qos_core.Engine] instance.  Because a replica hosts the
    {e entire} function type — every implementation variant — a
    retrieval answered by any replica of a type is decision-identical
    to the single-node answer over the full case base: failover never
    changes the decision, only who serves it.

    Construction is a pure function of (case base, node count,
    replication, fault domains, engine factory): same inputs, same
    placement, same engines, on every run.

    Placement is routed once per run: {!create} walks the ring for
    every case-base type and keeps the replica lists in a read-only
    table, so {!replicas_for}, {!holds} and {!members} are lookups
    that any domain may call while requests are served. *)

type node = {
  node_id : int;
  fault_domain : int;
  devices : Allocator.Device.t list;  (** This node's inventory. *)
  slots : int;  (** Concurrent-service capacity derived from devices. *)
  hosted_types : int list;  (** Ascending function-type IDs. *)
  casebase : Qos_core.Casebase.t;  (** Sub-case-base of hosted types. *)
  engine : Qos_core.Engine.t option;  (** [None] when nothing is hosted. *)
  entries : int;  (** Implementation variants hosted (re-sync unit). *)
  mutable inflight : int;  (** Requests being served right now. *)
  mutable peak_inflight : int;  (** High-water mark of [inflight]. *)
}

type placement
(** The table {!create} builds: each case-base type's replica set and
    the node IDs.  Never written after [create] returns. *)

type t = {
  nodes : node array;  (** Indexed by [node_id]. *)
  ring : Ring.t;
  replication : int;  (** Effective (clamped to the node count). *)
  fault_domains : int;
  casebase : Qos_core.Casebase.t;  (** The full case base. *)
  placement : placement;
}

val create :
  ?vnodes:int ->
  ?fault_domains:int ->
  nodes:int ->
  replication:int ->
  engine:Qos_core.Engine.factory ->
  Qos_core.Casebase.t ->
  (t, string) result
(** [fault_domains] defaults to 3 (racks); node [i] lives in domain
    [i mod fault_domains].  [replication] is clamped to [nodes].
    Fails when any hosted sub-case-base refuses to compile for the
    chosen engine. *)

val replicas_for : t -> type_id:int -> int list
(** Replica node IDs in routing order (primary first): the list
    {!create} routed for a case-base type, read from its table.  A
    type outside the case base falls back to
    [Ring.route ring ~key:type_id ~replicas:replication], which is
    also what the table holds for every case-base type. *)

val node : t -> int -> node

val members : t -> int list
(** Every node ID, ascending; built once by {!create}. *)

val holds : t -> node:int -> type_id:int -> bool
(** Whether [node] hosts [type_id]'s sub-case-base, read from the
    table {!create} built: [node] is in the type's replica list.
    [false] for a type outside the case base. *)

(** {1 Load accounting}

    Shared by the serving ladder and the {!Steal} policy so both see
    the same in-flight picture. *)

val acquire : t -> node:int -> unit
(** Start serving one request on [node]; tracks the peak. *)

val release : t -> node:int -> unit
(** Finish (or abandon) one request on [node]. *)

val load : t -> node:int -> int * int
(** [(inflight, slots)] for [node]. *)
