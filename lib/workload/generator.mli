(** Random but well-formed case bases and requests.

    The generators honour every invariant of the core model (sorted
    unique IDs, values within the design-time bounds, positive weights)
    so generated data can be layouted and executed by the hardware
    model without further checks.  All randomness flows from the given
    {!Prng.t}. *)

type schema_spec = {
  attr_count : int;
  max_bound : int;  (** Upper bounds drawn from [1, max_bound]. *)
}

val default_schema_spec : schema_spec
(** 10 attributes, bounds within [0, 1000]. *)

type casebase_spec = {
  type_count : int;
  impls_per_type : int * int;  (** Inclusive range. *)
  attrs_per_impl : int * int;
      (** Inclusive range; capped at the schema size.  Each variant
          carries a random subset of the schema. *)
}

val default_casebase_spec : casebase_spec
(** 15 types, 10 impls each, 10 attributes each — the Table 3
    full-set configuration. *)

type request_spec = {
  constraints : int * int;  (** Inclusive range; capped at schema size. *)
  weight_profile : [ `Equal | `Random ];
  value_slack : float;
      (** Probability that a requested value is drawn slightly outside
          the design bounds (exercises the similarity clamp). *)
}

val default_request_spec : request_spec

val schema : Prng.t -> schema_spec -> Qos_core.Attr.Schema.t

val casebase :
  Prng.t -> schema:Qos_core.Attr.Schema.t -> casebase_spec
  -> Qos_core.Casebase.t

val request :
  Prng.t ->
  schema:Qos_core.Attr.Schema.t ->
  type_id:int ->
  request_spec ->
  Qos_core.Request.t

val sized_casebase :
  seed:int -> types:int -> impls:int -> attrs:int -> Qos_core.Casebase.t
(** Convenience for sweeps: a fully populated case base where every
    variant has exactly [attrs] attributes drawn from a schema of the
    same size. *)

val sized_request : seed:int -> Qos_core.Casebase.t -> Qos_core.Request.t
(** Full-width equal-weight request against type 1 of a
    {!sized_casebase}. *)
