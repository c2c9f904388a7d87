(** The case base: the function-implementation tree of Fig. 3/5 plus the
    design-time attribute schema (supplemental data). *)

type t = private {
  name : string;
  schema : Attr.Schema.t;
  ftypes : Ftype.t list;  (** Sorted by function-type ID. *)
}

type stats = {
  type_count : int;
  impl_count : int;  (** Total over all types. *)
  attr_entry_count : int;  (** Total attribute/value pairs over all impls. *)
  max_impls_per_type : int;
  max_attrs_per_impl : int;
}

val make :
  name:string -> schema:Attr.Schema.t -> Ftype.t list -> (t, string) result
(** Sorts function types; rejects duplicate type IDs, attributes missing
    from the schema, and out-of-bounds attribute values. *)

val restrict : name:string -> (Ftype.t -> bool) -> t -> t
(** [restrict ~name keep t] is [t] cut down to the function types that
    satisfy [keep], under [name].  It needs no validation: every type
    it keeps was validated when [t] was made, and it keeps their
    order. *)

val derive_schema :
  ?naming:(Attr.id -> string) -> Ftype.t list -> (Attr.Schema.t, string) result
(** Builds the design-time schema the way the paper does: per attribute
    ID, bounds are the min/max over every value in the implementation
    library. *)

val find_type : t -> int -> Ftype.t option
val find_impl : t -> type_id:int -> impl_id:int -> Impl.t option
val stats : t -> stats
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val pp_stats : Format.formatter -> stats -> unit
