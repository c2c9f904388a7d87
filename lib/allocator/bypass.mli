(** Bypass tokens (Sec. 3): once a function is allocated, repeated calls
    with the same QoS description skip the retrieval and only check
    that the variant is still resident.

    A token is addressed by (application, function type, request
    fingerprint) and remembers the selected variant.  The 62-bit
    fingerprint is not injective, so every entry also stores the
    constraint triples it was created from and a hit is
    verified against them: a fingerprint collision between two distinct
    requests is reported as a miss (counted separately in
    {!type-stats}) instead of silently returning the wrong variant.
    Tokens are invalidated when the variant is unloaded. *)

type key
(** Lookup key: application, function type, fingerprint, plus the full
    signature used to verify hits. *)

val fingerprint : Qos_core.Request.t -> int
(** Order-independent (constraints are stored sorted) hash of the
    constraint triples, with each weight as its request's Q15 word
    ([Request.constr.q15]) so requests that the hardware cannot
    distinguish share a token. *)

val signature : Qos_core.Request.t -> (int * int * int) list
(** [(attr, value, raw q15)] triples, built from the request's
    [Request.constr.q15] — the exact data the fingerprint summarises.
    Two requests with equal signatures are indistinguishable to the
    retrieval hardware. *)

val key_of :
  ?fingerprint:(Qos_core.Request.t -> int) ->
  app_id:string ->
  Qos_core.Request.t ->
  key
(** [?fingerprint] substitutes the hash function; it exists so tests
    can force collisions with a deliberately weak hash and check that
    verification catches them.  Production callers omit it. *)

type t

val create : unit -> t

val lookup : t -> key -> int option
(** Remembered implementation ID.  Counts a hit only when the stored
    signature matches the key's; a fingerprint collision counts as a
    verified miss and returns [None]. *)

val peek : t -> key -> int option
(** Like {!lookup} (including signature verification) but touches no
    counters — for advisory consultation, e.g. offering a stale variant
    to a shed request. *)

val remember : t -> key -> impl_id:int -> unit

val invalidate_impl : t -> type_id:int -> impl_id:int -> int
(** Drop every token pointing at the variant; returns how many were
    dropped. *)

val invalidate_app : t -> app_id:string -> int

type stats = {
  hits : int;
  misses : int;
  verified_misses : int;
      (** Fingerprint matched but the stored constraints differed — a
          detected hash collision. *)
  tokens : int;
  invalidations : int;
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
