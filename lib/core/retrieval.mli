(** What every retrieval engine answers, and the ranking they share.

    The paper's unit answers a request with an implementation ID and
    its Q15 similarity, or with its not-found flag (Sec. 4, Fig. 7).
    {!error} is that flag, classified, for every engine; [Engine]
    re-exports it. *)

type error =
  | Unknown_type of int
      (** The requested function type is absent from the case base.  The
          paper notes this "should not happen" since functional
          requirements are known at design time — it is still an error a
          run-time system must surface. *)
  | No_implementations of int
      (** The function type exists but its variant list is empty. *)
  | Engine_failure of string
      (** Engine-specific failure, e.g. a RAM image that does not
          decode or a request that does not encode. *)

type 'score ranked = { impl : Impl.t; score : 'score }
(** One scored implementation variant. *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit
val equal_error : error -> error -> bool

val rank :
  compare:('score -> 'score -> int) ->
  (Impl.t -> 'score) ->
  Casebase.t ->
  Request.t ->
  ('score ranked list, error) result
(** Every variant of the requested type, scored and sorted best first
    under [compare].  The sort is stable, so equal scores keep
    case-base order: the hardware's strict [S > S_best] update
    (Fig. 6). *)

val best : ('score ranked list, error) result -> ('score ranked, error) result
(** The head of a {!rank} result, which is never an empty list. *)

val n_best :
  n:int ->
  ('score ranked list, error) result ->
  ('score ranked list, error) result
(** Up to [n] leading variants of a ranking; [n <= 0] yields an empty
    list. *)
