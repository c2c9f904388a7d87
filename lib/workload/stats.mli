(** Small descriptive-statistics helpers for experiment reporting. *)

type summary = {
  n : int;  (** Finite values summarised. *)
  mean : float;
  stddev : float;  (** Population standard deviation. *)
  minimum : float;
  maximum : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  nonfinite : int;
      (** NaN/inf inputs that were skipped rather than accumulated.  A
          nonzero count flags a producer bug without discarding the
          finite samples around it. *)
}

(** {1 Streaming accumulation}

    [create]/[add]/[finalize] build a summary without the caller
    materialising a [float list]: values stream into one flat buffer,
    which each [finalize] sorts in place with a linear-time radix sort
    on the values' IEEE-754 bits. *)

type acc

val create : unit -> acc

val add : acc -> float -> unit
(** Non-finite values are skipped and counted ({!nonfinite_count});
    they no longer poison the whole accumulator. *)

val count : acc -> int
(** Finite values accumulated so far. *)

val nonfinite_count : acc -> int
(** NaN/inf values skipped so far. *)

val finalize : acc -> summary option
(** [None] only when no finite value was added.  The accumulator may
    be finalized more than once; further [add]s are also allowed (the
    summary is a snapshot).

    The sort runs in place on the accumulator's buffer, with one
    scratch array of {!count} floats, and allocates nothing per value.
    It orders [-0.0] just below [0.0].  The order of the buffer is not
    part of the contract: the summary is the same in any order. *)

val summarize : float list -> summary option
(** Wrapper over [create]/[add]/[finalize].  [None] when the list
    holds no finite value; non-finite entries are skipped and surface
    as [nonfinite] in the summary. *)

val nearest_rank : p:float -> n:int -> int
(** The 1-based rank {!finalize} reads percentile [p] (within
    [0, 100]) from among [n] sorted values: the smallest [r >= 1] with
    [r >= p/100 * n], guarded so that float rounding cannot push an
    exact boundary (p99.9 of 1000 values is rank 999) to the next
    rank. *)

val pp_summary : Format.formatter -> summary -> unit
