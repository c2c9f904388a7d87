(** Golden-copy scrubbing of the retrieval unit's live RAM image.

    The scrubber holds three views of the case-base memory: the
    {e golden} copy (what the flash repository holds, assumed
    fault-free), the {e live} copy (what the retrieval unit actually
    reads, and what SEUs corrupt), and the request words needed to
    run {!Analysis.Image_check} over the pair.

    Detection is two-tier, mirroring real BRAM scrubbers:

    + a cheap whole-image {!Qos_core.Util.fletcher16} comparison
      ({!checksum_matches}) — what a periodic hardware scrub
      engine would compute;
    + the full semantic {!diagnose} pass — the design-time image
      verifier re-run at run time, counting {e error}-severity
      diagnostics.

    {!corrupted_words} diffs live against golden and is the
    {e ground truth} the campaign uses to classify a retrieval over a
    corrupted image as detected or silent. *)

type t

val create :
  Qos_core.Casebase.t -> Qos_core.Request.t -> (t, string) result
(** Encode the case base (golden + live copies) and one
    representative request image for the checker; [Error] when the
    scenario does not encode. *)

val live : t -> int array
(** The words SEUs flip and retrievals read.  Mutated in place by
    {!Injector.flip_word} and {!repair}. *)

val corrupted_words : t -> int
(** Words currently differing from the golden copy (ground truth). *)

val clean : t -> bool

val checksum_matches : t -> bool
(** Cheap integrity probe: live checksum equals the golden one.  Note
    a multi-bit upset could in principle collide; {!corrupted_words}
    is the oracle, this is the modelled hardware mechanism. *)

val diagnose : t -> int
(** Error-severity diagnostics from {!Analysis.Image_check.check_raw}
    over the live image.  May be 0 even when corrupted — not every
    flipped bit breaks a checked invariant (e.g. an attribute value
    drifting inside its design bounds), which is exactly why the
    checksum tier exists. *)

val repair : t -> int
(** Reload live from golden (the flash re-read); returns how many
    words were rewritten. *)
