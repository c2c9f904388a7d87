(** Pass 1 — the RAM-image verifier.

    Re-checks, over the raw 16-bit words of a [Memlayout] system image,
    every design-time invariant the paper's retrieval unit silently
    relies on (Sec. 4.1, Figs. 4-5):

    - every list (request, supplemental, all three tree levels) is
      terminated by the dedicated end marker, with no stray words after
      the terminator of the request/supplemental lists;
    - attribute blocks are sorted by strictly ascending ID — the
      invariant that lets scans resume mid-list instead of restarting;
    - tree pointers stay inside the tree region and the walked lists
      tile it exactly (no overlaps, no unreachable words);
    - no ID/value slot holds the reserved word [0xFFFF]
      ([Memlayout.end_marker]);
    - supplemental bounds satisfy [lower <= upper] and the stored
      reciprocal word equals the Q15 rounding of [(1 + (upper-lower))^-1]
      — the "maxrange-1" constant the datapath multiplies by;
    - the request's raw Q15 weights sum to [Q15.one] within the
      documented rounding slack of [ceil(k/2)] ulps for [k] weights
      (each weight is rounded to nearest independently).

    Cross-structure sanity is reported as warnings: a requested type
    absent from the tree, a request constraint or tree attribute the
    supplemental list does not describe, or a tree value outside the
    supplemental design bounds (which breaks the [dmax]
    normalisation). *)

val pass_name : string
(** "image". *)

val check_raw :
  cb_mem:int array ->
  req_mem:int array ->
  supplemental_base:int ->
  Diagnostic.t list
(** Verify raw memory words (e.g. re-imported from exported hex
    files).  Trusts nothing but the two arrays and the supplemental
    base. *)

val check_system : Memlayout.system_image -> Diagnostic.t list
(** [check_raw] over the image's words and supplemental base — only
    what the hardware can see is checked. *)
