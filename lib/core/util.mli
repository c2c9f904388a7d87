(** Small shared helpers with no better home.

    {!ok_exn} is the one blessed way to unwrap a [result] whose
    failure would mean a {e built-in} fixture or constant is broken —
    a programming error, not a user error.  Carrying the module
    context in every raise means the four built-in scenario builders
    die with one uniform error shape instead of four ad-hoc ones. *)

val ok_exn : ctx:string -> ('a, string) result -> 'a
(** [ok_exn ~ctx r] returns [x] for [Ok x] and raises [Failure
    (ctx ^ ": " ^ e)] for [Error e]. *)

val fletcher16 : int array -> int
(** Fletcher-16 over 16-bit words (each masked to 16 bits), widened to
    [sum2 * 2{^16} + sum1].  The fault scrubber's readback compare —
    an O(n) whole-image fingerprint that needs no structural decode. *)
