type summary = {
  n : int;
  mean : float;
  stddev : float;
  minimum : float;
  maximum : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  nonfinite : int;
}

(* Nearest rank, 1-based: the smallest integer r with r >= p/100 * n.
   The two float roundings in [p *. n /. 100.0] can land the product a
   few ulps *above* an exact integer boundary (e.g. 99.9/100 * 1000 =
   999.0000000000001), which a plain [ceil] then bumps to the next
   rank.  Subtract a relative epsilon before ceiling so exact
   boundaries stay on their own rank; the epsilon is far smaller than
   the 1/n spacing between ranks for any realistic n. *)
let nearest_rank ~p ~n =
  let x = p *. float_of_int n /. 100.0 in
  max 1 (int_of_float (Float.ceil (x -. (1e-9 *. Float.max 1.0 x))))

(* --- Streaming accumulator ---------------------------------------------- *)

(* Values land in a doubling float array rather than a list: one flat
   buffer, sorted in place at [finalize] for the percentiles. *)
type acc = {
  mutable values : float array;
  mutable used : int;
  mutable nonfinite : int;
}

let create () = { values = Array.make 16 0.0; used = 0; nonfinite = 0 }

let add acc v =
  if not (Float.is_finite v) then acc.nonfinite <- acc.nonfinite + 1
  else begin
    if acc.used = Array.length acc.values then begin
      let grown = Array.make (2 * acc.used) 0.0 in
      Array.blit acc.values 0 grown 0 acc.used;
      acc.values <- grown
    end;
    acc.values.(acc.used) <- v;
    acc.used <- acc.used + 1
  end

let count acc = acc.used
let nonfinite_count acc = acc.nonfinite

(* --- LSD radix sort on the IEEE-754 bits ------------------------------------ *)

let digit_bits = 11
let digit_mask = (1 lsl digit_bits) - 1

(* Digit [shift / digit_bits] of [v]'s sort key.  The key flips every
   bit of a negative value and only the sign bit of any other, so the
   keys' unsigned order is float order, with [-0.0] just below [0.0].
   Inlined so that [v] and the key stay unboxed. *)
let[@inline] digit v shift =
  let b = Int64.bits_of_float v in
  let key = Int64.logxor b (Int64.logor (Int64.shift_right b 63) Int64.min_int) in
  Int64.to_int (Int64.shift_right_logical key shift) land digit_mask

(* Sorts [values.(0 .. n-1)] in place, [n >= 1], one stable counting
   pass per digit through one scratch array of [n] floats.  A pass
   whose digit is the same for every value moves nothing. *)
let radix_sort values n =
  let counts = Array.make (digit_mask + 1) 0 in
  let src = ref values and dst = ref (Array.create_float n) in
  let shift = ref 0 in
  while !shift < 64 do
    let a = !src and b = !dst and s = !shift in
    Array.fill counts 0 (digit_mask + 1) 0;
    for i = 0 to n - 1 do
      let d = digit (Array.unsafe_get a i) s in
      counts.(d) <- counts.(d) + 1
    done;
    if counts.(digit a.(0) s) < n then begin
      let start = ref 0 in
      for d = 0 to digit_mask do
        let c = counts.(d) in
        counts.(d) <- !start;
        start := !start + c
      done;
      for i = 0 to n - 1 do
        let v = Array.unsafe_get a i in
        let d = digit v s in
        b.(counts.(d)) <- v;
        counts.(d) <- counts.(d) + 1
      done;
      src := b;
      dst := a
    end;
    shift := s + digit_bits
  done;
  if !src != values then Array.blit !src 0 values 0 n

let finalize acc =
  if acc.used = 0 then None
  else begin
    let n = acc.used in
    let sorted = acc.values in
    radix_sort sorted n;
    let fn = float_of_int n in
    (* Left to right over the sorted prefix: the order fixes the
       rounding, and a loop boxes no float. *)
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. sorted.(i)
    done;
    let mu = !total /. fn in
    let squares = ref 0.0 in
    for i = 0 to n - 1 do
      squares := !squares +. ((sorted.(i) -. mu) ** 2.0)
    done;
    let variance = !squares /. fn in
    (* Nearest rank on the sorted buffer. *)
    let pct p =
      let rank = nearest_rank ~p ~n in
      sorted.(min (n - 1) (rank - 1))
    in
    Some
      {
        n;
        mean = mu;
        stddev = sqrt variance;
        minimum = sorted.(0);
        maximum = sorted.(n - 1);
        p50 = pct 50.0;
        p90 = pct 90.0;
        p95 = pct 95.0;
        p99 = pct 99.0;
        nonfinite = acc.nonfinite;
      }
  end

let summarize values =
  let acc = create () in
  List.iter (add acc) values;
  finalize acc

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f"
    s.n s.mean s.stddev s.minimum s.p50 s.p90 s.p95 s.p99 s.maximum;
  if s.nonfinite > 0 then Format.fprintf ppf " nonfinite=%d" s.nonfinite
