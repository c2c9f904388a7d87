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
   buffer, sorted once at [finalize] for the percentiles. *)
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

let finalize acc =
  if acc.used = 0 then None
  else begin
    let sorted = Array.sub acc.values 0 acc.used in
    Array.sort Float.compare sorted;
    let n = acc.used in
    let fn = float_of_int n in
    let total = Array.fold_left ( +. ) 0.0 sorted in
    let mu = total /. fn in
    let variance =
      Array.fold_left (fun s v -> s +. ((v -. mu) ** 2.0)) 0.0 sorted /. fn
    in
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
