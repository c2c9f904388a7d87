let pass_name = "range"

type interval = { lo : int; hi : int }

type attr_range = {
  attr_id : int;
  dmax : int;
  recip : int;
  product : interval;
  local : interval;
}

type report = {
  attr_ranges : attr_range list;
  score : interval;
  diagnostics : Diagnostic.t list;
}

let one = Fxp.Q15.to_raw Fxp.Q15.one
let sat_bound = 65535

let err ~loc fmt = Diagnostic.errorf ~pass:pass_name ~loc fmt
let info ~loc fmt = Diagnostic.infof ~pass:pass_name ~loc fmt

(* Interval image of [Fxp.complement_to_one]: monotone decreasing on
   [0, one), collapsing to 0 at and above [one]. *)
let complement_interval p =
  let at x = if x >= one then 0 else one - x in
  { lo = min (at p.lo) (at p.hi); hi = max (at p.lo) (at p.hi) }

(* One local-similarity datapath: |d| in [0, dmax], multiplied by the
   reciprocal word, complemented.  Reports the multiplier saturating. *)
let attr_datapath diags ~attr_id ~dmax ~recip =
  let raw_hi = dmax * recip in
  if raw_hi > sat_bound then
    diags :=
      err
        ~loc:(Printf.sprintf "attr %d" attr_id)
        "|d| * recip saturates the 16-bit multiplier: dmax=%d, recip=%d, \
         product up to %d > %d (equation (1) loses monotonicity)"
        dmax recip raw_hi sat_bound
      :: !diags;
  let product = { lo = 0; hi = min raw_hi sat_bound } in
  { attr_id; dmax; recip; product; local = complement_interval product }

(* Weighted term, Q15 round-to-nearest as the datapath computes it. *)
let term_hi ~weight ~local_hi = ((weight * local_hi) + 16384) lsr 15

let score_of_terms diags terms =
  let hi_raw = List.fold_left (fun acc (_, hi) -> acc + min hi sat_bound) 0 terms in
  if hi_raw > sat_bound then begin
    let witness =
      String.concat ", "
        (List.map (fun (aid, hi) -> Printf.sprintf "attr %d: %d" aid hi) terms)
    in
    diags :=
      err ~loc:"score"
        "the accumulating adder saturates: weighted terms can sum to %d > %d \
         (%s)"
        hi_raw sat_bound witness
      :: !diags
  end;
  let hi = min hi_raw sat_bound in
  if hi_raw <= sat_bound && hi > one then
    diags :=
      info ~loc:"score"
        "the global similarity can reach raw %d, %d ulp(s) above Q15 one — \
         the per-weight rounding slack of the request encoding"
        hi (hi - one)
      :: !diags;
  { lo = 0; hi }

let finish diags attr_ranges score =
  { attr_ranges; score; diagnostics = Diagnostic.sort !diags }

(* Worst case over the request domain: any normalised request over up
   to all schema attributes.  Per-term saturation is impossible (each
   weight is at most one ulp-rounded share of 1), and the accumulator
   is bounded by one plus the documented rounding slack of ceil(m/2)
   ulps — proven here rather than enumerated. *)
let analyze (cb : Qos_core.Casebase.t) =
  let open Qos_core in
  let diags = ref [] in
  let attr_ranges =
    List.map
      (fun (d : Attr.descriptor) ->
        let dmax = Attr.dmax d in
        attr_datapath diags ~attr_id:d.Attr.id ~dmax
          ~recip:(Fxp.Q15.to_raw (Fxp.Q15.recip_succ dmax)))
      (Attr.Schema.descriptors cb.Casebase.schema)
  in
  let m = List.length attr_ranges in
  let hi = min sat_bound (if m = 0 then 0 else one + ((m + 1) / 2)) in
  if hi > one then
    diags :=
      info ~loc:"score"
        "over all normalised requests with up to %d constraints the global \
         similarity is bounded by raw %d (%d ulp(s) of weight rounding \
         slack); the accumulator cannot saturate"
        m hi (hi - one)
      :: !diags;
  finish diags attr_ranges { lo = 0; hi }

let analyze_raw ~supplemental ~weights =
  let diags = ref [] in
  let attr_ranges =
    List.map
      (fun (attr_id, lower, upper, recip) ->
        attr_datapath diags ~attr_id ~dmax:(max 0 (upper - lower)) ~recip)
      supplemental
  in
  let local_hi aid =
    match List.find_opt (fun r -> r.attr_id = aid) attr_ranges with
    | Some r -> r.local.hi
    | None -> one (* unconstrained by the schema: assume the full range *)
  in
  let terms =
    List.map
      (fun (aid, w) ->
        let hi = term_hi ~weight:w ~local_hi:(local_hi aid) in
        if hi > sat_bound then
          diags :=
            err
              ~loc:(Printf.sprintf "attr %d" aid)
              "weighted term saturates: weight=%d times local similarity \
               yields raw %d > %d"
              w hi sat_bound
            :: !diags;
        (aid, hi))
      weights
  in
  let score = score_of_terms diags terms in
  finish diags attr_ranges score
