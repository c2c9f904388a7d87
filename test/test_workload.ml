(* Tests for the deterministic PRNG and the workload generators. *)

open Qos_core
module P = Workload.Prng
module G = Workload.Generator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- PRNG ------------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = P.create ~seed:123 and b = P.create ~seed:123 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Int64.equal (P.int64 a) (P.int64 b))
  done;
  let c = P.create ~seed:124 in
  check_bool "different seed diverges" true
    (not (Int64.equal (P.int64 (P.create ~seed:123)) (P.int64 c)))

let test_prng_copy_and_split () =
  let a = P.create ~seed:9 in
  let _ = P.int64 a in
  let b = P.copy a in
  check_bool "copy continues identically" true
    (Int64.equal (P.int64 a) (P.int64 b));
  let parent = P.create ~seed:9 in
  let child = P.split parent in
  check_bool "split stream differs from parent" true
    (not (Int64.equal (P.int64 parent) (P.int64 child)))

let test_prng_bounds () =
  let rng = P.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = P.int rng ~bound:7 in
    check_bool "int in [0,7)" true (v >= 0 && v < 7);
    let w = P.int_in rng ~lo:3 ~hi:9 in
    check_bool "int_in [3,9]" true (w >= 3 && w <= 9);
    let f = P.float rng in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let e = P.exponential rng ~mean:10.0 in
    check_bool "exponential non-negative and finite" true
      (e >= 0.0 && Float.is_finite e)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (P.int rng ~bound:0));
  Alcotest.check_raises "bad range" (Invalid_argument "Prng.int_in: lo > hi")
    (fun () -> ignore (P.int_in rng ~lo:5 ~hi:4));
  Alcotest.check_raises "bad mean"
    (Invalid_argument "Prng.exponential: mean must be positive") (fun () ->
      ignore (P.exponential rng ~mean:0.0))

let test_prng_collections () =
  let rng = P.create ~seed:11 in
  let original = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let shuffled = P.shuffle rng original in
  check_bool "shuffle is a permutation" true
    (List.sort compare shuffled = original);
  check_int "choose picks a member" 0
    (if List.mem (P.choose rng original) original then 0 else 1);
  Alcotest.check_raises "choose empty"
    (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (P.choose rng ([] : int list)));
  let sample = P.sample_without_replacement rng ~k:3 original in
  check_int "sample size" 3 (List.length sample);
  check_bool "sample distinct" true
    (List.length (List.sort_uniq compare sample) = 3);
  check_bool "sample keeps original order" true
    (List.sort compare sample = sample);
  check_bool "oversized sample returns all" true
    (P.sample_without_replacement rng ~k:99 original = original);
  check_bool "k=0 returns nothing" true
    (P.sample_without_replacement rng ~k:0 original = [])

(* Deterministic chi-square check: with rejection sampling every
   residue of a non-power-of-two bound is exactly equally likely, so a
   fixed-seed draw of 100k samples over 10 bins must sit well under the
   p = 0.001 critical value for 9 degrees of freedom (27.88).  The old
   [raw mod bound] path was biased for bounds not dividing 2^62. *)
let test_prng_uniformity () =
  let bins = 10 and draws = 100_000 in
  let rng = P.create ~seed:2026 in
  let counts = Array.make bins 0 in
  for _ = 1 to draws do
    let v = P.int rng ~bound:bins in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int bins in
  let chi2 =
    Array.fold_left
      (fun acc o ->
        let d = float_of_int o -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  check_bool
    (Printf.sprintf "chi-square %.2f under critical 27.88" chi2)
    true (chi2 < 27.88);
  Array.iter (fun c -> check_bool "every residue reached" true (c > 0)) counts

(* [hi - lo + 1] used to overflow silently for extreme ranges and feed
   a negative bound downstream; now it is a clean [Invalid_argument]. *)
let test_prng_int_in_overflow () =
  let rng = P.create ~seed:3 in
  check_bool "widest legal range works" true
    (let v = P.int_in rng ~lo:min_int ~hi:(-2) in
     v >= min_int && v <= -2);
  check_bool "max_int range works" true
    (let v = P.int_in rng ~lo:0 ~hi:(max_int - 1) in
     v >= 0);
  Alcotest.check_raises "min_int..0 overflows"
    (Invalid_argument
       (Printf.sprintf
          "Prng.int_in: range [%d, %d] spans more than max_int values" min_int 0))
    (fun () -> ignore (P.int_in rng ~lo:min_int ~hi:0));
  Alcotest.check_raises "full int range overflows"
    (Invalid_argument
       (Printf.sprintf
          "Prng.int_in: range [%d, %d] spans more than max_int values" min_int
          max_int))
    (fun () -> ignore (P.int_in rng ~lo:min_int ~hi:max_int))

(* SplitMix64's published output for seed 0: the generator's sequence
   is the workloads' sequence, so a rewrite of [Prng] that changes it
   fails here before it moves any golden. *)
let test_prng_splitmix64_known_answers () =
  let rng = P.create ~seed:0 in
  List.iter
    (fun expected ->
      Alcotest.(check string) "int64" expected
        (Printf.sprintf "%016Lx" (P.int64 rng)))
    [ "e220a8397b1dcdaf"; "6e789e6aa1b965f4"; "06c45d188009454f";
      "f88bb8a8724c81ec" ]

(* The derived draws of one seed, in one order, as the generator gave
   them before its state was unboxed. *)
let test_prng_derived_known_answers () =
  let rng = P.create ~seed:2004 in
  let ints = List.init 12 (fun _ -> P.int_in rng ~lo:(-8) ~hi:8) in
  Alcotest.(check (list int)) "int_in -8..8"
    [ -7; -1; -2; -1; -1; 1; 2; -1; -5; -1; -4; 1 ] ints;
  let floats = List.init 4 (fun _ -> P.float rng) in
  Alcotest.(check (list (float 0.0))) "float"
    [ 0x1.14e2d4e56fd6fp-1; 0x1.94434f830414ep-1; 0x1.692ea8230bb2p-6;
      0x1.adfb1b9fa9e6p-6 ]
    floats;
  let exps = List.init 4 (fun _ -> P.exponential rng ~mean:400.0) in
  Alcotest.(check (list (float 0.0))) "exponential, mean 400"
    [ 0x1.7bb7b06c729c1p+8; 0x1.31709018e0a84p+8; 0x1.3735498d2e3b8p+8;
      0x1.2ca674277b3a1p+4 ]
    exps;
  Alcotest.(check string) "state after the draws" "901a7f7740a7bb25"
    (Printf.sprintf "%016Lx" (P.int64 rng))

(* The state is unboxed and the rejection loop is not a closure, so a
   bounded draw allocates nothing. *)
let test_prng_int_in_allocation () =
  let rng = P.create ~seed:51 in
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    ignore (Sys.opaque_identity (P.int_in rng ~lo:(-8) ~hi:8))
  done;
  let words = (Gc.minor_words () -. before) /. 1000.0 in
  check_bool (Printf.sprintf "%.2f words per int_in draw" words) true
    (words = 0.0)

(* --- Generators ----------------------------------------------------------------- *)

let test_generated_schema () =
  let rng = P.create ~seed:21 in
  let schema = G.schema rng { G.attr_count = 12; max_bound = 500 } in
  check_int "cardinal" 12 (Attr.Schema.cardinal schema);
  List.iter
    (fun (d : Attr.descriptor) ->
      check_bool "bounds ordered" true (d.Attr.lower <= d.Attr.upper);
      check_bool "within max_bound" true (d.Attr.upper <= 500))
    (Attr.Schema.descriptors schema)

let test_generated_casebase_valid () =
  (* Casebase.make validates conformance, so construction succeeding is
     itself the property; double-check the shape. *)
  let rng = P.create ~seed:22 in
  let schema = G.schema rng G.default_schema_spec in
  let cb = G.casebase rng ~schema G.default_casebase_spec in
  let stats = Casebase.stats cb in
  check_int "types" 15 stats.Casebase.type_count;
  check_int "impls" 150 stats.Casebase.impl_count;
  check_int "attrs per impl" 10 stats.Casebase.max_attrs_per_impl

let test_sized_casebase () =
  let cb = G.sized_casebase ~seed:1 ~types:4 ~impls:3 ~attrs:5 in
  let stats = Casebase.stats cb in
  check_int "types" 4 stats.Casebase.type_count;
  check_int "impls" 12 stats.Casebase.impl_count;
  check_int "attr entries" (12 * 5) stats.Casebase.attr_entry_count;
  let req = G.sized_request ~seed:1 cb in
  check_int "request width" 5 (Request.constraint_count req);
  check_int "request targets type 1" 1 req.Request.type_id

let test_request_spec () =
  let rng = P.create ~seed:30 in
  let schema = G.schema rng { G.attr_count = 8; max_bound = 100 } in
  for _ = 1 to 50 do
    let req =
      G.request rng ~schema ~type_id:3
        { G.constraints = (2, 5); weight_profile = `Random; value_slack = 0.0 }
    in
    let n = Request.constraint_count req in
    check_bool "constraint count in range" true (n >= 2 && n <= 5);
    List.iter
      (fun (c : Request.constr) ->
        check_bool "weight positive" true (c.Request.weight > 0.0);
        let d = Option.get (Attr.Schema.find schema c.Request.attr) in
        check_bool "no-slack values within bounds" true
          (c.Request.value >= d.Attr.lower && c.Request.value <= d.Attr.upper))
      req.Request.constraints
  done

let test_request_slack_can_exceed_bounds () =
  let rng = P.create ~seed:31 in
  let schema = G.schema rng { G.attr_count = 4; max_bound = 50 } in
  let out_of_bounds = ref false in
  for _ = 1 to 200 do
    let req =
      G.request rng ~schema ~type_id:1
        { G.constraints = (4, 4); weight_profile = `Equal; value_slack = 1.0 }
    in
    List.iter
      (fun (c : Request.constr) ->
        let d = Option.get (Attr.Schema.find schema c.Request.attr) in
        if c.Request.value < d.Attr.lower || c.Request.value > d.Attr.upper then
          out_of_bounds := true)
      req.Request.constraints
  done;
  check_bool "slack produces out-of-bounds values" true !out_of_bounds

(* --- Stats ------------------------------------------------------------------- *)

module St = Workload.Stats

(* List oracles for [St.finalize]: the mean by one fold over the list,
   and the nearest-rank percentile by sorting the list and indexing it
   at [St.nearest_rank]. *)
let mean = function
  | [] -> None
  | values ->
      Some (List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values))

let percentile values ~p =
  if p < 0.0 || p > 100.0 then invalid_arg "percentile: p outside [0, 100]"
  else
    match values with
    | [] -> None
    | _ ->
        let sorted = List.sort Float.compare values in
        let n = List.length sorted in
        Some (List.nth sorted (min (n - 1) (St.nearest_rank ~p ~n - 1)))

(* Array oracle for [St.finalize]: a copy of the finite values, a
   comparison sort, then the sum and variance folds in sorted order. *)
let finalize_oracle values =
  let sorted = Array.of_list (List.filter Float.is_finite values) in
  let n = Array.length sorted in
  if n = 0 then None
  else begin
    Array.sort Float.compare sorted;
    let fn = float_of_int n in
    let total = Array.fold_left ( +. ) 0.0 sorted in
    let mu = total /. fn in
    let variance =
      Array.fold_left (fun s v -> s +. ((v -. mu) ** 2.0)) 0.0 sorted /. fn
    in
    let pct p = sorted.(min (n - 1) (St.nearest_rank ~p ~n - 1)) in
    Some
      {
        St.n;
        mean = mu;
        stddev = sqrt variance;
        minimum = sorted.(0);
        maximum = sorted.(n - 1);
        p50 = pct 50.0;
        p90 = pct 90.0;
        p95 = pct 95.0;
        p99 = pct 99.0;
        nonfinite = List.length values - n;
      }
  end

(* [mean] and [stddev] bit for bit; the order statistics under
   [Float.equal], which does not tell [-0.0] from [0.0]. *)
let same_summary a b =
  match (a, b) with
  | None, None -> true
  | Some (a : St.summary), Some (b : St.summary) ->
      let bits = Int64.bits_of_float in
      let order s = St.[ s.minimum; s.p50; s.p90; s.p95; s.p99; s.maximum ] in
      a.n = b.n
      && a.nonfinite = b.nonfinite
      && Int64.equal (bits a.mean) (bits b.mean)
      && Int64.equal (bits a.stddev) (bits b.stddev)
      && List.for_all2 Float.equal (order a) (order b)
  | _ -> false

let ulps_from x k =
  Int64.float_of_bits (Int64.add (Int64.bits_of_float x) (Int64.of_int k))

(* Values whose sum stays finite: negatives, both zeros, subnormals,
   small integers for ties, 40.0 give or take a few ulp (the shape of
   a stream-1m latency buffer), and the NaN and infinities [add]
   skips and counts. *)
let tame_value_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, float_range (-1000.0) 1000.0);
        (3, map float_of_int (int_range (-20) 20));
        (3, map (ulps_from 40.0) (int_range (-4) 4));
        (1, oneofl [ 0.0; -0.0 ]);
        ( 1,
          map
            (fun k -> ldexp (float_of_int k) (-1074))
            (int_range (-1000) 1000) );
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
      ])

(* Any bit pattern, and the extremes. *)
let wild_value_gen =
  QCheck2.Gen.(
    frequency
      [
        (3, map Int64.float_of_bits int64);
        ( 1,
          oneofl
            [
              Float.max_float;
              -.Float.max_float;
              Float.min_float;
              -.Float.min_float;
              0.0;
              -0.0;
              Float.nan;
              Float.infinity;
              Float.neg_infinity;
            ] );
        (1, tame_value_gen);
      ])

let test_stats_known_values () =
  let s = Option.get (St.summarize [ 1.0; 2.0; 3.0; 4.0 ]) in
  check_int "n" 4 s.St.n;
  check_bool "mean" true (Float.abs (s.St.mean -. 2.5) < 1e-9);
  check_bool "stddev (population)" true
    (Float.abs (s.St.stddev -. sqrt 1.25) < 1e-9);
  check_bool "min/max" true (s.St.minimum = 1.0 && s.St.maximum = 4.0);
  check_bool "p50 nearest rank" true (s.St.p50 = 2.0);
  check_bool "p99 is max here" true (s.St.p99 = 4.0);
  check_bool "empty" true (St.summarize [] = None);
  check_bool "mean empty" true (mean [] = None);
  (* [-0.0] sorts just below [0.0], whichever came first. *)
  let z = Option.get (St.summarize [ 0.0; -0.0 ]) in
  let bits = Int64.bits_of_float in
  check_bool "minimum is -0.0" true (bits z.St.minimum = bits (-0.0));
  check_bool "maximum is 0.0" true (bits z.St.maximum = bits 0.0)

let test_stats_nonfinite () =
  (* A stray NaN/inf is skipped and counted, not allowed to poison the
     whole summary (a single bad sample used to erase a million good
     ones). *)
  let s = Option.get (St.summarize [ 1.0; Float.nan; 3.0 ]) in
  check_int "finite n" 2 s.St.n;
  check_int "nonfinite counted" 1 s.St.nonfinite;
  check_bool "mean over finite only" true
    (Float.abs (s.St.mean -. 2.0) < 1e-9);
  let s2 =
    Option.get (St.summarize [ Float.infinity; 5.0; Float.neg_infinity ])
  in
  check_int "inf skipped" 2 s2.St.nonfinite;
  check_bool "max unpolluted" true (s2.St.maximum = 5.0);
  (* All-nonfinite input has no finite samples to summarise. *)
  check_bool "all nonfinite" true (St.summarize [ Float.nan ] = None);
  let acc = St.create () in
  St.add acc Float.nan;
  St.add acc 2.0;
  check_int "acc nonfinite_count" 1 (St.nonfinite_count acc);
  let f = Option.get (St.finalize acc) in
  check_int "acc finite n" 1 f.St.n;
  check_int "acc nonfinite carried" 1 f.St.nonfinite;
  (* The flag stays visible in the rendering, but only when nonzero. *)
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let rendered = Format.asprintf "%a" St.pp_summary f in
  check_bool "pp flags nonfinite" true (contains rendered "nonfinite=1")

let test_percentile () =
  let values = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  check_bool "p0 is min" true (percentile values ~p:0.0 = Some 1.0);
  check_bool "p100 is max" true (percentile values ~p:100.0 = Some 5.0);
  check_bool "p50 median" true (percentile values ~p:50.0 = Some 3.0);
  check_bool "empty" true (percentile [] ~p:50.0 = None);
  Alcotest.check_raises "out of range"
    (Invalid_argument "percentile: p outside [0, 100]") (fun () ->
      ignore (percentile values ~p:101.0))

let test_percentile_edges () =
  (* Singleton: every percentile is the one value. *)
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "singleton p%.0f" p)
        true
        (percentile [ 7.5 ] ~p = Some 7.5))
    [ 0.0; 50.0; 100.0 ];
  (* Percentiles must not depend on input order. *)
  let sorted = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  let shuffled = [ 4.0; 1.0; 5.0; 3.0; 2.0 ] in
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "order-independent p%.0f" p)
        true
        (percentile sorted ~p = percentile shuffled ~p))
    [ 0.0; 10.0; 25.0; 50.0; 90.0; 99.0; 100.0 ];
  (* p=0 of an unsorted list is still the minimum, not the first. *)
  check_bool "p0 unsorted" true
    (percentile [ 9.0; 2.0; 7.0 ] ~p:0.0 = Some 2.0);
  check_bool "p100 unsorted" true
    (percentile [ 9.0; 2.0; 7.0 ] ~p:100.0 = Some 9.0)

let test_percentile_nearest_rank_boundary () =
  (* Nearest-rank is ceil(p*n/100), but p*n/100 computed in binary
     floats can land epsilon above the exact integer — 99.9*1000/100
     evaluates to 999.0000000000001, whose ceiling selects rank 1000
     instead of 999.  The guarded ceiling must return the exact-rank
     element. *)
  let thousand = List.init 1000 (fun i -> float_of_int (i + 1)) in
  check_bool "p99.9 of 1..1000 is 999" true
    (percentile thousand ~p:99.9 = Some 999.0);
  let two_thousand = List.init 2000 (fun i -> float_of_int (i + 1)) in
  check_bool "p99.9 of 1..2000 is 1998" true
    (percentile two_thousand ~p:99.9 = Some 1998.0);
  (* Exact ranks that were never at risk must not drift down. *)
  check_bool "p90 of 1..1000 is 900" true
    (percentile thousand ~p:90.0 = Some 900.0);
  check_bool "p99 of 1..1000 is 990" true
    (percentile thousand ~p:99.0 = Some 990.0);
  check_bool "p100 of 1..1000 is 1000" true
    (percentile thousand ~p:100.0 = Some 1000.0)

let test_acc_streaming () =
  let values = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  let acc = St.create () in
  List.iter (St.add acc) values;
  check_int "count" 5 (St.count acc);
  let streamed = Option.get (St.finalize acc) in
  let batch = Option.get (St.summarize values) in
  check_bool "finalize matches summarize" true (streamed = batch);
  (* Finalize is a snapshot: adding more and re-finalizing works. *)
  St.add acc 100.0;
  let grown = Option.get (St.finalize acc) in
  check_int "snapshot grows" 6 grown.St.n;
  check_bool "new max" true (grown.St.maximum = 100.0);
  (* Growth beyond the initial buffer. *)
  let big = St.create () in
  for i = 1 to 1000 do
    St.add big (float_of_int i)
  done;
  let s = Option.get (St.finalize big) in
  check_int "big n" 1000 s.St.n;
  check_bool "big p95" true (s.St.p95 = 950.0);
  (* Non-finite values are skipped and counted, never poison. *)
  St.add big Float.nan;
  let after = Option.get (St.finalize big) in
  check_int "nan skipped" 1000 after.St.n;
  check_int "nan counted" 1 after.St.nonfinite;
  check_bool "p95 unchanged" true (after.St.p95 = 950.0)

let test_finalize_large () =
  (* 300,000 values cross many doublings of the accumulator's buffer. *)
  let rand = Random.State.make [| 23 |] in
  let draw n = QCheck2.Gen.(generate1 ~rand (list_repeat n tame_value_gen)) in
  let values = draw 300_000 in
  let acc = St.create () in
  List.iter (St.add acc) values;
  let first = St.finalize acc in
  check_bool "equals the oracle" true
    (same_summary (finalize_oracle values) first);
  check_bool "a second finalize gives the same summary" true
    (same_summary first (St.finalize acc));
  let more = draw 1_000 in
  List.iter (St.add acc) more;
  check_bool "an add after finalize summarises every value" true
    (same_summary (finalize_oracle (values @ more)) (St.finalize acc))

let test_pp_summary_golden () =
  match St.summarize [ 5.0; 1.0; 3.0; 2.0; 4.0 ] with
  | None -> Alcotest.fail "summarize returned None"
  | Some s ->
      Alcotest.(check string)
        "golden rendering"
        "n=5 mean=3.000 sd=1.414 min=1.000 p50=3.000 p90=5.000 p95=5.000 p99=5.000 max=5.000"
        (Format.asprintf "%a" St.pp_summary s)

(* --- Stream ------------------------------------------------------------------ *)

module Sm = Workload.Stream

let list_source items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let test_stream_merge_order () =
  let a = list_source [ (1.0, "a1"); (4.0, "a2"); (9.0, "a3") ] in
  let b = list_source [ (2.0, "b1"); (4.0, "b2"); (5.0, "b3") ] in
  let t = Sm.create [ a; b ] in
  let got = Sm.drain t in
  Alcotest.(check (list (triple int (float 0.0) string)))
    "merged by (time, source index)"
    [
      (0, 1.0, "a1");
      (1, 2.0, "b1");
      (0, 4.0, "a2");
      (1, 4.0, "b2");
      (1, 5.0, "b3");
      (0, 9.0, "a3");
    ]
    got;
  check_int "pulled counts everything" 6 (Sm.pulled t)

let test_stream_peek_and_cap () =
  let a = list_source [ (1.0, 'x'); (2.0, 'y'); (3.0, 'z') ] in
  let t = Sm.create [ a ] in
  check_bool "peek does not consume" true
    (Sm.peek t = Some (0, 1.0, 'x') && Sm.peek t = Some (0, 1.0, 'x'));
  check_bool "pull returns the peeked item" true (Sm.pull t = Some (0, 1.0, 'x'));
  (* max_items counts pulls already made on this stream. *)
  let rest = Sm.drain ~max_items:2 t in
  check_int "cap honours earlier pulls" 1 (List.length rest);
  check_int "pulled total" 2 (Sm.pulled t);
  let tail = Sm.drain t in
  check_int "drain resumes after cap" 1 (List.length tail);
  check_bool "exhausted" true (Sm.pull t = None)

let test_stream_empty_and_exhausted () =
  let t = Sm.create [] in
  check_bool "no sources" true (Sm.pull t = None);
  (* A source must never be called again once it returned None. *)
  let calls_after_none = ref 0 in
  let fused_done = ref false in
  let fused () =
    if !fused_done then (
      incr calls_after_none;
      None)
    else (
      fused_done := true;
      None)
  in
  let live = list_source [ (1.0, 0) ] in
  let t2 = Sm.create [ fused; live ] in
  ignore (Sm.drain t2);
  check_int "exhausted source never re-pulled" 0 !calls_after_none

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "generated case bases always encode to RAM images"
      (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let rng = P.create ~seed in
        let schema = G.schema rng { G.attr_count = 5; max_bound = 900 } in
        let cb =
          G.casebase rng ~schema
            {
              G.type_count = 2;
              impls_per_type = (0, 4);
              attrs_per_impl = (0, 5);
            }
        in
        Result.is_ok (Memlayout.encode_cb cb));
    prop "same seed, same casebase" (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let build () =
          G.sized_casebase ~seed ~types:2 ~impls:2 ~attrs:3
        in
        Casebase.equal (build ()) (build ()));
    prop "exponential has roughly the requested mean"
      (QCheck2.Gen.int_range 0 1000)
      (fun seed ->
        let rng = P.create ~seed in
        let n = 2000 in
        let total = ref 0.0 in
        for _ = 1 to n do
          total := !total +. P.exponential rng ~mean:100.0
        done;
        let mean = !total /. float_of_int n in
        mean > 80.0 && mean < 120.0);
  ]

let stats_props =
  [
    prop "summary bounds ordering"
      QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1000.0) 1000.0))
      (fun values ->
        match St.summarize values with
        | None -> false
        | Some s ->
            s.St.minimum <= s.St.p50
            && s.St.p50 <= s.St.p90
            && s.St.p90 <= s.St.p95
            && s.St.p95 <= s.St.p99
            && s.St.p99 <= s.St.maximum
            && s.St.minimum <= s.St.mean
            && s.St.mean <= s.St.maximum
            && s.St.stddev >= 0.0);
    prop "percentile is a member of the sample"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 50) (float_range 0.0 100.0))
          (float_range 0.0 100.0))
      (fun (values, p) ->
        match percentile values ~p with
        | None -> false
        | Some v -> List.mem v values);
    (* Small integers give ties; the range gives negatives. *)
    prop "summary agrees with the list oracles"
      QCheck2.Gen.(
        list_size (int_range 1 200)
          (oneof
             [
               map float_of_int (int_range (-20) 20);
               float_range (-1000.0) 1000.0;
             ]))
      (fun values ->
        match (St.summarize values, mean values) with
        | Some s, Some m ->
            let at p = Option.get (percentile values ~p) in
            s.St.p50 = at 50.0
            && s.St.p90 = at 90.0
            && s.St.p95 = at 95.0
            && s.St.p99 = at 99.0
            && s.St.minimum = at 0.0
            && s.St.maximum = at 100.0
            && Float.abs (s.St.mean -. m) < 1e-9
        | _ -> false);
    (* One shape per list: all passes of a sort see a mixed digit on
       wild and tame lists, and most see one digit on ties and on the
       values around 40.0. *)
    prop "finalize agrees with the array oracle"
      QCheck2.Gen.(
        let size = int_range 1 3000 in
        oneof
          [
            list_size size wild_value_gen;
            list_size size tame_value_gen;
            list_size size (map float_of_int (int_range (-20) 20));
            list_size size (map (ulps_from 40.0) (int_range (-4) 4));
          ])
      (fun values ->
        let acc = St.create () in
        List.iter (St.add acc) values;
        same_summary (finalize_oracle values) (St.finalize acc));
  ]

let stream_props =
  [
    (* Times are drawn from a tiny integer range so cross-source ties
       are common — the tie-break (lower source index first) is the
       part that makes streaming byte-equivalent to pregeneration. *)
    prop "drain equals a stable sort of the concatenated sources"
      QCheck2.Gen.(
        list_size (int_range 0 5) (list_size (int_range 0 20) (int_range 0 8)))
      (fun raw ->
        let sources =
          List.map (fun ts -> List.sort compare (List.map float_of_int ts)) raw
        in
        let srcs =
          List.map
            (fun ts -> list_source (List.mapi (fun j t -> (t, j)) ts))
            sources
        in
        let got = Sm.drain (Sm.create srcs) in
        let expected =
          List.concat
            (List.mapi (fun i ts -> List.mapi (fun j t -> (i, t, j)) ts) sources)
          |> List.stable_sort (fun (i1, t1, _) (i2, t2, _) ->
                 compare (t1, i1) (t2, i2))
        in
        got = expected);
  ]

let () =
  Alcotest.run "workload"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "copy and split" `Quick test_prng_copy_and_split;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "collections" `Quick test_prng_collections;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "int_in overflow guard" `Quick
            test_prng_int_in_overflow;
          Alcotest.test_case "splitmix64 known answers" `Quick
            test_prng_splitmix64_known_answers;
          Alcotest.test_case "derived draws known answers" `Quick
            test_prng_derived_known_answers;
          Alcotest.test_case "int_in allocates nothing" `Quick
            test_prng_int_in_allocation;
        ] );
      ( "generator",
        [
          Alcotest.test_case "schema" `Quick test_generated_schema;
          Alcotest.test_case "casebase" `Quick test_generated_casebase_valid;
          Alcotest.test_case "sized casebase" `Quick test_sized_casebase;
          Alcotest.test_case "request spec" `Quick test_request_spec;
          Alcotest.test_case "request slack" `Quick
            test_request_slack_can_exceed_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "nonfinite skipped and counted" `Quick
            test_stats_nonfinite;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "nearest-rank float boundary" `Quick
            test_percentile_nearest_rank_boundary;
          Alcotest.test_case "streaming accumulator" `Quick test_acc_streaming;
          Alcotest.test_case "300,000 values" `Quick test_finalize_large;
          Alcotest.test_case "pp_summary golden" `Quick test_pp_summary_golden;
        ] );
      ( "stream",
        [
          Alcotest.test_case "merge order" `Quick test_stream_merge_order;
          Alcotest.test_case "peek and max_items" `Quick
            test_stream_peek_and_cap;
          Alcotest.test_case "empty and exhausted" `Quick
            test_stream_empty_and_exhausted;
        ] );
      ("properties", props @ stats_props @ stream_props);
    ]
