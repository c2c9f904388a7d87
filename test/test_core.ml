(* Tests for the core data model: attributes, schema, implementations,
   function types, case base, requests and similarity measures. *)

open Qos_core

let get = function Ok x -> x | Error e -> Alcotest.fail e
let get_err what = function
  | Ok _ -> Alcotest.fail (what ^ ": expected an error")
  | Error e -> e

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Attributes and schema --------------------------------------------- *)

let descriptor id lower upper =
  get (Attr.descriptor ~id ~name:(Printf.sprintf "a%d" id) ~lower ~upper)

let test_descriptor_validation () =
  ignore (get_err "zero id" (Attr.descriptor ~id:0 ~name:"x" ~lower:0 ~upper:1));
  ignore
    (get_err "inverted bounds"
       (Attr.descriptor ~id:1 ~name:"x" ~lower:5 ~upper:4));
  ignore
    (get_err "negative lower"
       (Attr.descriptor ~id:1 ~name:"x" ~lower:(-1) ~upper:4));
  ignore
    (get_err "huge upper"
       (Attr.descriptor ~id:1 ~name:"x" ~lower:0 ~upper:70000));
  check_int "dmax" 36 (Attr.dmax (descriptor 4 8 44))

let test_schema_basics () =
  let s =
    get (Attr.Schema.of_list [ descriptor 3 0 2; descriptor 1 8 16 ])
  in
  check_int "cardinal" 2 (Attr.Schema.cardinal s);
  check_bool "mem" true (Attr.Schema.mem s 1);
  check_bool "not mem" false (Attr.Schema.mem s 2);
  check_int "dmax 1" 8 (Option.get (Attr.Schema.dmax s 1));
  check_bool "dmax missing" true (Attr.Schema.dmax s 99 = None);
  (* descriptors come back ID-sorted regardless of insertion order *)
  (match Attr.Schema.descriptors s with
  | [ a; b ] ->
      check_int "sorted first" 1 a.Attr.id;
      check_int "sorted second" 3 b.Attr.id
  | _ -> Alcotest.fail "expected two descriptors");
  check_int "recip via schema" 3641
    (Fxp.Q15.to_raw (Option.get (Attr.Schema.recip s 1)))

let test_schema_duplicates () =
  ignore
    (get_err "duplicate id"
       (Attr.Schema.of_list [ descriptor 1 0 2; descriptor 1 3 4 ]))

let test_schema_union () =
  let a = get (Attr.Schema.of_list [ descriptor 1 0 2 ]) in
  let b = get (Attr.Schema.of_list [ descriptor 2 0 2 ]) in
  let u = get (Attr.Schema.union a b) in
  check_int "union cardinal" 2 (Attr.Schema.cardinal u);
  ignore (get_err "overlapping union" (Attr.Schema.union a a))

(* --- Implementations ---------------------------------------------------- *)

let test_impl_make_sorts () =
  let impl =
    get (Impl.make ~id:1 ~target:Target.Fpga [ (4, 44); (1, 16); (3, 2) ])
  in
  Alcotest.(check (list int)) "sorted ids" [ 1; 3; 4 ] (Impl.attr_ids impl);
  check_int "attr count" 3 (Impl.attr_count impl);
  check_int "find" 44 (Option.get (Impl.find_attr impl 4));
  check_bool "find missing" true (Impl.find_attr impl 2 = None)

let test_impl_validation () =
  ignore
    (get_err "duplicate attr"
       (Impl.make ~id:1 ~target:Target.Dsp [ (1, 0); (1, 1) ]));
  ignore (get_err "zero id" (Impl.make ~id:0 ~target:Target.Dsp []));
  ignore
    (get_err "value out of word range"
       (Impl.make ~id:1 ~target:Target.Dsp [ (1, 70000) ]));
  ignore
    (get_err "attr id out of range"
       (Impl.make ~id:1 ~target:Target.Dsp [ (0, 3) ]))

let test_impl_conforms () =
  let schema = get (Attr.Schema.of_list [ descriptor 1 8 16 ]) in
  let ok_impl = get (Impl.make ~id:1 ~target:Target.Gpp [ (1, 12) ]) in
  (match Impl.conforms schema ok_impl with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let out_of_bounds = get (Impl.make ~id:2 ~target:Target.Gpp [ (1, 40) ]) in
  ignore (get_err "out of bounds" (Impl.conforms schema out_of_bounds));
  let unknown_attr = get (Impl.make ~id:3 ~target:Target.Gpp [ (9, 1) ]) in
  ignore (get_err "unknown attr" (Impl.conforms schema unknown_attr))

(* --- Function types ----------------------------------------------------- *)

let impl id target attrs = get (Impl.make ~id ~target attrs)

let test_ftype () =
  let ft =
    get
      (Ftype.make ~id:1 ~name:"f"
         [ impl 2 Target.Dsp []; impl 1 Target.Fpga [] ])
  in
  check_int "impl count" 2 (Ftype.impl_count ft);
  (match ft.Ftype.impls with
  | [ a; b ] ->
      check_int "sorted impls" 1 a.Impl.id;
      check_int "sorted impls 2" 2 b.Impl.id
  | _ -> Alcotest.fail "expected 2 impls");
  check_bool "find" true (Ftype.find_impl ft 2 <> None);
  check_bool "find missing" true (Ftype.find_impl ft 3 = None);
  ignore
    (get_err "duplicate impl ids"
       (Ftype.make ~id:1 ~name:"f" [ impl 1 Target.Dsp []; impl 1 Target.Gpp [] ]));
  ignore (get_err "bad type id" (Ftype.make ~id:0 ~name:"f" []))

(* --- Case base ----------------------------------------------------------- *)

let test_casebase_validation () =
  let schema = get (Attr.Schema.of_list [ descriptor 1 8 16 ]) in
  let good = get (Ftype.make ~id:1 ~name:"f" [ impl 1 Target.Dsp [ (1, 10) ] ]) in
  let cb = get (Casebase.make ~name:"cb" ~schema [ good ]) in
  check_bool "find type" true (Casebase.find_type cb 1 <> None);
  check_bool "find impl" true
    (Casebase.find_impl cb ~type_id:1 ~impl_id:1 <> None);
  check_bool "missing impl" true
    (Casebase.find_impl cb ~type_id:1 ~impl_id:9 = None);
  ignore
    (get_err "duplicate type ids"
       (Casebase.make ~name:"cb" ~schema [ good; good ]));
  let bad =
    get (Ftype.make ~id:2 ~name:"g" [ impl 1 Target.Dsp [ (7, 10) ] ])
  in
  ignore
    (get_err "impl attr not in schema" (Casebase.make ~name:"cb" ~schema [ bad ]))

let test_derive_schema () =
  let ft =
    get
      (Ftype.make ~id:1 ~name:"f"
         [
           impl 1 Target.Fpga [ (1, 16); (4, 44) ];
           impl 2 Target.Gpp [ (1, 8); (4, 22) ];
         ])
  in
  let schema = get (Casebase.derive_schema [ ft ]) in
  check_int "derived dmax attr 1" 8 (Option.get (Attr.Schema.dmax schema 1));
  check_int "derived dmax attr 4" 22 (Option.get (Attr.Schema.dmax schema 4));
  check_int "derived cardinal" 2 (Attr.Schema.cardinal schema)

let test_casebase_stats () =
  let s = Casebase.stats Scenario_audio.casebase in
  check_int "types" 2 s.Casebase.type_count;
  check_int "impls" 5 s.Casebase.impl_count;
  check_int "attr entries" (12 + 6) s.Casebase.attr_entry_count;
  check_int "max impls" 3 s.Casebase.max_impls_per_type;
  check_int "max attrs" 4 s.Casebase.max_attrs_per_impl

let test_casebase_restrict () =
  let cb = Scenario_audio.casebase in
  let sub =
    Casebase.restrict ~name:"sub" (fun (ft : Ftype.t) -> ft.Ftype.id <> 1) cb
  in
  check_bool "equals make over the kept types" true
    (Casebase.equal sub
       (get
          (Casebase.make ~name:"sub" ~schema:cb.Casebase.schema
             (List.filter (fun (ft : Ftype.t) -> ft.Ftype.id <> 1)
                cb.Casebase.ftypes))));
  check_bool "type 1 dropped" true (Casebase.find_type sub 1 = None);
  check_int "nothing kept" 0
    (List.length
       (Casebase.restrict ~name:"none" (fun _ -> false) cb).Casebase.ftypes)

(* --- Requests ------------------------------------------------------------ *)

let test_request_make () =
  let r = get (Request.make ~type_id:1 [ (4, 40, 1.0); (1, 16, 2.0) ]) in
  check_int "constraint count" 2 (Request.constraint_count r);
  (match r.Request.constraints with
  | [ a; b ] ->
      check_int "sorted" 1 a.Request.attr;
      check_int "sorted 2" 4 b.Request.attr
  | _ -> Alcotest.fail "expected 2 constraints");
  ignore
    (get_err "duplicate attrs" (Request.make ~type_id:1 [ (1, 0, 1.); (1, 1, 1.) ]));
  ignore (get_err "zero weight" (Request.make ~type_id:1 [ (1, 0, 0.0) ]));
  ignore (get_err "negative weight" (Request.make ~type_id:1 [ (1, 0, -1.0) ]));
  ignore (get_err "nan weight" (Request.make ~type_id:1 [ (1, 0, Float.nan) ]));
  ignore (get_err "bad type" (Request.make ~type_id:0 []))

let test_request_weight_overflow () =
  (* Each weight is finite but their sum is not: normalising would
     turn every weight into 0, so the request is refused. *)
  Alcotest.(check string)
    "overflowing total refused"
    "constraint weights sum to a non-finite total (inf)"
    (get_err "overflowing total"
       (Request.make ~type_id:1
          [ (1, 16, 1e308); (4, 44, 1e308); (5, 10, 1.0) ]));
  let r = get (Request.make ~type_id:1 [ (1, 16, 1e308); (5, 10, 1.0) ]) in
  check_int "finite total accepted" 2 (Request.constraint_count r);
  ignore (get_err "reweight into overflow" (Request.reweight r 5 1e308))

let test_request_normalization () =
  let r = get (Request.make ~type_id:1 [ (1, 5, 1.0); (2, 6, 3.0) ]) in
  let normalized = Request.normalized_weights r in
  let total = List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 normalized in
  check_float "weights sum to 1" 1.0 total;
  (match normalized with
  | [ (1, 5, w1); (2, 6, w2) ] ->
      check_float "w1" 0.25 w1;
      check_float "w2" 0.75 w2
  | _ -> Alcotest.fail "unexpected normalization");
  check_bool "empty request normalizes to empty" true
    (Request.normalized_weights (get (Request.make ~type_id:1 [])) = [])

let test_request_edits () =
  let r = get (Request.make ~type_id:1 [ (1, 5, 1.0); (2, 6, 3.0) ]) in
  let dropped = Request.drop_constraint r 1 in
  check_int "dropped" 1 (Request.constraint_count dropped);
  check_bool "drop unknown is no-op" true
    (Request.equal r (Request.drop_constraint r 99));
  let reweighted = get (Request.reweight r 2 1.0) in
  check_float "reweighted" 0.5
    (match Request.normalized_weights reweighted with
    | [ (_, _, w); _ ] -> w
    | _ -> -1.0);
  ignore (get_err "reweight unknown" (Request.reweight r 99 1.0));
  let revalued = get (Request.with_value r 1 9) in
  check_int "revalued" 9 (Option.get (Request.find revalued 1)).Request.value

(* The weight rule, restated: each constraint's Q15 word is its
   weight's share of the total, folded left to right in attribute-ID
   order. *)
let shares_hold (r : Request.t) =
  let by_id =
    List.sort
      (fun (a : Request.constr) (b : Request.constr) -> compare a.attr b.attr)
      r.constraints
  in
  let total =
    List.fold_left (fun acc (c : Request.constr) -> acc +. c.weight) 0.0 by_id
  in
  List.for_all
    (fun (c : Request.constr) ->
      Fxp.Q15.equal c.q15 (Fxp.Q15.of_float (c.weight /. total)))
    r.constraints

(* The rule holds for [r] and for every edit of each of its
   constraints. *)
let edits_keep_shares (r : Request.t) weight =
  let holds = function Ok r -> shares_hold r | Error _ -> false in
  shares_hold r
  && List.for_all
       (fun (c : Request.constr) ->
         shares_hold (Request.drop_constraint r c.attr)
         && holds (Request.reweight r c.attr weight)
         && holds (Request.with_value r c.attr (c.value / 2)))
       r.constraints

let raw_shares (r : Request.t) =
  List.map (fun (c : Request.constr) -> Fxp.Q15.to_raw c.q15) r.constraints

let test_request_q15 () =
  let check_raws = Alcotest.(check (list int)) in
  let r = get (Request.make ~type_id:1 [ (4, 40, 2.0); (1, 16, 1.0) ]) in
  check_raws "thirds" [ 10923; 21845 ] (raw_shares r);
  (* 1e-300 vanishes next to 1e300, and is the whole total alone. *)
  let extreme =
    get (Request.make ~type_id:1 [ (1, 5, 1e-300); (2, 6, 1e300) ])
  in
  check_raws "1e-300 next to 1e300" [ 0; 32768 ] (raw_shares extreme);
  check_raws "1e-300 alone" [ 32768 ]
    (raw_shares (Request.drop_constraint extreme 2));
  check_bool "1e-300 next to 1e300, edited" true
    (edits_keep_shares extreme 1.0);
  let equal =
    get (Request.make ~type_id:1 (List.init 17 (fun i -> (i + 1, i, 1.0))))
  in
  check_raws "seventeen equal weights" (List.init 17 (fun _ -> 1928))
    (raw_shares equal);
  check_bool "seventeen equal weights, edited" true
    (edits_keep_shares equal 3.0);
  (* Summed in ID order the total is exactly 65536, so weight 3 sits on
     a rounding tie (1.5 -> 2).  Summed in the order given, the two
     2^-37 weights survive and it rounds to 1. *)
  let tiny = ldexp 1.0 (-37) in
  check_raws "ID-order total" [ 2; 32767; 0; 0 ]
    (raw_shares
       (get
          (Request.make ~type_id:1
             [ (4, 0, tiny); (3, 0, tiny); (2, 0, 65533.0); (1, 0, 3.0) ])))

(* [with_values] is [make] at new values, without validating again:
   IDs, weights and Q15 words stay, an unchanged constraint is the same
   record, and a value outside the word range is refused. *)
let test_request_with_values () =
  let r = get (Request.make ~type_id:3 [ (4, 40, 2.0); (1, 16, 1.0) ]) in
  let moved = Request.with_values r [| 16; Attr.max_word |] in
  check_bool "equals make at the new values" true
    (Request.equal moved
       (get
          (Request.make ~type_id:3 [ (1, 16, 1.0); (4, Attr.max_word, 2.0) ])));
  Alcotest.(check (list int)) "q15 kept" (raw_shares r) (raw_shares moved);
  check_bool "unchanged constraint shared" true
    (List.hd moved.constraints == List.hd r.constraints);
  let raises label values =
    check_bool label true
      (match Request.with_values r values with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  raises "one value short" [| 16 |];
  raises "negative value" [| -1; 40 |];
  raises "end marker" [| 16; Attr.max_word + 1 |]

(* --- Targets ------------------------------------------------------------- *)

let test_target_strings () =
  List.iter
    (fun t ->
      let s = Target.to_string t in
      check_bool ("round-trip " ^ s) true
        (Target.equal t (get (Target.of_string s))))
    (Target.Custom "xyz" :: Target.all_builtin);
  ignore (get_err "unknown target" (Target.of_string "tpu"));
  ignore (get_err "empty custom" (Target.of_string "custom:"))

(* --- Similarity ---------------------------------------------------------- *)

let test_local_similarity_paper_cells () =
  (* Every si cell of Table 1. *)
  check_float "fpga bitwidth" 1.0 (Similarity.local ~dmax:8 16 16);
  check_float "fpga output" (2.0 /. 3.0) (Similarity.local ~dmax:2 1 2);
  check_float "fpga rate" (33.0 /. 37.0) (Similarity.local ~dmax:36 40 44);
  check_float "dsp output" 1.0 (Similarity.local ~dmax:2 1 1);
  check_float "gpp bitwidth" (1.0 /. 9.0) (Similarity.local ~dmax:8 16 8);
  check_float "gpp output" (2.0 /. 3.0) (Similarity.local ~dmax:2 1 0);
  check_float "gpp rate" (19.0 /. 37.0) (Similarity.local ~dmax:36 40 22)

let test_local_similarity_clamping () =
  (* Request far outside the bounds drives the raw formula negative. *)
  check_float "clamped at zero" 0.0 (Similarity.local ~dmax:2 100 0);
  check_float "missing attribute" 0.0 Similarity.local_missing;
  Alcotest.check_raises "negative dmax"
    (Invalid_argument "Similarity.local: negative dmax") (fun () ->
      ignore (Similarity.local ~dmax:(-1) 0 0))

let test_euclidean_variant () =
  check_float "euclidean identical" 1.0 (Similarity.local_euclidean ~dmax:8 5 5);
  (* Below the bound, (d/(1+dmax))^2 < d/(1+dmax), so the squared
     transform is the more forgiving one. *)
  let manhattan = Similarity.local ~dmax:8 16 8 in
  let euclidean = Similarity.local_euclidean ~dmax:8 16 8 in
  check_bool "euclidean is more forgiving below the bound" true
    (euclidean > manhattan);
  check_float "euclidean exact" (1.0 -. (8.0 /. 9.0) ** 2.0) euclidean

let test_amalgamations () =
  let pairs = [ (0.5, 0.8); (0.3, 0.4); (0.2, 1.0) ] in
  check_float "weighted sum" ((0.5 *. 0.8) +. (0.3 *. 0.4) +. 0.2)
    (Similarity.amalgamate Similarity.Weighted_sum pairs);
  check_float "minimum" 0.4 (Similarity.amalgamate Similarity.Minimum pairs);
  check_float "maximum" 1.0 (Similarity.amalgamate Similarity.Maximum pairs);
  check_float "geometric" (0.8 ** 0.5 *. (0.4 ** 0.3))
    (Similarity.amalgamate Similarity.Weighted_geometric pairs);
  check_float "empty folds to 0" 0.0
    (Similarity.amalgamate Similarity.Weighted_sum []);
  check_float "geometric zero annihilates" 0.0
    (Similarity.amalgamate Similarity.Weighted_geometric [ (0.5, 0.0); (0.5, 1.0) ])

let test_amalgamation_strings () =
  List.iter
    (fun a ->
      let s = Similarity.amalgamation_to_string a in
      check_bool ("round-trip " ^ s) true
        (Similarity.amalgamation_of_string s = Ok a))
    Similarity.all_amalgamations;
  check_bool "unknown" true
    (Result.is_error (Similarity.amalgamation_of_string "median"))

(* --- Printers (smoke) ----------------------------------------------------- *)

let test_printers_do_not_crash () =
  let to_s pp v = Format.asprintf "%a" pp v in
  let non_empty what s = check_bool what true (String.length s > 0) in
  non_empty "descriptor" (to_s Attr.pp_descriptor (descriptor 1 0 9));
  non_empty "schema" (to_s Attr.Schema.pp Scenario_audio.schema);
  non_empty "impl"
    (to_s Impl.pp
       (Option.get (Casebase.find_impl Scenario_audio.casebase ~type_id:1 ~impl_id:2)));
  non_empty "ftype"
    (to_s Ftype.pp (Option.get (Casebase.find_type Scenario_audio.casebase 1)));
  non_empty "casebase" (to_s Casebase.pp Scenario_audio.casebase);
  non_empty "stats" (to_s Casebase.pp_stats (Casebase.stats Scenario_audio.casebase));
  non_empty "request" (to_s Request.pp Scenario_audio.request);
  non_empty "retrieval error"
    (to_s Retrieval.pp_error (Retrieval.Unknown_type 9));
  non_empty "amalgamation"
    (to_s Similarity.pp_amalgamation Similarity.Weighted_sum);
  non_empty "target" (to_s Target.pp (Target.Custom "npu"))

(* --- Properties ---------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let value_gen = QCheck2.Gen.int_range 0 65535

let request_q15_prop =
  prop "q15 is an ID-ordered share"
    QCheck2.Gen.(pair (int_range 0 100_000) (float_range 1e-6 1e6))
    (fun (seed, weight) ->
      let rng = Workload.Prng.create ~seed in
      let schema =
        Workload.Generator.schema rng Workload.Generator.default_schema_spec
      in
      let r =
        Workload.Generator.request rng ~schema ~type_id:1
          {
            Workload.Generator.constraints = (1, 10);
            weight_profile = `Random;
            value_slack = 0.1;
          }
      in
      edits_keep_shares r weight)

let weights_sims_gen =
  QCheck2.Gen.(
    list_size (int_range 1 8) (pair (float_range 0.01 1.0) (float_range 0.0 1.0)))

let normalize pairs =
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 pairs in
  List.map (fun (w, s) -> (w /. total, s)) pairs

let props =
  [
    prop "local within [0,1]"
      QCheck2.Gen.(triple (int_range 0 65535) value_gen value_gen)
      (fun (dmax, a, b) ->
        let s = Similarity.local ~dmax a b in
        s >= 0.0 && s <= 1.0);
    prop "local symmetric"
      QCheck2.Gen.(triple (int_range 0 65535) value_gen value_gen)
      (fun (dmax, a, b) ->
        Float.equal (Similarity.local ~dmax a b) (Similarity.local ~dmax b a));
    prop "local is 1 iff equal (within bounds distance)"
      QCheck2.Gen.(pair (int_range 1 65535) value_gen)
      (fun (dmax, a) -> Float.equal (Similarity.local ~dmax a a) 1.0);
    prop "local decreases with distance"
      QCheck2.Gen.(triple (int_range 1 1000) (int_range 0 1000) (int_range 0 1000))
      (fun (dmax, a, d) ->
        Similarity.local ~dmax a (a + d + 1) <= Similarity.local ~dmax a (a + d));
    prop "all amalgamations stay in [0,1]" weights_sims_gen (fun pairs ->
        let pairs = normalize pairs in
        List.for_all
          (fun kind ->
            let s = Similarity.amalgamate kind pairs in
            s >= 0.0 && s <= 1.0)
          Similarity.all_amalgamations);
    prop "min <= weighted sum <= max" weights_sims_gen (fun pairs ->
        let pairs = normalize pairs in
        let wsum = Similarity.amalgamate Similarity.Weighted_sum pairs in
        Similarity.amalgamate Similarity.Minimum pairs <= wsum +. 1e-9
        && wsum <= Similarity.amalgamate Similarity.Maximum pairs +. 1e-9);
    prop "weighted sum monotone in each local similarity" weights_sims_gen
      (fun pairs ->
        let pairs = normalize pairs in
        match pairs with
        | [] -> true
        | (w, s) :: rest ->
            let bumped = (w, Float.min 1.0 (s +. 0.1)) :: rest in
            Similarity.amalgamate Similarity.Weighted_sum bumped
            >= Similarity.amalgamate Similarity.Weighted_sum pairs -. 1e-9);
  ]

(* --- Image checksum ---------------------------------------------------- *)

let test_checksum () =
  Alcotest.(check int) "empty image" 0 (Util.fletcher16 [||]);
  let words = [| 0x1234; 0x0001; 0xFFFF |] in
  Alcotest.(check int)
    "deterministic" (Util.fletcher16 words) (Util.fletcher16 words);
  (* Position-sensitive: swapping two words must change the sum. *)
  let swapped = [| 0x0001; 0x1234; 0xFFFF |] in
  Alcotest.(check bool)
    "detects swapped words" true
    (Util.fletcher16 words <> Util.fletcher16 swapped);
  (* A single-bit flip anywhere is detected. *)
  let flipped = Array.copy words in
  flipped.(2) <- flipped.(2) lxor 0x0100;
  Alcotest.(check bool)
    "detects a bit flip" true
    (Util.fletcher16 words <> Util.fletcher16 flipped);
  (* Words are masked to 16 bits before summing. *)
  Alcotest.(check int)
    "masks to 16 bits"
    (Util.fletcher16 [| 0x1234 |])
    (Util.fletcher16 [| 0x71234 |])

let () =
  Alcotest.run "core"
    [
      ( "attributes",
        [
          Alcotest.test_case "descriptor validation" `Quick
            test_descriptor_validation;
          Alcotest.test_case "schema basics" `Quick test_schema_basics;
          Alcotest.test_case "schema duplicates" `Quick test_schema_duplicates;
          Alcotest.test_case "schema union" `Quick test_schema_union;
        ] );
      ( "implementations",
        [
          Alcotest.test_case "make sorts" `Quick test_impl_make_sorts;
          Alcotest.test_case "validation" `Quick test_impl_validation;
          Alcotest.test_case "conforms" `Quick test_impl_conforms;
        ] );
      ("function types", [ Alcotest.test_case "ftype" `Quick test_ftype ]);
      ( "case base",
        [
          Alcotest.test_case "validation" `Quick test_casebase_validation;
          Alcotest.test_case "derive schema" `Quick test_derive_schema;
          Alcotest.test_case "stats" `Quick test_casebase_stats;
          Alcotest.test_case "restrict" `Quick test_casebase_restrict;
        ] );
      ( "requests",
        [
          Alcotest.test_case "make" `Quick test_request_make;
          Alcotest.test_case "weight total overflow" `Quick
            test_request_weight_overflow;
          Alcotest.test_case "normalization" `Quick test_request_normalization;
          Alcotest.test_case "edits" `Quick test_request_edits;
          Alcotest.test_case "q15 shares" `Quick test_request_q15;
          Alcotest.test_case "with_values" `Quick test_request_with_values;
          request_q15_prop;
        ] );
      ("targets", [ Alcotest.test_case "strings" `Quick test_target_strings ]);
      ( "similarity",
        [
          Alcotest.test_case "paper cells" `Quick
            test_local_similarity_paper_cells;
          Alcotest.test_case "clamping" `Quick test_local_similarity_clamping;
          Alcotest.test_case "euclidean variant" `Quick test_euclidean_variant;
          Alcotest.test_case "amalgamations" `Quick test_amalgamations;
          Alcotest.test_case "amalgamation strings" `Quick
            test_amalgamation_strings;
        ] );
      ( "printers",
        [ Alcotest.test_case "smoke" `Quick test_printers_do_not_crash ] );
      ("checksum", [ Alcotest.test_case "fletcher" `Quick test_checksum ]);
      ("properties", props);
    ]
