module Q = Fxp.Q15

type score = Q.t

type ranked = score Retrieval.ranked

let local_fixed ~recip a b =
  Q.complement_to_one (Q.mul_int recip (Q.abs_diff_int a b))

let score_impl schema (request : Request.t) impl =
  let add acc (c : Request.constr) =
    let local =
      match (Impl.find_attr impl c.attr, Attr.Schema.recip schema c.attr) with
      | None, _ | _, None -> Q.zero
      | Some cvalue, Some recip -> local_fixed ~recip c.value cvalue
    in
    Q.add acc (Q.mul local c.q15)
  in
  List.fold_left add Q.zero request.constraints

let rank_all casebase request =
  Retrieval.rank ~compare:Q.compare
    (score_impl casebase.Casebase.schema request)
    casebase request

let best casebase request = Retrieval.best (rank_all casebase request)

let n_best ~n casebase request =
  Retrieval.n_best ~n (rank_all casebase request)

let above_threshold ~threshold casebase request =
  Result.map
    (List.filter (fun r -> Q.compare r.Retrieval.score threshold >= 0))
    (rank_all casebase request)

(* Worst-case Q15 error of [score_impl] against the float reference.
   The precomputed reciprocal carries up to 0.5 ulp of rounding error
   which the datapath multiplies by a distance of at most dmax (the
   paper accepts this; it is what the silicon computes), and each
   constraint adds ~2 ulp of weight-quantization and product
   rounding. *)
let score_error_bound schema request =
  let max_dmax =
    List.fold_left
      (fun acc d -> max acc (Attr.dmax d))
      0
      (Attr.Schema.descriptors schema)
  in
  let n = Request.constraint_count request in
  ((0.5 *. float_of_int max_dmax) +. (2.0 *. float_of_int n)) *. Q.ulp

let agrees_with_float casebase request =
  match (best casebase request, Engine_float.rank_all casebase request) with
  | Error _, Error _ -> true
  | Error _, Ok _ | Ok _, Error _ -> false
  | Ok fixed, Ok ([] | _ :: _ as float_ranked) -> (
      match float_ranked with
      | [] -> false
      | top :: _ ->
          (* Any variant inside the float top group is an acceptable
             pick.  Two Q15 scores can each err by [score_error_bound]
             in opposite directions, so float gaps up to twice that
             bound are indistinguishable to the 16-bit datapath. *)
          let window =
            Float.max Q.ulp
              (2.0 *. score_error_bound casebase.Casebase.schema request)
          in
          let tied =
            List.filter
              (fun r -> top.Retrieval.score -. r.Retrieval.score <= window)
              float_ranked
          in
          List.exists
            (fun r -> r.Retrieval.impl.Impl.id = fixed.Retrieval.impl.Impl.id)
            tied)
