type ranked = float Retrieval.ranked

let score_impl ?(amalgamation = Similarity.Weighted_sum) schema request impl =
  let pair (aid, rvalue, weight) =
    match (Impl.find_attr impl aid, Attr.Schema.dmax schema aid) with
    | None, _ | _, None -> (weight, Similarity.local_missing)
    | Some cvalue, Some dmax ->
        (weight, Similarity.local ~dmax rvalue cvalue)
  in
  let pairs = List.map pair (Request.normalized_weights request) in
  Similarity.amalgamate amalgamation pairs

let rank_all ?amalgamation casebase request =
  Retrieval.rank ~compare:Float.compare
    (score_impl ?amalgamation casebase.Casebase.schema request)
    casebase request

let best ?amalgamation casebase request =
  Retrieval.best (rank_all ?amalgamation casebase request)

let n_best ?amalgamation ~n casebase request =
  Retrieval.n_best ~n (rank_all ?amalgamation casebase request)

let above_threshold ?amalgamation ~threshold casebase request =
  Result.map
    (List.filter (fun r -> r.Retrieval.score >= threshold))
    (rank_all ?amalgamation casebase request)
