type constr = {
  attr : Attr.id;
  value : Attr.value;
  weight : float;
  q15 : Fxp.Q15.t;
}

type t = { type_id : int; constraints : constr list }

let rec check_unique = function
  | [] | [ _ ] -> Ok ()
  | (a, _, _) :: ((b, _, _) :: _ as rest) ->
      if a = b then
        Error (Printf.sprintf "duplicate constraint on attribute %d" a)
      else check_unique rest

let sum_weights triples =
  List.fold_left (fun acc (_, _, w) -> acc +. w) 0.0 triples

(* The weight rule, applied here only: each weight's share of [total],
   rounded to the Q15 word the request list holds (Fig. 4). *)
let quantise total triples =
  List.map
    (fun (attr, value, weight) ->
      { attr; value; weight; q15 = Fxp.Q15.of_float (weight /. total) })
    triples

let make ~type_id triples =
  if type_id <= 0 || type_id > Attr.max_word then
    Error
      (Printf.sprintf "function-type id %d outside (0, %d]" type_id
         Attr.max_word)
  else
    let bad =
      List.find_opt
        (fun (aid, v, w) ->
          aid <= 0 || aid > Attr.max_word || v < 0 || v > Attr.max_word
          || (not (Float.is_finite w))
          || w <= 0.0)
        triples
    in
    match bad with
    | Some (aid, v, w) ->
        Error
          (Printf.sprintf "constraint (attr %d, value %d, weight %g) invalid"
             aid v w)
    | None -> (
        let sorted =
          List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) triples
        in
        match check_unique sorted with
        | Error _ as e -> e
        | Ok () ->
            (* An overflowing total would quantise every weight to 0. *)
            let total = sum_weights sorted in
            if Float.is_finite total then
              Ok { type_id; constraints = quantise total sorted }
            else
              Error
                (Printf.sprintf
                   "constraint weights sum to a non-finite total (%g)" total))

let with_values t values =
  let n = Array.length values in
  if n <> List.length t.constraints then
    invalid_arg
      (Printf.sprintf "Request.with_values: %d values for %d constraints" n
         (List.length t.constraints));
  let rec set i = function
    | [] -> []
    | c :: rest ->
        let value = values.(i) in
        if value < 0 || value > Attr.max_word then
          invalid_arg
            (Printf.sprintf
               "Request.with_values: value %d of attribute %d outside [0, %d]"
               value c.attr Attr.max_word);
        (if value = c.value then c else { c with value }) :: set (i + 1) rest
  in
  { t with constraints = set 0 t.constraints }

let normalized_weights t =
  let total =
    List.fold_left (fun acc c -> acc +. c.weight) 0.0 t.constraints
  in
  List.map (fun c -> (c.attr, c.value, c.weight /. total)) t.constraints

let find t aid = List.find_opt (fun c -> c.attr = aid) t.constraints
let constraint_count t = List.length t.constraints

let drop_constraint t aid =
  let kept =
    List.filter_map
      (fun c -> if c.attr = aid then None else Some (c.attr, c.value, c.weight))
      t.constraints
  in
  { t with constraints = quantise (sum_weights kept) kept }

let update t aid f =
  match find t aid with
  | None -> Error (Printf.sprintf "request has no constraint on attribute %d" aid)
  | Some _ ->
      let triples =
        List.map
          (fun c ->
            let c = if c.attr = aid then f c else c in
            (c.attr, c.value, c.weight))
          t.constraints
      in
      make ~type_id:t.type_id triples

let reweight t aid weight = update t aid (fun c -> { c with weight })
let with_value t aid value = update t aid (fun c -> { c with value })

let equal a b =
  a.type_id = b.type_id
  && List.equal
       (fun x y ->
         x.attr = y.attr && x.value = y.value && Float.equal x.weight y.weight)
       a.constraints b.constraints

let pp ppf t =
  Format.fprintf ppf "@[request type=%d%a@]" t.type_id
    (Format.pp_print_list ~pp_sep:(fun _ () -> ()) (fun ppf c ->
         Format.fprintf ppf " %d=%d(w=%g)" c.attr c.value c.weight))
    t.constraints
