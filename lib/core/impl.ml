type t = {
  id : int;
  target : Target.t;
  attrs : (Attr.id * Attr.value) list;
}

let rec check_sorted_unique = function
  | [] | [ _ ] -> Ok ()
  | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then Error (Printf.sprintf "duplicate attribute id %d" a)
      else check_sorted_unique rest

let make ~id ~target attrs =
  if id <= 0 || id > Attr.max_word then
    Error (Printf.sprintf "implementation id %d outside (0, %d]" id Attr.max_word)
  else
    let bad =
      List.find_opt
        (fun (aid, v) ->
          aid <= 0 || aid > Attr.max_word || v < 0 || v > Attr.max_word)
        attrs
    in
    match bad with
    | Some (aid, v) ->
        Error
          (Printf.sprintf
             "attribute (%d, %d) outside the word range (ID 1..%d, value \
              0..%d)"
             aid v Attr.max_word Attr.max_word)
    | None ->
        let sorted =
          List.sort (fun (a, _) (b, _) -> Int.compare a b) attrs
        in
        Result.map
          (fun () -> { id; target; attrs = sorted })
          (check_sorted_unique sorted)

let find_attr t id = List.assoc_opt id t.attrs
let attr_count t = List.length t.attrs
let attr_ids t = List.map fst t.attrs

let conforms schema t =
  let check (aid, v) =
    match Attr.Schema.find schema aid with
    | None ->
        Error
          (Printf.sprintf "impl %d: attribute %d not in schema" t.id aid)
    | Some d ->
        if v < d.Attr.lower || v > d.Attr.upper then
          Error
            (Printf.sprintf "impl %d: attribute %d value %d outside [%d, %d]"
               t.id aid v d.Attr.lower d.Attr.upper)
        else Ok ()
  in
  List.fold_left
    (fun acc pair -> Result.bind acc (fun () -> check pair))
    (Ok ()) t.attrs

let equal a b =
  a.id = b.id && Target.equal a.target b.target
  && List.equal (fun (i, v) (j, w) -> i = j && v = w) a.attrs b.attrs

let pp ppf t =
  Format.fprintf ppf "@[impl %d on %a:%a@]" t.id Target.pp t.target
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (i, v) ->
         Format.fprintf ppf " %d=%d" i v))
    t.attrs
