type t = { name : string; schema : Attr.Schema.t; ftypes : Ftype.t list }

type stats = {
  type_count : int;
  impl_count : int;
  attr_entry_count : int;
  max_impls_per_type : int;
  max_attrs_per_impl : int;
}

let rec check_unique = function
  | [] | [ _ ] -> Ok ()
  | (a : Ftype.t) :: (b :: _ as rest) ->
      if a.Ftype.id = b.Ftype.id then
        Error (Printf.sprintf "duplicate function-type id %d" a.Ftype.id)
      else check_unique rest

let check_conformance schema ftypes =
  let check_type (ft : Ftype.t) =
    List.fold_left
      (fun acc impl -> Result.bind acc (fun () -> Impl.conforms schema impl))
      (Ok ()) ft.Ftype.impls
  in
  List.fold_left
    (fun acc ft -> Result.bind acc (fun () -> check_type ft))
    (Ok ()) ftypes

let make ~name ~schema ftypes =
  let sorted =
    List.sort (fun (a : Ftype.t) (b : Ftype.t) -> Int.compare a.id b.id) ftypes
  in
  Result.bind (check_unique sorted) (fun () ->
      Result.map
        (fun () -> { name; schema; ftypes = sorted })
        (check_conformance schema sorted))

let restrict ~name keep t = { t with name; ftypes = List.filter keep t.ftypes }

let derive_schema ?(naming = fun id -> Printf.sprintf "attr-%d" id) ftypes =
  let module M = Map.Make (Int) in
  let widen bounds (aid, v) =
    M.update aid
      (function
        | None -> Some (v, v) | Some (lo, hi) -> Some (min lo v, max hi v))
      bounds
  in
  let bounds =
    List.fold_left
      (fun acc (ft : Ftype.t) ->
        List.fold_left
          (fun acc (impl : Impl.t) ->
            List.fold_left widen acc impl.Impl.attrs)
          acc ft.Ftype.impls)
      M.empty ftypes
  in
  M.fold
    (fun aid (lower, upper) acc ->
      Result.bind acc (fun schema ->
          Result.bind
            (Attr.descriptor ~id:aid ~name:(naming aid) ~lower ~upper)
            (fun d -> Attr.Schema.add d schema)))
    bounds
    (Ok Attr.Schema.empty)

let find_type t id = List.find_opt (fun (ft : Ftype.t) -> ft.id = id) t.ftypes

let find_impl t ~type_id ~impl_id =
  Option.bind (find_type t type_id) (fun ft -> Ftype.find_impl ft impl_id)

let stats t =
  let fold (acc : stats) (ft : Ftype.t) =
    let impls = List.length ft.Ftype.impls in
    let attrs =
      List.fold_left (fun n impl -> n + Impl.attr_count impl) 0 ft.Ftype.impls
    in
    let max_attrs =
      List.fold_left
        (fun m impl -> max m (Impl.attr_count impl))
        acc.max_attrs_per_impl ft.Ftype.impls
    in
    {
      type_count = acc.type_count + 1;
      impl_count = acc.impl_count + impls;
      attr_entry_count = acc.attr_entry_count + attrs;
      max_impls_per_type = max acc.max_impls_per_type impls;
      max_attrs_per_impl = max_attrs;
    }
  in
  List.fold_left fold
    {
      type_count = 0;
      impl_count = 0;
      attr_entry_count = 0;
      max_impls_per_type = 0;
      max_attrs_per_impl = 0;
    }
    t.ftypes

let equal a b =
  String.equal a.name b.name
  && Attr.Schema.equal a.schema b.schema
  && List.equal Ftype.equal a.ftypes b.ftypes

let pp ppf t =
  Format.fprintf ppf "@[<v 2>casebase %S:@ %a@ %a@]" t.name Attr.Schema.pp
    t.schema
    (Format.pp_print_list Ftype.pp)
    t.ftypes

let pp_stats ppf s =
  Format.fprintf ppf
    "types=%d impls=%d attr-entries=%d max-impls/type=%d max-attrs/impl=%d"
    s.type_count s.impl_count s.attr_entry_count s.max_impls_per_type
    s.max_attrs_per_impl
