let ( let* ) = Result.bind

let rebuild (cb : Casebase.t) ?(schema = cb.schema) ftypes =
  Casebase.make ~name:cb.name ~schema ftypes

let update_type (cb : Casebase.t) type_id f =
  match Casebase.find_type cb type_id with
  | None -> Error (Retrieval.error_to_string (Unknown_type type_id))
  | Some ft ->
      let* updated = f ft in
      let ftypes =
        List.map
          (fun (existing : Ftype.t) ->
            if existing.id = type_id then updated else existing)
          cb.ftypes
      in
      rebuild cb ftypes

let retain_variant cb ~type_id impl =
  update_type cb type_id (fun ft ->
      Ftype.make ~id:ft.Ftype.id ~name:ft.Ftype.name (impl :: ft.Ftype.impls))

let forget_variant cb ~type_id ~impl_id =
  update_type cb type_id (fun ft ->
      match Ftype.find_impl ft impl_id with
      | None ->
          Error
            (Printf.sprintf "type %d has no implementation %d" type_id impl_id)
      | Some _ ->
          Ftype.make ~id:ft.Ftype.id ~name:ft.Ftype.name
            (List.filter
               (fun (i : Impl.t) -> i.id <> impl_id)
               ft.Ftype.impls))

let add_type (cb : Casebase.t) ft =
  if Casebase.find_type cb ft.Ftype.id <> None then
    Error (Printf.sprintf "function type %d already present" ft.Ftype.id)
  else rebuild cb (ft :: cb.ftypes)

let remove_type (cb : Casebase.t) ~type_id =
  if Casebase.find_type cb type_id = None then
    Error (Retrieval.error_to_string (Unknown_type type_id))
  else
    rebuild cb
      (List.filter (fun (ft : Ftype.t) -> ft.id <> type_id) cb.ftypes)

let smooth ~smoothing ~lower ~upper old measured =
  let blended =
    ((1.0 -. smoothing) *. float_of_int old)
    +. (smoothing *. float_of_int measured)
  in
  let rounded = int_of_float (Float.round blended) in
  min upper (max lower rounded)

let observe (cb : Casebase.t) ~type_id ~impl_id ~measurements ~smoothing =
  if smoothing <= 0.0 || smoothing > 1.0 || not (Float.is_finite smoothing)
  then Error "smoothing factor must lie in (0, 1]"
  else
    update_type cb type_id (fun ft ->
        match Ftype.find_impl ft impl_id with
        | None ->
            Error
              (Printf.sprintf "type %d has no implementation %d" type_id
                 impl_id)
        | Some impl ->
            let revise_attr (aid, old_value) =
              match List.assoc_opt aid measurements with
              | None -> Ok (aid, old_value)
              | Some measured -> (
                  match Attr.Schema.find cb.schema aid with
                  | None ->
                      Error
                        (Printf.sprintf "attribute %d not in schema" aid)
                  | Some d ->
                      Ok
                        ( aid,
                          smooth ~smoothing ~lower:d.Attr.lower
                            ~upper:d.Attr.upper old_value measured ))
            in
            let* unknown =
              match
                List.find_opt
                  (fun (aid, _) -> Impl.find_attr impl aid = None)
                  measurements
              with
              | Some (aid, _) ->
                  Error
                    (Printf.sprintf
                       "implementation %d carries no attribute %d (retain a \
                        new variant instead)"
                       impl_id aid)
              | None -> Ok ()
            in
            ignore unknown;
            let* revised =
              List.fold_left
                (fun acc pair ->
                  let* rev = acc in
                  let* entry = revise_attr pair in
                  Ok (entry :: rev))
                (Ok []) impl.Impl.attrs
            in
            let* revised_impl =
              Impl.make ~id:impl.Impl.id ~target:impl.Impl.target
                (List.rev revised)
            in
            Ftype.make ~id:ft.Ftype.id ~name:ft.Ftype.name
              (List.map
                 (fun (i : Impl.t) ->
                   if i.id = impl_id then revised_impl else i)
                 ft.Ftype.impls))

let widen_schema_for (cb : Casebase.t) (impl : Impl.t) =
  let widen_one schema (aid, value) =
    match Attr.Schema.find schema aid with
    | Some d ->
        if value >= d.Attr.lower && value <= d.Attr.upper then Ok schema
        else
          let* widened =
            Attr.descriptor ~id:aid ~name:d.Attr.name
              ~lower:(min d.Attr.lower value)
              ~upper:(max d.Attr.upper value)
          in
          (* Rebuild the schema with the widened descriptor. *)
          Attr.Schema.of_list
            (List.map
               (fun (existing : Attr.descriptor) ->
                 if existing.id = aid then widened else existing)
               (Attr.Schema.descriptors schema))
    | None ->
        let* fresh =
          Attr.descriptor ~id:aid
            ~name:(Printf.sprintf "attr-%d" aid)
            ~lower:value ~upper:value
        in
        Attr.Schema.add fresh schema
  in
  let* schema =
    List.fold_left
      (fun acc pair -> Result.bind acc (fun s -> widen_one s pair))
      (Ok cb.schema) impl.Impl.attrs
  in
  rebuild cb ~schema cb.ftypes
