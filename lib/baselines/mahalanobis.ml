open Qos_core

type model = {
  schema : Attr.Schema.t;
  dims : Attr.id array;  (** Attribute IDs in vector order. *)
  impls : Impl.t list;
  inv_cov : Matrix.t;
  sample_count : int;
}

type flops = { prepare_flops : int; per_query_flops : int }

let midpoint (d : Attr.descriptor) =
  float_of_int (d.lower + d.upper) /. 2.0

(* Embed a variant in schema space; absent attributes sit at the bound
   midpoint so they neither attract nor repel. *)
let embed_impl schema dims impl =
  Array.map
    (fun aid ->
      match Impl.find_attr impl aid with
      | Some v -> float_of_int v
      | None -> (
          match Attr.Schema.find schema aid with
          | Some d -> midpoint d
          | None -> 0.0))
    dims

let embed_request schema dims (request : Request.t) =
  Array.map
    (fun aid ->
      match Request.find request aid with
      | Some c -> float_of_int c.Request.value
      | None -> (
          match Attr.Schema.find schema aid with
          | Some d -> midpoint d
          | None -> 0.0))
    dims

let prepare ?(ridge = 1e-6) (cb : Casebase.t) ~type_id =
  match Casebase.find_type cb type_id with
  | None -> Error (Retrieval.error_to_string (Unknown_type type_id))
  | Some ft when ft.Ftype.impls = [] ->
      Error (Retrieval.error_to_string (No_implementations type_id))
  | Some ft ->
      let dims =
        Array.of_list
          (List.map
             (fun (d : Attr.descriptor) -> d.id)
             (Attr.Schema.descriptors cb.schema))
      in
      if Array.length dims = 0 then Error "empty schema"
      else
        let samples =
          List.map (embed_impl cb.schema dims) ft.Ftype.impls
        in
        Result.bind (Matrix.covariance samples) (fun cov ->
            let regularised = Matrix.add_scaled_identity cov ridge in
            Result.map
              (fun inv_cov ->
                {
                  schema = cb.schema;
                  dims;
                  impls = ft.Ftype.impls;
                  inv_cov;
                  sample_count = List.length samples;
                })
              (Matrix.inverse regularised))

let flops model =
  let n = Array.length model.dims in
  let k = model.sample_count in
  {
    (* covariance: k * n^2 multiply-adds; Gauss-Jordan: ~2 n^3. *)
    prepare_flops = (2 * k * n * n) + (2 * n * n * n);
    (* (a-b)^T S^-1 (a-b): n subtractions + n^2 multiply-adds. *)
    per_query_flops = n + (2 * n * n);
  }

type ranked = { impl : Impl.t; distance : float; score : float }

let rank model (request : Request.t) =
  let rv = embed_request model.schema model.dims request in
  let score_impl impl =
    let iv = embed_impl model.schema model.dims impl in
    let diff = Array.mapi (fun i v -> v -. rv.(i)) iv in
    match Matrix.quadratic_form model.inv_cov diff with
    | Error _ -> { impl; distance = infinity; score = 0.0 }
    | Ok d2 ->
        let distance = sqrt (Float.max 0.0 d2) in
        { impl; distance; score = 1.0 /. (1.0 +. distance) }
  in
  List.stable_sort
    (fun a b -> Float.compare a.distance b.distance)
    (List.map score_impl model.impls)

let best model request =
  match rank model request with [] -> None | top :: _ -> Some top
