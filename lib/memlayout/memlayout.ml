open Qos_core

let end_marker = 0xFFFF
let max_value_word = Attr.max_word
let address_space = 0x10000

module Ram = struct
  type t = { words : int array; mutable accesses : int }

  let of_array words =
    Array.iter
      (fun w ->
        if w < 0 || w > end_marker then
          invalid_arg (Printf.sprintf "Ram.of_array: word %d out of range" w))
      words;
    { words = Array.copy words; accesses = 0 }

  let size t = Array.length t.words

  let read t addr =
    if addr < 0 || addr >= Array.length t.words then
      invalid_arg (Printf.sprintf "Ram.read: address %d out of bounds" addr)
    else (
      t.accesses <- t.accesses + 1;
      t.words.(addr))

  let peek t addr =
    if addr < 0 || addr >= Array.length t.words then
      invalid_arg (Printf.sprintf "Ram.peek: address %d out of bounds" addr)
    else t.words.(addr)

  let access_count t = t.accesses
end

type decoded_request = {
  req_type_id : int;
  req_constraints : (int * int * int) list;
}

type decoded_supplemental = (int * int * int * int) list

type decoded_tree = (int * (int * (int * int) list) list) list

let ( let* ) = Result.bind

(* --- Request list ------------------------------------------------------ *)

(* Request.make bounds every ID and value to 0..max_value_word, so every
   word but the last is below the end marker. *)
let encode_request (r : Request.t) =
  Array.of_list
    (r.type_id
     :: List.concat_map
          (fun (c : Request.constr) ->
            [ c.attr; c.value; Fxp.Q15.to_raw c.q15 ])
          r.constraints
    @ [ end_marker ])

let decode_request words =
  let n = Array.length words in
  if n < 2 then Error "request image too short"
  else
    let req_type_id = words.(0) in
    let rec loop i acc =
      if i >= n then Error "request image lacks an end marker"
      else if words.(i) = end_marker then Ok (List.rev acc)
      else if i + 2 >= n then Error "truncated request attribute block"
      else loop (i + 3) ((words.(i), words.(i + 1), words.(i + 2)) :: acc)
    in
    let* req_constraints = loop 1 [] in
    Ok { req_type_id; req_constraints }

(* --- Supplemental list -------------------------------------------------- *)

let decode_supplemental words =
  let n = Array.length words in
  let rec loop i acc =
    if i >= n then Error "supplemental image lacks an end marker"
    else if words.(i) = end_marker then Ok (List.rev acc)
    else if i + 3 >= n then Error "truncated supplemental block"
    else
      loop (i + 4)
        ((words.(i), words.(i + 1), words.(i + 2), words.(i + 3)) :: acc)
  in
  loop 0 []

(* --- Implementation tree ------------------------------------------------ *)

let decode_tree words =
  let n = Array.length words in
  let read_pairs start =
    let rec loop i acc =
      if i >= n then Error "tree list lacks an end marker"
      else if words.(i) = end_marker then Ok (List.rev acc, i + 1)
      else if i + 1 >= n then Error "truncated tree pair"
      else loop (i + 2) ((words.(i), words.(i + 1)) :: acc)
    in
    loop start []
  in
  let* level0, _ = read_pairs 0 in
  List.fold_left
    (fun acc (type_id, l1_ptr) ->
      let* rev_types = acc in
      let* level1, _ = read_pairs l1_ptr in
      let* impls =
        List.fold_left
          (fun acc (impl_id, l2_ptr) ->
            let* rev_impls = acc in
            let* attrs, _ = read_pairs l2_ptr in
            Ok ((impl_id, attrs) :: rev_impls))
          (Ok []) level1
      in
      Ok ((type_id, List.rev impls) :: rev_types))
    (Ok []) level0
  |> Result.map List.rev

(* --- CB-MEM image ------------------------------------------------------- *)

type system_image = {
  cb_mem : int array;
  req_mem : int array;
  tree_base : int;
  supplemental_base : int;
}

type cb_image = { cb_words : int array; cb_supplemental_base : int }

(* Words of a type's level-1 list and of a variant's level-2 list, and
   the three levels' totals, end markers included. *)
let level1_size (ft : Ftype.t) = (2 * List.length ft.impls) + 1
let level2_size impl = (2 * Impl.attr_count impl) + 1

let level_sizes (cb : Casebase.t) =
  let level1 = ref 0 and level2 = ref 0 in
  List.iter
    (fun ft ->
      level1 := !level1 + level1_size ft;
      List.iter (fun impl -> level2 := !level2 + level2_size impl) ft.impls)
    cb.ftypes;
  ((2 * List.length cb.ftypes) + 1, !level1, !level2)

(* Address plan: the level-0 list at 0, each type's level-1 list in type
   order, every level-2 attribute list in (type, impl) order, then the
   supplemental list.  The sizes fix every base up front, so each level
   is filled in one walk whose pointer words are a running address into
   the level below.  The constructors bound every ID and value to
   0..max_value_word, so no word written here is the end marker. *)
let encode_cb (cb : Casebase.t) =
  let level0, level1, level2 = level_sizes cb in
  let tree = level0 + level1 + level2 in
  let descriptors = Attr.Schema.descriptors cb.schema in
  let total = tree + (4 * List.length descriptors) + 1 in
  if tree > address_space then
    Error
      (Printf.sprintf
         "tree image needs %d words, exceeding the 16-bit address space" tree)
  else if total > address_space then
    Error "combined CB-MEM image exceeds the 16-bit address space"
  else begin
    let words = Array.make total end_marker in
    let pos = ref 0 and next = ref level0 in
    let pair a b =
      words.(!pos) <- a;
      words.(!pos + 1) <- b;
      pos := !pos + 2
    in
    (* Level 0: one (type ID, level-1 pointer) pair per type. *)
    List.iter
      (fun (ft : Ftype.t) ->
        pair ft.id !next;
        next := !next + level1_size ft)
      cb.ftypes;
    (* Level 1, per type: (impl ID, level-2 pointer) pairs. *)
    pos := level0;
    List.iter
      (fun (ft : Ftype.t) ->
        List.iter
          (fun (impl : Impl.t) ->
            pair impl.id !next;
            next := !next + level2_size impl)
          ft.impls;
        incr pos)
      cb.ftypes;
    (* Level 2, per (type, impl): (attr ID, value) pairs. *)
    List.iter
      (fun (ft : Ftype.t) ->
        List.iter
          (fun (impl : Impl.t) ->
            List.iter (fun (aid, v) -> pair aid v) impl.attrs;
            incr pos)
          ft.impls)
      cb.ftypes;
    assert (!pos = tree);
    (* Supplemental list: (attr ID, lower, upper, recip) blocks. *)
    List.iter
      (fun (d : Attr.descriptor) ->
        pair d.id d.lower;
        pair d.upper (Fxp.Q15.to_raw (Fxp.Q15.recip_succ (Attr.dmax d))))
      descriptors;
    Ok { cb_words = words; cb_supplemental_base = tree }
  end

let attach_request image request =
  {
    cb_mem = image.cb_words;
    req_mem = encode_request request;
    tree_base = 0;
    supplemental_base = image.cb_supplemental_base;
  }

let build_system cb request =
  let* image = encode_cb cb in
  Ok (attach_request image request)

let reconstruct_system ~cb_mem ~req_mem ~supplemental_base =
  if supplemental_base <= 0 || supplemental_base > Array.length cb_mem then
    Error "supplemental base outside the CB-MEM image"
  else
    (* Validate all three structures by decoding them. *)
    let* _ = decode_tree (Array.sub cb_mem 0 supplemental_base) in
    let* _ =
      decode_supplemental
        (Array.sub cb_mem supplemental_base
           (Array.length cb_mem - supplemental_base))
    in
    let* _ = decode_request req_mem in
    Ok
      {
        cb_mem = Array.copy cb_mem;
        req_mem = Array.copy req_mem;
        tree_base = 0;
        supplemental_base;
      }

(* --- Accounting (Table 3) ----------------------------------------------- *)

type accounting = {
  request_words : int;
  supplemental_words : int;
  tree_level0_words : int;
  tree_level1_words : int;
  tree_level2_words : int;
  tree_total_words : int;
}

let account cb request =
  let* image = encode_cb cb in
  let level0, level1, level2 = level_sizes cb in
  Ok
    {
      request_words = Array.length (encode_request request);
      supplemental_words =
        Array.length image.cb_words - image.cb_supplemental_base;
      tree_level0_words = level0;
      tree_level1_words = level1;
      tree_level2_words = level2;
      tree_total_words = image.cb_supplemental_base;
    }

let bytes_of_words w = 2 * w

let worst_case_tree_words ~types ~impls_per_type ~attrs_per_impl
    ~include_end_markers ~include_pointers =
  let marker n = if include_end_markers then n else 0 in
  let pointer n = if include_pointers then n else 0 in
  let level0 = types + pointer types + marker 1 in
  let level1 = types * (impls_per_type + pointer impls_per_type + marker 1) in
  let level2 = types * impls_per_type * ((2 * attrs_per_impl) + marker 1) in
  level0 + level1 + level2

let worst_case_request_words ~attrs_per_request ~include_end_marker =
  1 + (3 * attrs_per_request) + if include_end_marker then 1 else 0

let pp_accounting ppf a =
  Format.fprintf ppf
    "request=%dw supplemental=%dw tree=%dw (l0=%d l1=%d l2=%d) total=%d bytes"
    a.request_words a.supplemental_words a.tree_total_words a.tree_level0_words
    a.tree_level1_words a.tree_level2_words
    (bytes_of_words
       (a.request_words + a.supplemental_words + a.tree_total_words))
