type document = { casebase : Casebase.t option; requests : Request.t list }

type parse_error = { line : int; message : string }

let pp_parse_error ppf e =
  Format.fprintf ppf "line %d: %s" e.line e.message

(* --- Tokenizer -------------------------------------------------------- *)

(* A token is a bare word or a quoted string (quotes stripped). *)
let tokenize_line line =
  let n = String.length line in
  let buf = Buffer.create 16 in
  let rec skip_blank i tokens =
    if i >= n then Ok (List.rev tokens)
    else
      match line.[i] with
      | ' ' | '\t' | '\r' -> skip_blank (i + 1) tokens
      | '#' -> Ok (List.rev tokens)
      | '"' -> in_quote (i + 1) tokens
      | _ -> in_word i tokens
  and in_word i tokens =
    let rec stop j =
      if j >= n then j
      else
        match line.[j] with ' ' | '\t' | '\r' | '#' | '"' -> j | _ -> stop (j + 1)
    in
    let j = stop i in
    skip_blank j (String.sub line i (j - i) :: tokens)
  and in_quote i tokens =
    Buffer.clear buf;
    let rec scan j =
      if j >= n then Error "unterminated quoted string"
      else if line.[j] = '"' then (
        let s = Buffer.contents buf in
        skip_blank (j + 1) (s :: tokens))
      else (
        Buffer.add_char buf line.[j];
        scan (j + 1))
    in
    scan i
  in
  skip_blank 0 []

(* --- Parser ----------------------------------------------------------- *)

(* Each builder keeps its header line: a block the core constructors
   refuse is reported there, not where it happens to close. *)
type impl_builder = {
  impl_line : int;
  impl_id : int;
  target : Target.t;
  rev_attrs : (int * int) list;
}

type type_builder = {
  type_line : int;
  type_id : int;
  type_name : string;
  rev_impls : Impl.t list;
}

type request_builder = {
  req_line : int;
  req_type : int;
  rev_wants : (int * int * float) list;
}

type context =
  | Top
  | In_schema
  | In_type of type_builder
  | In_impl of type_builder * impl_builder
  | In_request of request_builder

(* The document keeps the lines its end-of-file refusals belong to: the
   casebase header, the first schema line, and the first schema or type
   line.  0 means not seen yet. *)
type state = {
  cb_name : string option;
  cb_line : int;
  schema_line : int;
  data_line : int;
  rev_descriptors : Attr.descriptor list;
  rev_ftypes : Ftype.t list;
  rev_requests : Request.t list;
  context : context;
}

let initial =
  {
    cb_name = None;
    cb_line = 0;
    schema_line = 0;
    data_line = 0;
    rev_descriptors = [];
    rev_ftypes = [];
    rev_requests = [];
    context = Top;
  }

let err line message = Error { line; message }
let first seen line = if seen = 0 then line else seen

let int_token line what s =
  match int_of_string_opt s with
  | Some v -> Ok v
  | None -> err line (Printf.sprintf "%s: expected integer, got %S" what s)

let float_token line what s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> err line (Printf.sprintf "%s: expected number, got %S" what s)

let ( let* ) = Result.bind

(* Closing an open implementation folds it into its type builder. *)
let close_impl tb ib =
  match
    Impl.make ~id:ib.impl_id ~target:ib.target (List.rev ib.rev_attrs)
  with
  | Ok impl -> Ok { tb with rev_impls = impl :: tb.rev_impls }
  | Error m -> err ib.impl_line m

let close_type tb =
  match
    Ftype.make ~id:tb.type_id ~name:tb.type_name (List.rev tb.rev_impls)
  with
  | Ok ft -> Ok ft
  | Error m -> err tb.type_line m

let close_request rb =
  match Request.make ~type_id:rb.req_type (List.rev rb.rev_wants) with
  | Ok r -> Ok r
  | Error m -> err rb.req_line m

(* Close whatever block is open, returning to Top context. *)
let close_context state =
  match state.context with
  | Top | In_schema -> Ok { state with context = Top }
  | In_type tb ->
      let* ft = close_type tb in
      Ok { state with rev_ftypes = ft :: state.rev_ftypes; context = Top }
  | In_impl (tb, ib) ->
      let* tb = close_impl tb ib in
      let* ft = close_type tb in
      Ok { state with rev_ftypes = ft :: state.rev_ftypes; context = Top }
  | In_request rb ->
      let* r = close_request rb in
      Ok { state with rev_requests = r :: state.rev_requests; context = Top }

let step state line tokens =
  match tokens with
  | [] -> Ok state
  | "casebase" :: rest -> (
      match rest with
      | [ name ] -> (
          let* state = close_context state in
          match state.cb_name with
          | Some _ -> err line "duplicate casebase declaration"
          | None -> Ok { state with cb_name = Some name; cb_line = line })
      | _ -> err line "usage: casebase \"<name>\"")
  | [ "schema" ] ->
      let* state = close_context state in
      Ok
        {
          state with
          context = In_schema;
          schema_line = first state.schema_line line;
          data_line = first state.data_line line;
        }
  | "attr" :: rest -> (
      match (state.context, rest) with
      | In_schema, [ id; name; lower; upper ] ->
          let* id = int_token line "attr id" id in
          let* lower = int_token line "attr lower bound" lower in
          let* upper = int_token line "attr upper bound" upper in
          let* d =
            Result.map_error
              (fun m -> { line; message = m })
              (Attr.descriptor ~id ~name ~lower ~upper)
          in
          Ok { state with rev_descriptors = d :: state.rev_descriptors }
      | In_schema, _ -> err line "usage: attr <id> \"<name>\" <lower> <upper>"
      | (Top | In_type _ | In_impl _ | In_request _), _ ->
          err line "attr outside a schema block")
  | "type" :: rest -> (
      match rest with
      | [ id; name ] ->
          let* state = close_context state in
          let* type_id = int_token line "type id" id in
          let tb =
            { type_line = line; type_id; type_name = name; rev_impls = [] }
          in
          Ok
            {
              state with
              context = In_type tb;
              data_line = first state.data_line line;
            }
      | _ -> err line "usage: type <id> \"<name>\"")
  | "impl" :: rest -> (
      let* tb =
        match state.context with
        | In_type tb -> Ok tb
        | In_impl (tb, ib) -> close_impl tb ib
        | Top | In_schema | In_request _ ->
            err line "impl outside a type block"
      in
      match rest with
      | [ id; target ] ->
          let* impl_id = int_token line "impl id" id in
          let* target =
            Result.map_error
              (fun m -> { line; message = m })
              (Target.of_string target)
          in
          let ib = { impl_line = line; impl_id; target; rev_attrs = [] } in
          Ok { state with context = In_impl (tb, ib) }
      | _ -> err line "usage: impl <id> <target>")
  | "set" :: rest -> (
      match (state.context, rest) with
      | In_impl (tb, ib), [ aid; v ] ->
          let* aid = int_token line "attribute id" aid in
          let* v = int_token line "attribute value" v in
          Ok
            {
              state with
              context = In_impl (tb, { ib with rev_attrs = (aid, v) :: ib.rev_attrs });
            }
      | In_impl _, _ -> err line "usage: set <attr-id> <value>"
      | (Top | In_schema | In_type _ | In_request _), _ ->
          err line "set outside an impl block")
  | "request" :: rest -> (
      match rest with
      | [ tid ] ->
          let* state = close_context state in
          let* req_type = int_token line "request type id" tid in
          let rb = { req_line = line; req_type; rev_wants = [] } in
          Ok { state with context = In_request rb }
      | _ -> err line "usage: request <type-id>")
  | "want" :: rest -> (
      match (state.context, rest) with
      | In_request rb, [ aid; v; w ] ->
          let* aid = int_token line "attribute id" aid in
          let* v = int_token line "attribute value" v in
          let* w = float_token line "weight" w in
          Ok
            {
              state with
              context =
                In_request { rb with rev_wants = (aid, v, w) :: rb.rev_wants };
            }
      | In_request _, _ -> err line "usage: want <attr-id> <value> <weight>"
      | (Top | In_schema | In_type _ | In_impl _), _ ->
          err line "want outside a request block")
  | keyword :: _ -> err line (Printf.sprintf "unknown keyword %S" keyword)

let parse_document text =
  let lines = String.split_on_char '\n' text in
  let* state, _ =
    List.fold_left
      (fun acc raw ->
        let* state, lineno = acc in
        let lineno = lineno + 1 in
        match tokenize_line raw with
        | Error m -> err lineno m
        | Ok tokens ->
            let* state = step state lineno tokens in
            Ok (state, lineno))
      (Ok (initial, 0))
      lines
  in
  let* state = close_context state in
  let* casebase =
    match state.cb_name with
    | None ->
        if state.rev_descriptors = [] && state.rev_ftypes = [] then Ok None
        else err state.data_line "schema/type data without a casebase header"
    | Some name ->
        let* schema =
          Result.map_error
            (fun m -> { line = state.schema_line; message = m })
            (Attr.Schema.of_list (List.rev state.rev_descriptors))
        in
        let* cb =
          Result.map_error
            (fun m -> { line = state.cb_line; message = m })
            (Casebase.make ~name ~schema (List.rev state.rev_ftypes))
        in
        Ok (Some cb)
  in
  Ok { casebase; requests = List.rev state.rev_requests }

let parse_casebase text =
  let* doc = parse_document text in
  match doc.casebase with
  | Some cb -> Ok cb
  | None -> err 1 "document contains no casebase"

let parse_request text =
  let* doc = parse_document text in
  match doc.requests with
  | [ r ] -> Ok r
  | [] -> err 1 "document contains no request"
  | _ -> err 1 "document contains more than one request"

(* --- Printer ---------------------------------------------------------- *)

let print_casebase (cb : Casebase.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "casebase %S\n" cb.name);
  Buffer.add_string buf "schema\n";
  List.iter
    (fun (d : Attr.descriptor) ->
      Buffer.add_string buf
        (Printf.sprintf "  attr %d %S %d %d\n" d.id d.name d.lower d.upper))
    (Attr.Schema.descriptors cb.schema);
  List.iter
    (fun (ft : Ftype.t) ->
      Buffer.add_string buf (Printf.sprintf "type %d %S\n" ft.id ft.name);
      List.iter
        (fun (impl : Impl.t) ->
          Buffer.add_string buf
            (Printf.sprintf "  impl %d %s\n" impl.id
               (Target.to_string impl.target));
          List.iter
            (fun (aid, v) ->
              Buffer.add_string buf (Printf.sprintf "    set %d %d\n" aid v))
            impl.attrs)
        ft.impls)
    cb.ftypes;
  Buffer.contents buf

let print_request (r : Request.t) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf (Printf.sprintf "request %d\n" r.type_id);
  List.iter
    (fun (c : Request.constr) ->
      Buffer.add_string buf
        (Printf.sprintf "  want %d %d %.17g\n" c.attr c.value c.weight))
    r.constraints;
  Buffer.contents buf

let print_document doc =
  let cb = Option.fold ~none:"" ~some:print_casebase doc.casebase in
  cb ^ String.concat "" (List.map print_request doc.requests)
