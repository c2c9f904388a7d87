type error =
  | Unknown_type of int
  | No_implementations of int
  | Engine_failure of string

type 'score ranked = { impl : Impl.t; score : 'score }

let error_to_string = function
  | Unknown_type id ->
      Printf.sprintf "function type %d not found in case base" id
  | No_implementations id ->
      Printf.sprintf "function type %d has no implementations" id
  | Engine_failure m -> m

let pp_error ppf e = Format.pp_print_string ppf (error_to_string e)

let equal_error a b =
  match (a, b) with
  | Unknown_type x, Unknown_type y | No_implementations x, No_implementations y
    ->
      x = y
  | Engine_failure x, Engine_failure y -> String.equal x y
  | (Unknown_type _ | No_implementations _ | Engine_failure _), _ -> false

let rank ~compare score casebase (request : Request.t) =
  match Casebase.find_type casebase request.type_id with
  | None -> Error (Unknown_type request.type_id)
  | Some ft when Ftype.impl_count ft = 0 ->
      Error (No_implementations request.type_id)
  | Some ft ->
      let scored =
        List.map (fun impl -> { impl; score = score impl }) ft.impls
      in
      Ok (List.stable_sort (fun a b -> compare b.score a.score) scored)

(* [rank] refuses a type without variants, so a ranking is never
   empty. *)
let best ranking = Result.map List.hd ranking

let take n list =
  let rec loop n acc = function
    | [] -> List.rev acc
    | _ when n <= 0 -> List.rev acc
    | x :: rest -> loop (n - 1) (x :: acc) rest
  in
  loop n [] list

let n_best ~n ranking = Result.map (take n) ranking
