module Q = Fxp.Q15

type decision = { impl_id : int; score : Q.t; cycles : int option }

let clock_mhz = 75.0

type error =
  | Unknown_type of int
  | No_implementations of int
  | Engine_failure of string

type caps = { bit_accurate : bool; reports_cycles : bool }

type t = {
  name : string;
  caps : caps;
  retrieve : Request.t -> (decision, error) result;
  retrieve_batch : Request.t list -> (decision, error) result list;
  phase_cycles : (Request.t -> ((string * int) list, error) result) option;
}

type factory = Casebase.t -> (t, string) result

let error_to_string = function
  | Unknown_type id -> Printf.sprintf "function type %d not found in case base" id
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

let of_retrieval_error = function
  | Retrieval.Unknown_type id -> Unknown_type id
  | Retrieval.No_implementations id -> No_implementations id

let batch_of_single retrieve requests = List.map retrieve requests

let equal_decision a b =
  a.impl_id = b.impl_id
  && Q.equal a.score b.score
  && match (a.cycles, b.cycles) with Some x, Some y -> x = y | _ -> true

let float_engine cb =
  let retrieve (request : Request.t) =
    match Engine_float.best cb request with
    | Error e -> Error (of_retrieval_error e)
    | Ok r ->
        Ok
          {
            impl_id = r.Retrieval.impl.Impl.id;
            score = Q.of_float r.Retrieval.score;
            cycles = None;
          }
  in
  Ok
    {
      name = "float";
      caps = { bit_accurate = false; reports_cycles = false };
      retrieve;
      retrieve_batch = batch_of_single retrieve;
      phase_cycles = None;
    }

let fixed_engine cb =
  let retrieve (request : Request.t) =
    match Engine_fixed.best cb request with
    | Error e -> Error (of_retrieval_error e)
    | Ok r ->
        Ok
          {
            impl_id = r.Retrieval.impl.Impl.id;
            score = r.Retrieval.score;
            cycles = None;
          }
  in
  Ok
    {
      name = "fixed";
      caps = { bit_accurate = true; reports_cycles = false };
      retrieve;
      retrieve_batch = batch_of_single retrieve;
      phase_cycles = None;
    }
