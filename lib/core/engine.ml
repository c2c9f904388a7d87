module Q = Fxp.Q15

type decision = { impl_id : int; score : Q.t; cycles : int option }

let clock_mhz = 75.0

type error = Retrieval.error =
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

let error_to_string = Retrieval.error_to_string
let pp_error = Retrieval.pp_error
let equal_error = Retrieval.equal_error

let batch_of_single retrieve requests = List.map retrieve requests

let equal_decision a b =
  a.impl_id = b.impl_id
  && Q.equal a.score b.score
  && match (a.cycles, b.cycles) with Some x, Some y -> x = y | _ -> true

(* The two core engines: neither models time, and their decision is
   the head of the ranking. *)
let of_ranking name ~bit_accurate ~score best cb =
  let retrieve request =
    Result.map
      (fun (r : _ Retrieval.ranked) ->
        { impl_id = r.impl.Impl.id; score = score r.score; cycles = None })
      (best cb request)
  in
  Ok
    {
      name;
      caps = { bit_accurate; reports_cycles = false };
      retrieve;
      retrieve_batch = batch_of_single retrieve;
      phase_cycles = None;
    }

let float_engine =
  of_ranking "float" ~bit_accurate:false ~score:Q.of_float (fun cb request ->
      Engine_float.best cb request)

let fixed_engine =
  of_ranking "fixed" ~bit_accurate:true ~score:Fun.id Engine_fixed.best
