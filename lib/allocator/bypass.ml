open Qos_core

let signature (r : Request.t) =
  List.map
    (fun (c : Request.constr) -> (c.attr, c.value, Fxp.Q15.to_raw c.q15))
    r.constraints

let fingerprint (r : Request.t) =
  List.fold_left
    (fun h (c : Request.constr) ->
      let h = (h * 1000003) lxor c.attr in
      let h = (h * 1000003) lxor c.value in
      (h * 1000003) lxor Fxp.Q15.to_raw c.q15)
    (r.type_id * 1000003) r.constraints
  land max_int

(* The token the table is addressed by (what the hardware would hold in
   a CAM word) is only the 62-bit fingerprint; the full signature rides
   along in [key] so hits can be verified instead of trusted. *)
type token = { tok_app : string; tok_type : int; tok_fp : int }

type key = {
  app_id : string;
  type_id : int;
  fingerprint : int;
  signature : (int * int * int) list;
}

let key_of ?fingerprint:fp ~app_id (r : Request.t) =
  let fingerprint = match fp with Some f -> f r | None -> fingerprint r in
  { app_id; type_id = r.type_id; fingerprint; signature = signature r }

let token_of (k : key) =
  { tok_app = k.app_id; tok_type = k.type_id; tok_fp = k.fingerprint }

type entry = { e_signature : (int * int * int) list; e_impl : int }

type t = {
  table : (token, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable verified_misses : int;
  mutable invalidations : int;
}

let create () =
  {
    table = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    verified_misses = 0;
    invalidations = 0;
  }

let find_verified t key =
  match Hashtbl.find_opt t.table (token_of key) with
  | Some e when e.e_signature = key.signature -> `Hit e.e_impl
  | Some _ -> `Collision
  | None -> `Absent

let lookup t key =
  match find_verified t key with
  | `Hit impl_id ->
      t.hits <- t.hits + 1;
      Some impl_id
  | `Collision ->
      (* Fingerprint matched but the stored constraints differ: a hash
         collision between two distinct requests.  Returning the stored
         variant here would silently violate the caller's QoS. *)
      t.verified_misses <- t.verified_misses + 1;
      None
  | `Absent ->
      t.misses <- t.misses + 1;
      None

let peek t key =
  match find_verified t key with `Hit impl_id -> Some impl_id | _ -> None

let remember t key ~impl_id =
  Hashtbl.replace t.table (token_of key)
    { e_signature = key.signature; e_impl = impl_id }

let drop_matching t predicate =
  let victims =
    Hashtbl.fold
      (fun tok entry acc -> if predicate tok entry then tok :: acc else acc)
      t.table []
  in
  List.iter (Hashtbl.remove t.table) victims;
  let n = List.length victims in
  t.invalidations <- t.invalidations + n;
  n

let invalidate_impl t ~type_id ~impl_id =
  drop_matching t (fun tok entry ->
      tok.tok_type = type_id && entry.e_impl = impl_id)

let invalidate_app t ~app_id =
  drop_matching t (fun tok _ -> String.equal tok.tok_app app_id)

type stats = {
  hits : int;
  misses : int;
  verified_misses : int;
  tokens : int;
  invalidations : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    verified_misses = t.verified_misses;
    tokens = Hashtbl.length t.table;
    invalidations = t.invalidations;
  }

let pp_stats ppf s =
  Format.fprintf ppf "hits=%d misses=%d verified-miss=%d tokens=%d invalidated=%d"
    s.hits s.misses s.verified_misses s.tokens s.invalidations
