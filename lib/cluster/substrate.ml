open Qos_core

type node = {
  node_id : int;
  fault_domain : int;
  devices : Allocator.Device.t list;
  slots : int;
  hosted_types : int list;
  casebase : Casebase.t;
  engine : Engine.t option;
  entries : int;
  (* Live load accounting, shared by the serving ladder and the
     work-stealing policy. *)
  mutable inflight : int;
  mutable peak_inflight : int;
}

(* Filled by [create] before any worker domain starts and never
   written afterwards, so every domain may read it. *)
type placement = {
  routes : (int, int list) Hashtbl.t;  (* case-base type ID -> replicas *)
  ids : int list;  (* every node ID, ascending *)
}

type t = {
  nodes : node array;
  ring : Ring.t;
  replication : int;
  fault_domains : int;
  casebase : Casebase.t;
  placement : placement;
}

let ( let* ) = Result.bind

(* Every node gets the same minimal Fig. 1 slice: one mid-size
   reconfigurable fabric and one GPP.  Concurrency slots: an FPGA
   region hosts one function per ~60 units, a processor one per task
   slot. *)
let node_devices node_id =
  let* fpga =
    Allocator.Device.make
      ~device_id:(Printf.sprintf "n%d-fpga" node_id)
      ~target:Target.Fpga ~capacity:240 ()
  in
  let* gpp =
    Allocator.Device.make
      ~device_id:(Printf.sprintf "n%d-gpp" node_id)
      ~target:Target.Gpp ~capacity:8 ()
  in
  Ok [ fpga; gpp ]

let slots_of devices =
  let per (d : Allocator.Device.t) =
    match d.Allocator.Device.target with
    | Target.Fpga -> max 1 (d.Allocator.Device.capacity / 60)
    | _ -> d.Allocator.Device.capacity
  in
  List.fold_left (fun a d -> a + per d) 0 devices

let rec collect_results = function
  | [] -> Ok []
  | Error e :: _ -> Error e
  | Ok x :: rest ->
      let* xs = collect_results rest in
      Ok (x :: xs)

(* A type outside the case base is hosted nowhere. *)
let hosts routes ~node ~type_id =
  match Hashtbl.find routes type_id with
  | replicas -> List.mem node replicas
  | exception Not_found -> false

let create ?(vnodes = 64) ?(fault_domains = 3) ~nodes:count ~replication
    ~engine (cb : Casebase.t) =
  if count < 1 then Error "Substrate.create: nodes must be >= 1"
  else if replication < 1 then Error "Substrate.create: replication must be >= 1"
  else if fault_domains < 1 then
    Error "Substrate.create: fault_domains must be >= 1"
  else
    let replication = min replication count in
    let members = List.init count (fun i -> (i, i mod fault_domains)) in
    let* ring = Ring.create ~vnodes ~nodes:members () in
    (* Placement: each function type lands on its replica set; a node
       hosts the full type (every variant), so any replica answers
       decision-identically to the full case base. *)
    let routes = Hashtbl.create 16 in
    List.iter
      (fun (ft : Ftype.t) ->
        Hashtbl.replace routes ft.Ftype.id
          (Ring.route ring ~key:ft.Ftype.id ~replicas:replication))
      cb.Casebase.ftypes;
    let* node_list =
      collect_results
        (List.map
           (fun (node_id, fault_domain) ->
             let* devices = node_devices node_id in
             let sub =
               Casebase.restrict
                 ~name:(Printf.sprintf "%s@n%d" cb.Casebase.name node_id)
                 (fun (ft : Ftype.t) ->
                   hosts routes ~node:node_id ~type_id:ft.Ftype.id)
                 cb
             in
             let fts = sub.Casebase.ftypes in
             let* eng =
               match fts with
               | [] -> Ok None
               | _ -> (
                   match engine sub with
                   | Ok e -> Ok (Some e)
                   | Error e ->
                       Error
                         (Printf.sprintf "node %d engine: %s" node_id e))
             in
             Ok
               {
                 node_id;
                 fault_domain;
                 devices;
                 slots = slots_of devices;
                 hosted_types = List.map (fun (f : Ftype.t) -> f.Ftype.id) fts;
                 casebase = sub;
                 engine = eng;
                 entries =
                   List.fold_left
                     (fun a (f : Ftype.t) -> a + List.length f.Ftype.impls)
                     0 fts;
                 inflight = 0;
                 peak_inflight = 0;
               })
           members)
    in
    Ok
      {
        nodes = Array.of_list node_list;
        ring;
        replication;
        fault_domains;
        casebase = cb;
        placement = { routes; ids = List.map fst members };
      }

(* A type outside the case base is hosted nowhere; it still routes
   where the ring would place it. *)
let replicas_for t ~type_id =
  match Hashtbl.find t.placement.routes type_id with
  | replicas -> replicas
  | exception Not_found ->
      Ring.route t.ring ~key:type_id ~replicas:t.replication

let node t i = t.nodes.(i)
let members t = t.placement.ids

let holds t ~node ~type_id = hosts t.placement.routes ~node ~type_id

let acquire t ~node =
  let n = t.nodes.(node) in
  n.inflight <- n.inflight + 1;
  if n.inflight > n.peak_inflight then n.peak_inflight <- n.inflight

let release t ~node =
  let n = t.nodes.(node) in
  n.inflight <- n.inflight - 1

let load t ~node =
  let n = t.nodes.(node) in
  (n.inflight, n.slots)
