module E = Qos_core.Engine
module Casebase = Qos_core.Casebase
module Ftype = Qos_core.Ftype
module Request = Qos_core.Request

(* The simulated unit only raises a single not_found flag; recover the
   structured error from the case base itself. *)
let classify_not_found cb (request : Request.t) =
  match Casebase.find_type cb request.Request.type_id with
  | None -> E.Unknown_type request.Request.type_id
  | Some ft when Ftype.impl_count ft = 0 ->
      E.No_implementations request.Request.type_id
  | Some _ -> E.Engine_failure "netlist raised not_found on a populated type"

let create cb =
  match Memlayout.encode_cb cb with
  | Error e -> Error e
  | Ok image ->
      let retrieve request =
        match Elaborate.system (Memlayout.attach_request image request) with
        | Error m -> Error (E.Engine_failure ("elaborate: " ^ m))
        | Ok design -> (
            match Sim.run design with
            | Error m -> Error (E.Engine_failure ("netlist sim: " ^ m))
            | Ok { Sim.decision = Some d; _ } -> Ok d
            | Ok { Sim.decision = None; _ } ->
                Error (classify_not_found cb request))
      in
      Ok
        {
          E.name = "netlist";
          caps = { E.bit_accurate = true; reports_cycles = true };
          retrieve;
          retrieve_batch = E.batch_of_single retrieve;
          phase_cycles = None;
        }

let factory = create
