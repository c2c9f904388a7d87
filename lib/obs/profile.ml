module Request = Qos_core.Request

type breakdown = {
  total_cycles : int;
  phase_cycles : (string * int) list;
  consistent : bool;
}

type linearity = {
  points : (int * int) list;
  increments : int list;
  linear : bool;
}

(* The increments are "near-constant" up to per-constraint variation in
   list position and value width; the resume-scan architecture keeps
   the spread small while a restart-scan baseline makes later
   constraints strictly costlier.  The slack term absorbs the fixed
   control cycles visible at tiny request sizes. *)
let linear_slack = 32

let judge_linear increments =
  match increments with
  | [] | [ _ ] -> true
  | _ ->
      let mn = List.fold_left min max_int increments in
      let mx = List.fold_left max 0 increments in
      mx <= (2 * mn) + linear_slack

type report = {
  breakdown : breakdown;
  linearity : linearity;
  best_impl_id : int;
}

let prefix_request (r : Request.t) k =
  let constrs =
    List.filteri (fun i _ -> i < k) r.constraints
    |> List.map (fun (c : Request.constr) -> (c.attr, c.value, c.weight))
  in
  Request.make ~type_id:r.type_id constrs

let run (eng : Qos_core.Engine.t) request =
  let module E = Qos_core.Engine in
  let ( let* ) = Result.bind in
  if not eng.E.caps.E.reports_cycles then
    Error (Printf.sprintf "engine %s reports no cycle counts" eng.E.name)
  else
    let retrieve req =
      match eng.E.retrieve req with
      | Ok ({ E.cycles = Some _; _ } as d) -> Ok d
      | Ok _ ->
          Error
            (Printf.sprintf "engine %s returned a decision without cycles"
               eng.E.name)
      | Error e -> Error (E.error_to_string e)
    in
    let* full = retrieve request in
    let total = Option.get full.E.cycles in
    let* phase_cycles =
      match eng.E.phase_cycles with
      | None -> Ok []
      | Some phases ->
          Result.map_error E.error_to_string (phases request)
    in
    (* Engines without phase attribution report an empty (vacuously
       consistent) breakdown rather than a fake one. *)
    let consistent =
      match phase_cycles with
      | [] -> true
      | l -> List.fold_left (fun acc (_, n) -> acc + n) 0 l = total
    in
    let n = Request.constraint_count request in
    let rec ladder k acc =
      if k > n then Ok (List.rev acc)
      else
        let* req = prefix_request request k in
        let* d = retrieve req in
        ladder (k + 1) ((k, Option.get d.E.cycles) :: acc)
    in
    let* points = ladder 0 [] in
    let rec deltas = function
      | (_, a) :: ((_, b) :: _ as rest) -> (b - a) :: deltas rest
      | _ -> []
    in
    let increments = deltas points in
    Ok
      {
        breakdown = { total_cycles = total; phase_cycles; consistent };
        linearity = { points; increments; linear = judge_linear increments };
        best_impl_id = full.E.impl_id;
      }

let pp_report ppf r =
  Format.fprintf ppf "profile: total-cycles=%d best-impl=%d@\n"
    r.breakdown.total_cycles r.best_impl_id;
  Format.fprintf ppf "phases:";
  List.iter
    (fun (name, cycles) ->
      let pct =
        if r.breakdown.total_cycles = 0 then 0.0
        else
          100.0 *. float_of_int cycles /. float_of_int r.breakdown.total_cycles
      in
      Format.fprintf ppf " %s=%d (%.1f%%)" name cycles pct)
    r.breakdown.phase_cycles;
  Format.fprintf ppf "@\n";
  Format.fprintf ppf "phase-sum consistent=%b@\n" r.breakdown.consistent;
  Format.fprintf ppf "linearity: points=[%s] increments=[%s] linear=%b"
    (String.concat " "
       (List.map
          (fun (k, c) -> Printf.sprintf "%d:%d" k c)
          r.linearity.points))
    (String.concat " " (List.map string_of_int r.linearity.increments))
    r.linearity.linear

let report_to_json r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"profile\":{";
  Buffer.add_string buf
    (Printf.sprintf "\"total_cycles\":%d,\"best_impl\":%d,"
       r.breakdown.total_cycles r.best_impl_id);
  Buffer.add_string buf "\"phases\":{";
  List.iteri
    (fun i (name, cycles) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "%s:%d" (Jsonu.str name) cycles))
    r.breakdown.phase_cycles;
  Buffer.add_string buf
    (Printf.sprintf "},\"consistent\":%b," r.breakdown.consistent);
  Buffer.add_string buf "\"linearity\":{\"points\":[";
  List.iteri
    (fun i (k, c) ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (Printf.sprintf "[%d,%d]" k c))
    r.linearity.points;
  Buffer.add_string buf "],\"increments\":[";
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_string buf ",";
      Buffer.add_string buf (string_of_int d))
    r.linearity.increments;
  Buffer.add_string buf
    (Printf.sprintf "],\"linear\":%b}}}\n" r.linearity.linear);
  Buffer.contents buf
