(* Drive the cycle-accurate hardware retrieval unit: FSM trace over the
   paper example, cycle statistics for the architecture variants, and
   the software-baseline comparison (Sec. 4.2).

   Run with: dune exec examples/hardware_unit.exe *)

open Qos_core
module M = Rtlsim.Machine

let () =
  let cb = Scenario_audio.casebase in
  let request = Scenario_audio.request in

  print_endline "FSM trace (paper example, word-serial configuration):";
  (match M.retrieve ~trace:true cb request with
  | Error e -> print_endline (Retrieval.error_to_string e)
  | Ok o ->
      List.iter (fun line -> print_endline ("  " ^ line)) o.M.trace;
      Printf.printf "=> impl %d, S = %.4f\n\n" o.M.best_impl_id
        (Fxp.Q15.to_float o.M.best_score));

  print_endline "architecture variants on a 15x10x10 case base:";
  let big = Workload.Generator.sized_casebase ~seed:61 ~types:15 ~impls:10 ~attrs:10 in
  let req = Workload.Generator.sized_request ~seed:62 big in
  let run label config =
    match M.retrieve ~config big req with
    | Error e ->
        Printf.printf "  %-28s %s\n" label (Retrieval.error_to_string e)
    | Ok o ->
        Printf.printf "  %-28s %6d cycles (impl %d)\n" label
          o.M.stats.M.cycles o.M.best_impl_id
  in
  run "word-serial (paper)" M.paper_config;
  run "compacted blocks (Sec. 5)" { M.paper_config with M.compacted = true };
  run "restart scans (no Sec. 4.1)" { M.paper_config with M.resume_scan = false };
  run "iterative divider" { M.paper_config with M.use_divider = true };

  print_endline "\nsoftware baseline (MicroBlaze-like soft core):";
  (match Mblaze.Retrieval_prog.run big req with
  | Error e -> print_endline e
  | Ok r ->
      Format.printf "  %a@." Mblaze.Retrieval_prog.pp_result r;
      (match M.retrieve big req with
      | Ok o ->
          Printf.printf "  speedup at equal clock: %.2fx\n"
            (float_of_int r.Mblaze.Retrieval_prog.stats.Mblaze.Cpu.cycles
            /. float_of_int o.M.stats.M.cycles)
      | Error _ -> ()));

  print_endline "\nresource estimate (Table 2 model):";
  let e = Resource.estimate Resource.retrieval_unit in
  Format.printf "  %a@." Resource.pp_estimate e
