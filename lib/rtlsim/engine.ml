module E = Qos_core.Engine

let decision_of_outcome (o : Machine.outcome) =
  {
    E.impl_id = o.Machine.best_impl_id;
    score = o.Machine.best_score;
    cycles = Some o.Machine.stats.Machine.cycles;
  }

let create ?(config = Machine.paper_config) cb =
  match Memlayout.encode_cb cb with
  | Error e -> Error e
  | Ok image ->
      let run_outcome request =
        Machine.run ~config (Memlayout.attach_request image request)
      in
      let retrieve request = Result.map decision_of_outcome (run_outcome request) in
      let phase_cycles request =
        Result.map
          (fun (o : Machine.outcome) ->
            List.map
              (fun p ->
                ( Machine.phase_name p,
                  Machine.phase_cycles_get p o.Machine.stats.Machine.phases ))
              Machine.all_phases)
          (run_outcome request)
      in
      Ok
        {
          E.name = "rtlsim";
          caps = { E.bit_accurate = true; reports_cycles = true };
          retrieve;
          retrieve_batch = E.batch_of_single retrieve;
          phase_cycles = Some phase_cycles;
        }

let factory cb = create cb
