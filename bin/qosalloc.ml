(* qosalloc: command-line front end for the QoS-based function
   allocation library.

   Subcommands:
     retrieve   run CBR retrieval over a case base for a request
     layout     show the Fig. 4/5 RAM images and memory accounting
     trace      run the hardware unit model with a cycle trace
     resources  print the Table 2 resource estimate
     simulate   run the full-system discrete-event simulation
     faults     run a fault-injection campaign with recovery
     demo       emit the built-in paper example as text-format files *)

open Cmdliner
open Qos_core

let read_file path =
  try Ok (In_channel.with_open_text path In_channel.input_all)
  with Sys_error m -> Error m

(* A -c/-r input: the built-in paper example when absent. *)
let load parse default = function
  | None -> Ok default
  | Some path ->
      Result.bind (read_file path) (fun text ->
          Result.map_error
            (fun e -> Format.asprintf "%s: %a" path Textfmt.pp_parse_error e)
            (parse text))

let load_casebase = load Textfmt.parse_casebase Scenario_audio.casebase
let load_request = load Textfmt.parse_request Scenario_audio.request

let or_die = function
  | Ok v -> v
  | Error m ->
      prerr_endline ("qosalloc: " ^ m);
      exit 1

(* --- common args ------------------------------------------------------- *)

let casebase_arg =
  let doc =
    "Case base in the qosalloc text format.  Defaults to the built-in \
     paper example (Fig. 3 audio case base)."
  in
  Arg.(value & opt (some file) None & info [ "c"; "casebase" ] ~docv:"FILE" ~doc)

let request_arg =
  let doc =
    "Request in the qosalloc text format.  Defaults to the built-in paper \
     request (bitwidth 16, stereo, 40 kS/s)."
  in
  Arg.(value & opt (some file) None & info [ "r"; "request" ] ~docv:"FILE" ~doc)

let format_arg =
  let fmt_conv =
    Arg.conv
      ( (function
        | "text" -> Ok `Text
        | "json" -> Ok `Json
        | s -> Error (`Msg (Printf.sprintf "unknown format %S" s))),
        fun ppf f ->
          Format.pp_print_string ppf
            (match f with `Text -> "text" | `Json -> "json") )
  in
  Arg.(
    value & opt fmt_conv `Text
    & info [ "format" ] ~docv:"FMT"
        ~doc:"Output format: $(b,text) or $(b,json).")

(* The rtlsim architecture toggles of [trace] and [profile]. *)
let machine_config_term =
  let flag name doc = Arg.(value & flag & info [ name ] ~doc) in
  Term.(
    const (fun compacted restart use_divider ->
        {
          Rtlsim.Machine.resume_scan = not restart;
          compacted;
          use_divider;
          overlap_compute = false;
          registered_bram = false;
        })
    $ flag "compacted" "Compacted block fetches."
    $ flag "restart-scan" "Disable resume scanning."
    $ flag "divider" "Use an iterative divider.")

(* --- shared run flags ---------------------------------------------------- *)

(* [conv] restricted to values satisfying [ok]: an out-of-range value
   is a command-line error (exit 124) instead of an exception raised
   deep inside the run.  Defaults print as [conv] prints them, so the
   --help text is unchanged. *)
let checked conv ~expect ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ ->
        Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expect))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let float_at_least lo =
  checked Arg.float
    ~expect:(Printf.sprintf "a finite number >= %g" lo)
    (fun v -> Float.is_finite v && v >= lo)

let positive_float =
  checked Arg.float ~expect:"a finite number > 0" (fun v ->
      Float.is_finite v && v > 0.0)

let positive_int = checked Arg.int ~expect:"an integer >= 1" (fun v -> v >= 1)

let non_negative_int =
  checked Arg.int ~expect:"an integer >= 0" (fun v -> v >= 0)

let fraction =
  checked Arg.float ~expect:"a number in [0, 1]" (fun v ->
      v >= 0.0 && v <= 1.0)

let duration_arg =
  Arg.(
    value
    & opt (float_at_least 0.0) 200_000.0
    & info [ "duration-us" ] ~docv:"US" ~doc:"Simulated time in microseconds.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")

(* The retry-backoff knobs of [faults] and [serve], checked here against
   the ranges [Faults.Backoff.delay] would otherwise raise on at the
   first retry. *)
let backoff_term =
  let d = Faults.Backoff.default in
  let flag c default name ~docv ~doc =
    Arg.(value & opt c default & info [ name ] ~docv ~doc)
  in
  let base_us =
    flag positive_float d.Faults.Backoff.base_us "backoff-us" ~docv:"US"
      ~doc:"Base retry backoff."
  and factor =
    flag (float_at_least 1.0) d.Faults.Backoff.factor "backoff-factor"
      ~docv:"F" ~doc:"Exponential backoff multiplier."
  and cap_us =
    flag (float_at_least 0.0) d.Faults.Backoff.cap_us "backoff-cap-us"
      ~docv:"US" ~doc:"Ceiling on a single retry backoff before jitter."
  and jitter =
    flag
      (checked Arg.float ~expect:"a number in [0, 1)" (fun v ->
           v >= 0.0 && v < 1.0))
      d.Faults.Backoff.jitter "backoff-jitter" ~docv:"J"
      ~doc:
        "Relative backoff jitter half-width in [0,1); 0 disables jitter and \
         consumes no randomness."
  in
  Term.(
    const (fun base_us factor cap_us jitter ->
        { Faults.Backoff.base_us; factor; cap_us; jitter })
    $ base_us $ factor $ cap_us $ jitter)

(* --- observability ------------------------------------------------------- *)

let metrics_arg =
  let doc =
    "Write the metrics registry to $(docv) after the run: Prometheus text \
     exposition, or canonical JSON when the file name ends in $(b,.json).  \
     All timestamps are sim-time, so the file is byte-identical across \
     runs with the same seed and flags."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_out_arg =
  let doc =
    "Write the span trace as Chrome trace-event JSON to $(docv) \
     (loadable in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let events_out_arg =
  let doc =
    "Write the structured event log (the flight recorder) as NDJSON to \
     $(docv): one JSON object per event — request life cycle, node and \
     breaker transitions, rejoins, sheds, SLO alerts — stamped with \
     sim-time, terminated by an $(b,eventlog-summary) line.  \
     Byte-identical for a fixed seed at any $(b,--jobs)."
  in
  Arg.(value & opt (some string) None & info [ "events-out" ] ~docv:"FILE" ~doc)

(* Metrics alone run with the no-op tracer and event sinks, so spans
   and events cost one branch unless --trace-out / --events-out asked
   for them. *)
let make_obs ~metrics ~trace_out ~events_out =
  match (metrics, trace_out, events_out) with
  | None, None, None -> None
  | _ ->
      let tracer =
        match trace_out with
        | None -> Obs.Tracer.noop ()
        | Some _ -> Obs.Tracer.collecting ()
      in
      let events =
        match events_out with
        | None -> Obs.Events.noop ()
        | Some _ -> Obs.Events.recording ()
      in
      Some (Obs.Ctx.create ~tracer ~events ())

(* Every file a flag names is written here: a path that cannot be
   written is an IO failure, exit 1 like any other [or_die]. *)
let write_file path contents =
  try
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc contents)
  with Sys_error m -> or_die (Error m)

let emit_obs obs ~metrics ~trace_out ~events_out =
  match obs with
  | None -> ()
  | Some ctx ->
      (match metrics with
      | None -> ()
      | Some path ->
          write_file path
            (if Filename.check_suffix path ".json" then
               Obs.Metrics.to_json ctx.Obs.Ctx.registry
             else Obs.Metrics.to_prometheus ctx.Obs.Ctx.registry));
      (match trace_out with
      | None -> ()
      | Some path -> write_file path (Obs.Tracer.to_json ctx.Obs.Ctx.tracer));
      (match events_out with
      | None -> ()
      | Some path -> write_file path (Obs.Events.to_ndjson ctx.Obs.Ctx.events))

(* One --engine axis for every subcommand: a registry name, [rtl]
   canonicalised to [rtlsim].  Only [retrieve] also takes [-e] and
   runs the soft-core routine [sw]. *)
let engine_arg ?(retrieve = false) ~default doc =
  let names = if retrieve then Engines.names @ [ "sw" ] else Engines.names in
  let parse name =
    let name = if name = "rtl" then "rtlsim" else name in
    if List.mem name names then Ok name
    else
      Error
        (`Msg
          (Printf.sprintf "unknown engine %S (expected %s)" name
             (String.concat "|" names)))
  in
  let flags = if retrieve then [ "e"; "engine" ] else [ "engine" ] in
  Arg.(
    value
    & opt (conv (parse, Format.pp_print_string)) default
    & info flags ~docv:"ENGINE" ~doc)

let make_engine name cb =
  or_die (Result.bind (Engines.of_name name) (fun factory -> factory cb))

(* --- retrieve ----------------------------------------------------------- *)

let n_arg =
  let doc = "Report the $(docv) most similar variants (Sec. 5 extension)." in
  Arg.(value & opt positive_int 1 & info [ "n" ] ~docv:"N" ~doc)

let threshold_arg =
  let doc = "Reject variants below this global similarity (Sec. 3)." in
  Arg.(
    value & opt (some fraction) None & info [ "t"; "threshold" ] ~docv:"S" ~doc)

let no_variant_passes () = print_endline "no variant passes the threshold"

(* A Q15 score passes when it is at least the threshold rounded into
   Q15: the comparison of [Engine_fixed.above_threshold]. *)
let passes_q15 threshold score =
  match threshold with
  | None -> true
  | Some t -> Fxp.Q15.compare score (Fxp.Q15.of_float t) >= 0

let print_float_ranked threshold ranked =
  let kept =
    match threshold with
    | None -> ranked
    | Some t -> List.filter (fun r -> r.Retrieval.score >= t) ranked
  in
  if kept = [] then no_variant_passes ()
  else
    List.iteri
      (fun i (r : Engine_float.ranked) ->
        Printf.printf "%d. impl %d on %s: S = %.4f\n" (i + 1)
          r.Retrieval.impl.Impl.id
          (Target.to_string r.Retrieval.impl.Impl.target)
          r.Retrieval.score)
      kept

(* Float and fixed keep their pretty ranked output and sw its program
   result; every other engine goes through the registry uniformly.
   Only float and fixed rank every variant, so -n above 1 is refused
   on the others instead of ignored. *)
let retrieve_cmd =
  let run casebase request engine n threshold =
    match engine with
    | name when n > 1 && name <> "float" && name <> "fixed" ->
        Error
          (Printf.sprintf
             "engine %s reports only the best variant; -n %d needs -e float \
              or -e fixed"
             name n)
    | _ ->
        let cb = or_die (load_casebase casebase) in
        let req = or_die (load_request request) in
        (match engine with
        | "float" ->
            let ranked =
              or_die
                (Result.map_error Retrieval.error_to_string
                   (Engine_float.n_best ~n cb req))
            in
            print_float_ranked threshold ranked
        | "fixed" ->
            let ranked =
              or_die
                (Result.map_error Retrieval.error_to_string
                   (Engine_fixed.n_best ~n cb req))
            in
            let kept =
              List.filter
                (fun r -> passes_q15 threshold r.Retrieval.score)
                ranked
            in
            if kept = [] then no_variant_passes ()
            else
              List.iteri
                (fun i (r : Engine_fixed.ranked) ->
                  Printf.printf "%d. impl %d on %s: S = %.4f (raw %d)\n"
                    (i + 1) r.Retrieval.impl.Impl.id
                    (Target.to_string r.Retrieval.impl.Impl.target)
                    (Fxp.Q15.to_float r.Retrieval.score)
                    (Fxp.Q15.to_raw r.Retrieval.score))
                kept
        | "sw" ->
            let r = or_die (Mblaze.Retrieval_prog.run cb req) in
            if
              r.Mblaze.Retrieval_prog.status = Mblaze.Retrieval_prog.Found
              && not (passes_q15 threshold r.Mblaze.Retrieval_prog.best_score)
            then no_variant_passes ()
            else Format.printf "%a@." Mblaze.Retrieval_prog.pp_result r
        | name -> (
            let eng = make_engine name cb in
            let d =
              or_die
                (Result.map_error Engine.error_to_string
                   (eng.Engine.retrieve req))
            in
            if not (passes_q15 threshold d.Engine.score) then
              no_variant_passes ()
            else begin
              Printf.printf "best: impl %d, S = %.4f (raw %d)\n"
                d.Engine.impl_id
                (Fxp.Q15.to_float d.Engine.score)
                (Fxp.Q15.to_raw d.Engine.score);
              (match d.Engine.cycles with
              | Some c -> Printf.printf "cycles=%d\n" c
              | None -> ());
              match Option.map (fun f -> f req) eng.Engine.phase_cycles with
              | Some (Ok phases) ->
                  print_string "phases:";
                  List.iter (fun (n, c) -> Printf.printf " %s=%d" n c) phases;
                  print_newline ()
              | Some (Error _) | None -> ()
            end));
        Ok ()
  in
  let doc = "run CBR retrieval for a QoS-constrained function request" in
  Cmd.v
    (Cmd.info "retrieve" ~doc)
    Term.(
      term_result'
        (const run $ casebase_arg $ request_arg
        $ engine_arg ~retrieve:true ~default:"float"
            "Engine: $(b,float) (reference), $(b,fixed) (Q15 bit-accurate), \
             $(b,rtlsim) (cycle-accurate hardware unit; alias $(b,rtl)), \
             $(b,netlist) (elaborated gate-level IR simulation), \
             $(b,native) (IR-compiled native kernels), $(b,sw) (soft-core \
             routine)."
        $ n_arg $ threshold_arg))

(* --- layout -------------------------------------------------------------- *)

let dump_arg =
  let doc = "Also hex-dump the RAM images." in
  Arg.(value & flag & info [ "d"; "dump" ] ~doc)

let hexdump name words =
  Printf.printf "%s (%d words):\n" name (Array.length words);
  Array.iteri
    (fun i w ->
      if i mod 8 = 0 then Printf.printf "%s%04x:" (if i > 0 then "\n" else "") i;
      Printf.printf " %04x" w)
    words;
  print_newline ()

let layout_cmd =
  let run casebase request dump =
    let cb = or_die (load_casebase casebase) in
    let req = or_die (load_request request) in
    let acc = or_die (Memlayout.account cb req) in
    Format.printf "%a@." Memlayout.pp_accounting acc;
    let image = or_die (Memlayout.build_system cb req) in
    Printf.printf "CB-MEM: %d words (tree @%d, supplemental @%d)\n"
      (Array.length image.Memlayout.cb_mem)
      image.Memlayout.tree_base image.Memlayout.supplemental_base;
    Printf.printf "Req-MEM: %d words\n" (Array.length image.Memlayout.req_mem);
    if dump then begin
      hexdump "CB-MEM" image.Memlayout.cb_mem;
      hexdump "Req-MEM" image.Memlayout.req_mem
    end
  in
  let doc = "compile the Fig. 4/5 RAM images and show memory accounting" in
  Cmd.v (Cmd.info "layout" ~doc)
    Term.(const run $ casebase_arg $ request_arg $ dump_arg)

(* --- trace --------------------------------------------------------------- *)

(* One retrieval's stats rendered into a registry + trace: the total
   and per-phase cycle counters, and a single "retrieval" duration
   event at the paper's 75 MHz clock. *)
let observe_retrieval ctx (o : Rtlsim.Machine.outcome) =
  let stats = o.Rtlsim.Machine.stats in
  let reg = ctx.Obs.Ctx.registry in
  let total =
    Obs.Metrics.counter reg ~help:"Retrieval-unit cycles, total."
      "qosalloc_retrieval_cycles_total"
  in
  Obs.Metrics.inc_by total stats.Rtlsim.Machine.cycles;
  List.iter
    (fun p ->
      let c =
        Obs.Metrics.counter reg ~help:"Retrieval-unit cycles by phase."
          ~labels:[ ("phase", Rtlsim.Machine.phase_name p) ]
          "qosalloc_retrieval_phase_cycles_total"
      in
      Obs.Metrics.inc_by c
        (Rtlsim.Machine.phase_cycles_get p stats.Rtlsim.Machine.phases))
    Rtlsim.Machine.all_phases;
  Obs.Tracer.complete ctx.Obs.Ctx.tracer ~ts:0.0
    ~dur:(float_of_int stats.Rtlsim.Machine.cycles /. Engine.clock_mhz)
    ~args:
      [
        ("cycles", string_of_int stats.Rtlsim.Machine.cycles);
        ("best_impl", string_of_int o.Rtlsim.Machine.best_impl_id);
      ]
    "retrieval"

let trace_cmd =
  let run casebase request config vcd metrics trace_out =
    let cb = or_die (load_casebase casebase) in
    let req = or_die (load_request request) in
    let o =
      or_die
        (Rtlsim.Engine.retrieve_traced ~config ~trace:true
           ~waveform:(vcd <> None) cb req)
    in
    List.iter print_endline o.Rtlsim.Machine.trace;
    Printf.printf "best: impl %d, S = %.4f\n" o.Rtlsim.Machine.best_impl_id
      (Fxp.Q15.to_float o.Rtlsim.Machine.best_score);
    Format.printf "%a@." Rtlsim.Machine.pp_stats o.Rtlsim.Machine.stats;
    (match make_obs ~metrics ~trace_out ~events_out:None with
    | None -> ()
    | Some ctx as obs ->
        observe_retrieval ctx o;
        emit_obs obs ~metrics ~trace_out ~events_out:None);
    match vcd with
    | None -> ()
    | Some path ->
        let text =
          or_die
            (Rtlsim.Vcd.render ~signals:Rtlsim.Machine.waveform_signals
               o.Rtlsim.Machine.waveform)
        in
        write_file path text;
        Printf.printf "waveform: %d changes -> %s\n"
          (List.length o.Rtlsim.Machine.waveform)
          path
  in
  let vcd =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE" ~doc:"Also dump a VCD waveform.")
  in
  let doc = "run the hardware retrieval unit with a cycle trace" in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ casebase_arg $ request_arg $ machine_config_term $ vcd
      $ metrics_arg $ trace_out_arg)

(* --- resources ------------------------------------------------------------ *)

let resources_cmd =
  let run compacted =
    let datapath =
      if compacted then Resource.compacted_retrieval_unit
      else Resource.retrieval_unit
    in
    let e = Resource.estimate datapath in
    Format.printf "%a@." Resource.pp_estimate e;
    Format.printf "on %s: %a@." Resource.xc2v3000.Resource.device_name
      Resource.pp_utilization
      (Resource.utilization Resource.xc2v3000 e);
    Printf.printf "paper (Table 2): %d slices, %d BRAM, %d MULT18X18, %.0f MHz\n"
      Resource.table2.Resource.paper_slices Resource.table2.Resource.paper_brams
      Resource.table2.Resource.paper_mults
      Resource.table2.Resource.paper_clock_mhz
  in
  let compacted =
    Arg.(value & flag & info [ "compacted" ] ~doc:"Estimate the compacted variant.")
  in
  let doc = "estimate FPGA resources for the retrieval unit (Table 2)" in
  Cmd.v (Cmd.info "resources" ~doc) Term.(const run $ compacted)

(* --- simulate --------------------------------------------------------------- *)

let simulate_cmd =
  let run duration_us seed trace_csv metrics trace_out engine =
    let spec =
      {
        (Desim.Simulate.default_spec ()) with
        Desim.Simulate.duration_us;
        seed;
        collect_trace = trace_csv <> None;
        retrieval_engine = Some (or_die (Engines.of_name engine));
      }
    in
    let obs = make_obs ~metrics ~trace_out ~events_out:None in
    let report = Desim.Simulate.run ?obs spec in
    emit_obs obs ~metrics ~trace_out ~events_out:None;
    Format.printf "%a@." Desim.Simulate.pp_report report;
    match trace_csv with
    | None -> ()
    | Some path ->
        write_file path (Desim.Tracefile.to_csv report.Desim.Simulate.trace);
        Format.printf "trace: %d rows -> %s@."
          (List.length report.Desim.Simulate.trace)
          path;
        Format.printf "%a@." Desim.Tracefile.pp_analysis
          (Desim.Tracefile.analyze report.Desim.Simulate.trace)
  in
  let trace_csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-csv" ] ~docv:"FILE"
          ~doc:"Write a per-request CSV trace and print its analysis.")
  in
  let doc = "simulate the Fig. 1 multi-device system under load" in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run $ duration_arg $ seed_arg $ trace_csv $ metrics_arg
      $ trace_out_arg
      $ engine_arg ~default:"rtlsim"
          "Retrieval engine backing the manager's latency model: \
           $(b,float), $(b,fixed), $(b,rtlsim) (the default), $(b,netlist) \
           or $(b,native).")

(* --- faults ---------------------------------------------------------------- *)

(* "DEVICE@TIME" (permanent) or "DEVICE@TIME+DURATION" (transient). *)
let parse_device_fault s =
  match String.index_opt s '@' with
  | None -> Error (`Msg (Printf.sprintf "expected DEVICE@TIME[+DUR], got %S" s))
  | Some at -> (
      let device = String.sub s 0 at in
      let rest = String.sub s (at + 1) (String.length s - at - 1) in
      let time_s, dur_s =
        match String.index_opt rest '+' with
        | None -> (rest, None)
        | Some plus ->
            ( String.sub rest 0 plus,
              Some (String.sub rest (plus + 1) (String.length rest - plus - 1))
            )
      in
      let number ok x =
        match float_of_string_opt x with
        | Some v when Float.is_finite v && ok v -> Some v
        | Some _ | None -> None
      in
      let bad what expect =
        Error
          (`Msg
             (Printf.sprintf "bad %s in device fault %S, expected a finite %s"
                what s expect))
      in
      match
        ( number (fun t -> t >= 0.0) time_s,
          Option.map (number (fun d -> d > 0.0)) dur_s )
      with
      | None, _ -> bad "time" "number >= 0"
      | _, Some None -> bad "duration" "number > 0"
      | Some time, None ->
          Ok
            {
              Faults.Campaign.df_device_id = device;
              df_at_us = time;
              df_kind = `Permanent;
            }
      | Some time, Some (Some dur) ->
          Ok
            {
              Faults.Campaign.df_device_id = device;
              df_at_us = time;
              df_kind = `Transient dur;
            })

let faults_cmd =
  let run duration_us seed seu_mean scrub_period reconfig_prob flash_prob
      deadline max_retries backoff device_faults format metrics trace_out
      events_out engine =
    let base =
      {
        (Desim.Simulate.default_spec ()) with
        Desim.Simulate.duration_us;
        seed;
        retrieval_engine = Some (or_die (Engines.of_name engine));
      }
    in
    List.iter
      (fun df ->
        let id = df.Faults.Campaign.df_device_id in
        if
          not
            (List.exists
               (fun (d : Allocator.Device.t) ->
                 String.equal d.Allocator.Device.device_id id)
               base.Desim.Simulate.devices)
        then or_die (Error (Printf.sprintf "unknown device %S in --fail" id)))
      device_faults;
    let spec =
      {
        Faults.Campaign.base;
        seu_mean_interval_us = seu_mean;
        scrub_period_us = scrub_period;
        reconfig_fail_prob = reconfig_prob;
        flash_error_prob = flash_prob;
        load_deadline_us = deadline;
        max_retries;
        backoff;
        device_faults;
      }
    in
    let obs = make_obs ~metrics ~trace_out ~events_out in
    let report = Faults.Campaign.run ?obs spec in
    emit_obs obs ~metrics ~trace_out ~events_out;
    (match format with
    | `Json -> print_string (Faults.Campaign.to_json report)
    | `Text -> Format.printf "@[<v>%a@]@." Faults.Campaign.pp report);
    exit (Faults.Campaign.exit_code report)
  in
  let seu_mean =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "seu-mean-us" ] ~docv:"US"
          ~doc:"Mean interval of the Poisson SEU process (off by default).")
  in
  let scrub_period =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "scrub-period-us" ] ~docv:"US"
          ~doc:
            "Scrubbing period; omitting it disables scrubbing and the \
             retrieval readback check.")
  in
  let reconfig_prob =
    Arg.(
      value & opt fraction 0.0
      & info [ "reconfig-fail-prob" ] ~docv:"P"
          ~doc:"Per-attempt bitstream-load failure probability.")
  in
  let flash_prob =
    Arg.(
      value & opt fraction 0.0
      & info [ "flash-error-prob" ] ~docv:"P"
          ~doc:"Per-attempt flash-repository read-error probability.")
  in
  let deadline =
    Arg.(
      value
      & opt (some (float_at_least 0.0)) None
      & info [ "load-deadline-us" ] ~docv:"US"
          ~doc:"First-attempt loads slower than this miss their deadline.")
  in
  let max_retries =
    Arg.(
      value & opt non_negative_int 3
      & info [ "retries" ] ~docv:"N" ~doc:"Retry budget per failed load.")
  in
  let fault_conv =
    Arg.conv
      ( parse_device_fault,
        fun ppf df ->
          Format.fprintf ppf "%s@%.0f" df.Faults.Campaign.df_device_id
            df.Faults.Campaign.df_at_us )
  in
  let device_faults =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "fail" ] ~docv:"DEV@US[+DUR]"
          ~doc:
            "Schedule a device failure: $(b,dsp0@20000) fails dsp0 \
             permanently at t=20000us; $(b,dsp0@20000+15000) restores it \
             15000us later.  Repeatable.")
  in
  let doc = "run a deterministic fault-injection campaign with recovery" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Replays the $(b,simulate) workload while injecting faults from a \
         seed-driven schedule: SEU bit flips into the live RAM image, \
         bitstream-load and flash-read failures with bounded \
         exponential-backoff retry, and transient or permanent device \
         failures whose evicted tasks are relocated to the next-best \
         variant on a healthy device (the similarity delta is the \
         recorded QoS degradation).";
      `P
        "Exit status: 0 when the campaign stayed clean, 1 when faults \
         occurred but every one was detected and recovered, 2 on \
         unrecovered loss (a lost allocation, a task nothing could \
         re-host, or a retrieval that silently consumed a corrupted \
         image).";
    ]
  in
  Cmd.v (Cmd.info "faults" ~doc ~man)
    Term.(
      const run $ duration_arg $ seed_arg $ seu_mean $ scrub_period
      $ reconfig_prob $ flash_prob $ deadline $ max_retries $ backoff_term
      $ device_faults $ format_arg $ metrics_arg $ trace_out_arg
      $ events_out_arg
      $ engine_arg ~default:"rtlsim"
          "Retrieval engine backing the manager's latency model during the \
           campaign (default $(b,rtlsim)).")

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let run duration_us seed nodes replication fault_domains jobs engine_name
      kill_frac bounce_mean bounce_down retries backoff min_availability slo
      steal steal_threshold stream requests load_scale slo_out out metrics
      trace_out events_out =
    let engine = or_die (Engines.of_name engine_name) in
    let d = Cluster.Serve.default_spec () in
    let spec =
      {
        d with
        Cluster.Serve.duration_us;
        seed;
        nodes;
        replication;
        fault_domains;
        jobs;
        engine_name;
        engine;
        outage =
          {
            Faults.Outages.permanent_frac = kill_frac;
            permanent_window = (0.2, 0.7);
            transient_mean_us = bounce_mean;
            transient_down_us = bounce_down;
          };
        backoff;
        max_retries = retries;
        slo =
          Option.map
            (fun (slo_availability, slo_latency_us) ->
              { Cluster.Serve.slo_availability; slo_latency_us })
            slo;
        steal =
          {
            Cluster.Steal.default with
            Cluster.Steal.enabled = steal;
            threshold = steal_threshold;
            seed;
          };
        source =
          (if stream then Cluster.Serve.Stream else Cluster.Serve.Pregenerated);
        max_requests = requests;
        load_scale;
      }
    in
    let obs = make_obs ~metrics ~trace_out ~events_out in
    let report = or_die (Cluster.Serve.run ?obs spec) in
    emit_obs obs ~metrics ~trace_out ~events_out;
    (match out with
    | None -> ()
    | Some path -> write_file path (Cluster.Serve.results_to_string report));
    (match slo_out with
    | None -> ()
    | Some path ->
        write_file path (Obs.Slo.reports_to_json report.Cluster.Serve.slo));
    Format.printf "@[<v>%a@]@." Cluster.Serve.pp report;
    exit (Cluster.Serve.exit_code ~min_availability report)
  in
  let nodes =
    Arg.(
      value & opt positive_int 6
      & info [ "nodes" ] ~docv:"N" ~doc:"Cluster membership size.")
  in
  let replication =
    Arg.(
      value & opt positive_int 3
      & info [ "replication" ] ~docv:"N"
          ~doc:"Replicas per function type (clamped to the node count).")
  in
  let fault_domains =
    Arg.(
      value & opt positive_int 3
      & info [ "fault-domains" ] ~docv:"N"
          ~doc:
            "Failure-correlation domains; replica walks prefer distinct \
             domains first.")
  in
  let jobs =
    let in_range =
      checked Arg.int
        ~expect:(Printf.sprintf "an integer in 1..%d" Cluster.Serve.max_jobs)
        (fun v -> v >= 1 && v <= Cluster.Serve.max_jobs)
    in
    Arg.(
      value & opt in_range 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Workers for the decision phase: at most one per node, the \
             first on the main domain.  The end-of-run report is \
             byte-identical at any value.")
  in
  let engine =
    engine_arg ~default:"native"
      "Per-node retrieval engine (default $(b,native))."
  in
  let kill_frac =
    Arg.(
      value & opt fraction 0.0
      & info [ "kill-frac" ] ~docv:"F"
          ~doc:
            "Fraction of nodes killed permanently during the run (seeded \
             victims and times).")
  in
  let bounce_mean =
    Arg.(
      value
      & opt (some positive_float) None
      & info [ "bounce-mean-us" ] ~docv:"US"
          ~doc:
            "Mean interval of per-node transient outages (Poisson); off by \
             default.")
  in
  let bounce_down =
    Arg.(
      value
      & opt
          (checked (pair ~sep:',' float float)
             ~expect:"finite LO,HI with 0 <= LO <= HI" (fun (lo, hi) ->
               Float.is_finite hi && 0.0 <= lo && lo <= hi))
          (1_000.0, 5_000.0)
      & info [ "bounce-down-us" ] ~docv:"LO,HI"
          ~doc:"Uniform downtime range of one transient outage.")
  in
  let retries =
    Arg.(
      value & opt non_negative_int 5
      & info [ "retries" ] ~docv:"N"
          ~doc:"Backoff rounds before answering degraded.")
  in
  let min_availability =
    Arg.(
      value & opt fraction 0.99
      & info [ "min-availability" ] ~docv:"F"
          ~doc:
            "Full-QoS availability floor below which the run classifies as \
             unrecovered loss (exit 2).")
  in
  let slo =
    Arg.(
      value
      & opt
          (some
             (checked (pair ~sep:':' float float)
                ~expect:"AVAIL in (0, 1] and a finite LAT_US > 0"
                (fun (avail, lat) ->
                  avail > 0.0 && avail <= 1.0 && Float.is_finite lat
                  && lat > 0.0)))
          None
      & info [ "slo" ] ~docv:"AVAIL:LAT_US"
          ~doc:
            "Track two service-level objectives over the run with \
             multi-window burn-rate alerting: an availability objective \
             (a full-QoS answer is a good event) and a latency objective \
             (a response within $(b,LAT_US) microseconds is a good event), \
             both targeting the fraction $(b,AVAIL).  A missed objective \
             classifies the run as unrecovered loss (exit 2).")
  in
  let steal =
    Arg.(
      value & flag
      & info [ "steal" ]
          ~doc:
            "Enable deterministic work stealing: an overloaded node hands \
             the request to the least-loaded eligible node of its replica \
             set, or — when every replica is saturated — to the globally \
             least-loaded node (paying a resync penalty when the victim \
             does not hold the type).  Victim election is seeded, so \
             reports stay byte-identical at any $(b,--jobs).")
  in
  let steal_threshold =
    Arg.(
      value
      & opt
          (checked float ~expect:"a number in (0, 1]" (fun v ->
               v > 0.0 && v <= 1.0))
          0.9
      & info [ "steal-threshold" ] ~docv:"F"
          ~doc:
            "Saturation fraction of a node's slots at which it donates \
             work, and above which it refuses to be a victim.")
  in
  let stream =
    Arg.(
      value & flag
      & info [ "stream" ]
          ~doc:
            "Pull arrivals from the streaming source instead of \
             pregenerating the request array — O(apps) generation memory, \
             byte-identical report.")
  in
  let requests =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "requests" ] ~docv:"N"
          ~doc:
            "Stop after the first $(docv) arrivals of the merged sequence \
             (identical for either source).")
  in
  let load_scale =
    Arg.(
      value & opt positive_float 1.0
      & info [ "load-scale" ] ~docv:"F"
          ~doc:
            "Divide every application's inter-arrival period by $(docv); \
             values above ~1000 saturate the standard mix.")
  in
  let slo_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "slo-out" ] ~docv:"FILE"
          ~doc:
            "Write the per-objective SLO reports (attainment, burn alerts, \
             firing time) as canonical JSON to $(docv).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the canonical per-request results report to $(docv) — \
             byte-identical for a fixed seed at any $(b,--jobs).")
  in
  let doc = "serve the workload on a replicated multi-node cluster" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the standard application workload against a cluster of nodes, \
         each hosting a fault-domain-aware replica slice of the case base \
         behind its own retrieval engine.  A seeded outage campaign kills \
         and bounces nodes while requests fail over between replicas, back \
         off with capped jittered retries, and degrade gracefully (a stale \
         decision, never a dropped request) when every replica is down, \
         tripped or saturated.";
      `P
        "Exit status: 0 when every request was answered at full QoS with no \
         outage or recovery activity, 1 when faults or recovery actions \
         (failovers, sheds, retries, steals) occurred but every request was \
         still answered and availability held above the floor, 2 on any \
         failed request, availability below $(b,--min-availability), or a \
         missed $(b,--slo) objective.";
    ]
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ duration_arg $ seed_arg $ nodes $ replication $ fault_domains
      $ jobs $ engine $ kill_frac $ bounce_mean $ bounce_down $ retries
      $ backoff_term $ min_availability $ slo $ steal $ steal_threshold $ stream
      $ requests $ load_scale $ slo_out $ out $ metrics_arg $ trace_out_arg
      $ events_out_arg)

(* --- profile --------------------------------------------------------------- *)

let profile_cmd =
  let run casebase request config format max_cycles engine =
    let cb = or_die (load_casebase casebase) in
    let req = or_die (load_request request) in
    let engine =
      match engine with
      | "rtlsim" ->
          (* The config toggles only exist on the rtlsim machine. *)
          or_die (Rtlsim.Engine.create ~config cb)
      | name -> make_engine name cb
    in
    let report = or_die (Obs.Profile.run engine req) in
    (match format with
    | `Json -> print_string (Obs.Profile.report_to_json report)
    | `Text -> Format.printf "@[<v>%a@]@." Obs.Profile.pp_report report);
    match max_cycles with
    | Some budget
      when report.Obs.Profile.breakdown.Obs.Profile.total_cycles > budget ->
        Printf.eprintf "qosalloc: cycle budget exceeded: %d > %d\n"
          report.Obs.Profile.breakdown.Obs.Profile.total_cycles budget;
        exit 1
    | Some _ | None -> ()
  in
  let max_cycles =
    Arg.(
      value
      & opt (some non_negative_int) None
      & info [ "max-cycles" ] ~docv:"N"
          ~doc:
            "Cycle budget: exit 1 when the full retrieval exceeds $(docv) \
             cycles.")
  in
  let doc = "profile the retrieval unit: per-phase cycles and linearity" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the cycle-accurate retrieval unit over the request and \
         attributes every cycle to one of four phases (tree walk, \
         attribute scan, multiply-accumulate, memory stall), then \
         re-runs it over every prefix of the request's constraints to \
         check the paper's linear-effort claim: each added constraint \
         should cost a near-constant cycle increment.";
      `P
        "Exit status: 0 normally, 1 when $(b,--max-cycles) is given and \
         the full retrieval exceeds the budget.";
    ]
  in
  Cmd.v (Cmd.info "profile" ~doc ~man)
    Term.(
      const run $ casebase_arg $ request_arg $ machine_config_term $ format_arg
      $ max_cycles
      $ engine_arg ~default:"rtlsim"
          "Cycle-reporting engine to profile (default $(b,rtlsim); \
           $(b,netlist) also reports cycles).  Engines without a timing \
           model are rejected.")

(* --- export --------------------------------------------------------------------- *)

let export_cmd =
  let run casebase request out_dir formats =
    let cb = or_die (load_casebase casebase) in
    let req = or_die (load_request request) in
    (try if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755
     with Sys_error m -> or_die (Error m));
    let write filename contents =
      let path = Filename.concat out_dir filename in
      write_file path contents;
      Printf.printf "wrote %s\n" path
    in
    let files = or_die (Rtlgen.Vhdl.project cb req) in
    List.iter
      (fun (f : Rtlgen.Vhdl.file) -> write f.Rtlgen.Vhdl.filename f.Rtlgen.Vhdl.contents)
      files;
    let image = or_die (Memlayout.build_system cb req) in
    (* emit_system runs the image verifier and refuses rejected images. *)
    List.iter
      (fun format ->
        List.iter
          (fun (filename, contents) -> write filename contents)
          (or_die (Rtlgen.Memfiles.emit_system format image)))
      formats;
    (* The manifest carries what the raw words cannot: the supplemental
       base and the expected retrieval result, for `qosalloc verify`. *)
    let expected =
      or_die
        (Result.map_error Retrieval.error_to_string (Engine_fixed.best cb req))
    in
    write "qos_manifest.txt"
      (Printf.sprintf
         "# qosalloc export manifest\nsupplemental_base %d\nexpected_impl %d\nexpected_score %d\n"
         image.Memlayout.supplemental_base expected.Retrieval.impl.Impl.id
         (Fxp.Q15.to_raw expected.Retrieval.score))
  in
  let out_dir =
    Arg.(
      value & opt string "qos_rtl"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let format_conv =
    let parse = function
      | "coe" -> Ok Rtlgen.Memfiles.Coe
      | "mif" -> Ok Rtlgen.Memfiles.Mif
      | "hex" -> Ok Rtlgen.Memfiles.Hex
      | s -> Error (`Msg (Printf.sprintf "unknown memory format %S" s))
    in
    let print ppf f = Format.pp_print_string ppf (Rtlgen.Memfiles.extension f) in
    Arg.conv (parse, print)
  in
  let formats =
    Arg.(
      value
      & opt_all format_conv [ Rtlgen.Memfiles.Hex ]
      & info [ "f"; "format" ] ~docv:"FMT"
          ~doc:"Memory-file format(s): $(b,coe), $(b,mif), $(b,hex).")
  in
  let doc = "export the retrieval unit as VHDL plus memory images" in
  Cmd.v (Cmd.info "export" ~doc)
    Term.(const run $ casebase_arg $ request_arg $ out_dir $ formats)

(* --- lint ------------------------------------------------------------------------ *)

let lint_cmd =
  let ( let* ) = Result.bind in
  (* An input that cannot be read or parsed is one error diagnostic in
     the ordinary stream, so it exits 2 like any other lint error. *)
  let input loc r =
    Result.map_error
      (fun m -> [ Analysis.Diagnostic.errorf ~pass:"input" ~loc "%s" m ])
      r
  in
  (* Raw mode: lint bare hex images, however corrupted. *)
  let raw cb_file req_file supplemental_base =
    let load path =
      input path (Result.bind (read_file path) Rtlgen.Memfiles.parse_hex)
    in
    let* cb_mem = load cb_file in
    let* req_mem = load req_file in
    Ok (Analysis.Driver.lint_raw ~cb_mem ~req_mem ~supplemental_base)
  in
  (* Scenario mode: encode the case base + request and run every pass
     family, including the netlist IR passes.  A scenario that does not
     encode is a lint finding (exit 2), not a CLI failure. *)
  let scenario casebase request =
    let* cb = input "casebase" (load_casebase casebase) in
    let* req = input "request" (load_request request) in
    Ok (Analysis.Driver.lint cb req)
  in
  let report format (Ok diags | Error diags) =
    (match format with
    | `Json -> print_string (Analysis.Diagnostic.to_json diags)
    | `Text ->
        List.iter
          (fun d -> Format.printf "%a@." Analysis.Diagnostic.pp d)
          diags;
        Printf.printf "lint: %d error(s), %d warning(s)\n"
          (Analysis.Diagnostic.errors diags)
          (Analysis.Diagnostic.warnings diags));
    exit (Analysis.Diagnostic.exit_code diags)
  in
  let run casebase request format cb_hex req_hex supp_base =
    match (cb_hex, req_hex, supp_base) with
    | Some cb_file, Some req_file, Some base ->
        report format (raw cb_file req_file base)
    | None, None, _ -> report format (scenario casebase request)
    | Some _, Some _, None ->
        Error "--supp-base is required with --cb-hex/--req-hex"
    | _ -> Error "--cb-hex and --req-hex must be given together"
  in
  let cb_hex =
    Arg.(
      value
      & opt (some file) None
      & info [ "cb-hex" ] ~docv:"FILE"
          ~doc:"Lint a raw CB-MEM hex image instead of a scenario.")
  in
  let req_hex =
    Arg.(
      value
      & opt (some file) None
      & info [ "req-hex" ] ~docv:"FILE" ~doc:"Raw Req-MEM hex image.")
  in
  let supp_base =
    Arg.(
      value
      & opt (some int) None
      & info [ "supp-base" ] ~docv:"ADDR"
          ~doc:"Supplemental-list base address of the raw CB image.")
  in
  let doc =
    "statically analyse the RAM image, fixed-point datapath, soft-core \
     routines and elaborated netlist"
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the $(b,qosalloc.analysis) passes: the image verifier (list \
         termination, sorted attribute IDs, pointer bounds, reserved words, \
         reciprocal and weight-sum consistency), interval range analysis of \
         the Q15 datapath, CFG/dataflow checks of both MicroBlaze routine \
         styles, and six structural passes over the elaborated netlist IR \
         (width, multi-driver, combinational loops, dead logic, BRAM port \
         conflicts, clock domains).  The VHDL that $(b,export) writes is \
         printed from that IR.";
      `P
        "Exit status: 0 when clean (Info findings allowed), 1 when any \
         warning was reported, 2 when any error was reported, including \
         an input that cannot be read or parsed.";
    ]
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(
      term_result'
        (const run $ casebase_arg $ request_arg $ format_arg $ cb_hex
       $ req_hex $ supp_base))

(* --- verify ---------------------------------------------------------------------- *)

let parse_manifest text =
  let entries =
    List.filter_map
      (fun line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then None
        else
          match String.split_on_char ' ' line with
          | [ key; value ] -> (
              match int_of_string_opt value with
              | Some v -> Some (key, v)
              | None -> None)
          | _ -> None)
      (String.split_on_char '\n' text)
  in
  match
    ( List.assoc_opt "supplemental_base" entries,
      List.assoc_opt "expected_impl" entries,
      List.assoc_opt "expected_score" entries )
  with
  | Some base, Some impl, Some score -> Ok (base, impl, score)
  | _ -> Error "manifest is missing supplemental_base/expected_impl/expected_score"

let verify_cmd =
  let run dir =
    let read name = or_die (read_file (Filename.concat dir name)) in
    let cb_mem = or_die (Rtlgen.Memfiles.parse_hex (read "qos_cb_mem.hex")) in
    let req_mem = or_die (Rtlgen.Memfiles.parse_hex (read "qos_req_mem.hex")) in
    let supplemental_base, expected_impl, expected_score =
      or_die (parse_manifest (read "qos_manifest.txt"))
    in
    let image =
      or_die (Memlayout.reconstruct_system ~cb_mem ~req_mem ~supplemental_base)
    in
    match Rtlsim.Engine.run_image image with
    | Error e ->
        prerr_endline ("qosalloc: retrieval failed: " ^ e);
        exit 1
    | Ok d ->
        let got_impl = d.Engine.impl_id in
        let got_score = Fxp.Q15.to_raw d.Engine.score in
        Printf.printf
          "reconstructed image: %d CB words, %d request words\n\
           hardware model: impl %d, raw score %d (%d cycles)\n"
          (Array.length cb_mem) (Array.length req_mem) got_impl got_score
          (Option.value d.Engine.cycles ~default:0);
        if got_impl = expected_impl && got_score = expected_score then
          print_endline "VERIFY: PASS (matches the exported expectations)"
        else begin
          Printf.printf
            "VERIFY: FAIL (manifest expected impl %d, score %d)\n"
            expected_impl expected_score;
          exit 1
        end
  in
  let dir =
    Arg.(
      value & opt string "qos_rtl"
      & info [ "i"; "input" ] ~docv:"DIR" ~doc:"Directory written by export.")
  in
  let doc = "re-import exported hex images and cross-check the retrieval" in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run $ dir)

(* --- difftest --------------------------------------------------------------------- *)

let difftest_cmd =
  let run trials seed =
    let failures = ref 0 in
    for i = 1 to trials do
      let rng = Workload.Prng.create ~seed:(seed + i) in
      let schema =
        Workload.Generator.schema rng
          { Workload.Generator.attr_count = 6; max_bound = 400 }
      in
      let cb =
        Workload.Generator.casebase rng ~schema
          {
            Workload.Generator.type_count = 3;
            impls_per_type = (1, 7);
            attrs_per_impl = (1, 6);
          }
      in
      let req =
        Workload.Generator.request rng ~schema ~type_id:1
          {
            Workload.Generator.constraints = (1, 6);
            weight_profile = `Random;
            value_slack = 0.15;
          }
      in
      let via name =
        match Engines.of_name name with
        | Error e -> Error (Engine.Engine_failure e)
        | Ok factory -> (
            match factory cb with
            | Error e -> Error (Engine.Engine_failure e)
            | Ok eng -> eng.Engine.retrieve req)
      in
      let fixed = Engine_fixed.best cb req in
      let rtl = via "rtlsim" in
      let native = via "native" in
      let sw = Mblaze.Retrieval_prog.run cb req in
      let agree =
        match (fixed, rtl, native, sw) with
        | Ok f, Ok o, Ok nd, Ok r ->
            f.Retrieval.impl.Impl.id = o.Engine.impl_id
            && o.Engine.impl_id = r.Mblaze.Retrieval_prog.best_impl_id
            && o.Engine.impl_id = nd.Engine.impl_id
            && Fxp.Q15.equal f.Retrieval.score o.Engine.score
            && Fxp.Q15.equal o.Engine.score nd.Engine.score
            && Fxp.Q15.equal f.Retrieval.score
                 r.Mblaze.Retrieval_prog.best_score
            && Engine_fixed.agrees_with_float cb req
        | Error _, Error _, Error _, Ok r ->
            r.Mblaze.Retrieval_prog.status <> Mblaze.Retrieval_prog.Found
        | _ -> false
      in
      if not agree then begin
        incr failures;
        Printf.printf "MISMATCH at seed %d\n" (seed + i)
      end
    done;
    Printf.printf "difftest: %d/%d scenarios agree across all engines\n"
      (trials - !failures) trials;
    if !failures > 0 then exit 1
  in
  let trials =
    Arg.(
      value
      & opt positive_int 1000
      & info [ "n"; "trials" ] ~docv:"N" ~doc:"Scenario count.")
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Base seed.")
  in
  let doc = "differential-test all retrieval engines on random scenarios" in
  Cmd.v (Cmd.info "difftest" ~doc) Term.(const run $ trials $ seed)

(* --- analyze --------------------------------------------------------------------- *)

let analyze_cmd =
  let run path =
    let text = or_die (read_file path) in
    let rows = or_die (Desim.Tracefile.of_csv text) in
    Format.printf "%a@." Desim.Tracefile.pp_analysis
      (Desim.Tracefile.analyze rows);
    (* Per-app breakdown. *)
    let apps =
      List.sort_uniq String.compare
        (List.map (fun (r : Desim.Tracefile.row) -> r.Desim.Tracefile.app_id) rows)
    in
    List.iter
      (fun app ->
        let mine =
          List.filter
            (fun (r : Desim.Tracefile.row) ->
              String.equal r.Desim.Tracefile.app_id app)
            rows
        in
        let a = Desim.Tracefile.analyze mine in
        Printf.printf "%-14s rows=%d granted=%d bypass=%d refused=%d\n" app
          a.Desim.Tracefile.total a.Desim.Tracefile.granted
          a.Desim.Tracefile.bypassed a.Desim.Tracefile.refused)
      apps
  in
  let path =
    Arg.(
      required
      & opt (some file) None
      & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Trace CSV from simulate.")
  in
  let doc = "analyse a per-request trace CSV" in
  Cmd.v (Cmd.info "analyze" ~doc) Term.(const run $ path)

(* --- demo ---------------------------------------------------------------------- *)

let demo_cmd =
  let run () =
    print_string (Textfmt.print_casebase Scenario_audio.casebase);
    print_newline ();
    print_string (Textfmt.print_request Scenario_audio.request)
  in
  let doc = "print the built-in paper example in the text format" in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ const ())

(* --- main ------------------------------------------------------------------------ *)

let () =
  let doc = "QoS-based function allocation for reconfigurable systems" in
  let info = Cmd.info "qosalloc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            retrieve_cmd;
            layout_cmd;
            trace_cmd;
            resources_cmd;
            simulate_cmd;
            faults_cmd;
            serve_cmd;
            profile_cmd;
            export_cmd;
            lint_cmd;
            verify_cmd;
            difftest_cmd;
            analyze_cmd;
            demo_cmd;
          ]))
