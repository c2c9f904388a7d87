(* Self-learning loop: the Sec. 5 outlook in action.

   The system starts with design-time attribute estimates, observes
   real behaviour at run time, revises the case base (CBR revise),
   retains a newly profiled variant (CBR retain), and recompiles the
   hardware image — showing that retrieval decisions track the
   learned reality.

   Run with: dune exec examples/self_learning.exe *)

open Qos_core

let get = function Ok x -> x | Error e -> failwith e

let show_best label cb request =
  match Engine_float.best cb request with
  | Ok r ->
      Printf.printf "%-28s best = impl %d on %-4s (S = %.4f)\n" label
        r.Retrieval.impl.Impl.id
        (Target.to_string r.Retrieval.impl.Impl.target)
        r.Retrieval.score
  | Error e -> Printf.printf "%-28s %s\n" label (Retrieval.error_to_string e)

let () =
  let cb = Scenario_audio.casebase in
  let request = Scenario_audio.request in
  show_best "design-time estimates:" cb request;

  (* 1. Revise: profiling shows the DSP variant only sustains 30 kS/s
     under load, not the estimated 44.  Smooth the stored value toward
     the measurements over three observation rounds. *)
  let observed =
    List.fold_left
      (fun cb measured ->
        get
          (Learning.observe cb ~type_id:1 ~impl_id:2
             ~measurements:[ (4, measured) ] ~smoothing:0.5))
      cb [ 32; 30; 30 ]
  in
  let dsp = Option.get (Casebase.find_impl observed ~type_id:1 ~impl_id:2) in
  Printf.printf
    "\nafter three rate observations (32, 30, 30 kS/s), the DSP case\n\
     stores %d kS/s instead of 44.\n\n"
    (Option.get (Impl.find_attr dsp 4));
  show_best "after revise:" observed request;

  (* 2. Retain: a newly profiled FPGA bitstream variant arrives whose
     measured attributes match the request well.  Widen the schema if
     needed, then retain it as a new case. *)
  let new_variant =
    get (Impl.make ~id:4 ~target:Target.Fpga [ (1, 16); (3, 1); (4, 42) ])
  in
  let widened = get (Learning.widen_schema_for observed new_variant) in
  let retained = get (Learning.retain_variant widened ~type_id:1 new_variant) in
  Printf.printf "\nretained a profiled FPGA variant (16 bit, stereo, 42 kS/s)\n";
  show_best "after retain:" retained request;

  (* 3. The learned case base recompiles to a hardware image; the unit
     picks the learned variant. *)
  (match Rtlsim.Machine.retrieve retained request with
  | Ok o ->
      Printf.printf
        "\nrecompiled RAM image: hardware unit picks impl %d (S = %.4f) in %d cycles\n"
        o.Rtlsim.Machine.best_impl_id
        (Fxp.Q15.to_float o.Rtlsim.Machine.best_score)
        o.Rtlsim.Machine.stats.Rtlsim.Machine.cycles
  | Error e -> print_endline (Retrieval.error_to_string e));

  (* 4. Forget the stale GPP variant whose configuration data left the
     repository. *)
  let pruned = get (Learning.forget_variant retained ~type_id:1 ~impl_id:3) in
  Printf.printf "\nafter forgetting the GPP variant: %d cases remain for type 1\n"
    (Ftype.impl_count (Option.get (Casebase.find_type pruned 1)))
