(* Quickstart: build a case base with the public API, issue a
   QoS-constrained request and retrieve the most similar
   implementation variant — the paper's Fig. 3 / Table 1 walkthrough.

   Run with: dune exec examples/quickstart.exe *)

open Qos_core

let get = function Ok x -> x | Error e -> failwith e

let () =
  (* 1. Declare the QoS attribute schema: design-time value bounds per
     attribute type, from which the similarity normalisation (dmax)
     derives. *)
  let schema =
    get
      (Attr.Schema.of_list
         [
           get (Attr.descriptor ~id:1 ~name:"bitwidth" ~lower:8 ~upper:16);
           get (Attr.descriptor ~id:3 ~name:"output-mode" ~lower:0 ~upper:2);
           get (Attr.descriptor ~id:4 ~name:"sample-rate" ~lower:8 ~upper:44);
         ])
  in

  (* 2. Describe the implementation variants of one function type. *)
  let impl id target attrs = get (Impl.make ~id ~target attrs) in
  let fir_equalizer =
    get
      (Ftype.make ~id:1 ~name:"fir-equalizer"
         [
           impl 1 Target.Fpga [ (1, 16); (3, 2); (4, 44) ];
           impl 2 Target.Dsp [ (1, 16); (3, 1); (4, 44) ];
           impl 3 Target.Gpp [ (1, 8); (3, 0); (4, 22) ];
         ])
  in
  let casebase = get (Casebase.make ~name:"quickstart" ~schema [ fir_equalizer ]) in

  (* 3. Issue a request: desired type plus weighted QoS constraints.
     Incomplete constraint sets are fine — unconstrained attributes are
     simply not compared. *)
  let request =
    get
      (Request.make ~type_id:1 [ (1, 16, 1.0); (3, 1, 1.0); (4, 40, 1.0) ])
  in

  (* 4. Retrieve.  The float engine is the reference; the fixed engine
     computes what the 16-bit hardware computes. *)
  print_endline "ranking (float reference engine):";
  (match Engine_float.rank_all casebase request with
  | Error e -> print_endline (Retrieval.error_to_string e)
  | Ok ranked ->
      List.iter
        (fun (r : Engine_float.ranked) ->
          Printf.printf "  impl %d on %-4s  S = %.4f\n" r.Retrieval.impl.Impl.id
            (Target.to_string r.Retrieval.impl.Impl.target)
            r.Retrieval.score)
        ranked);

  (match Engine_fixed.best casebase request with
  | Error e -> print_endline (Retrieval.error_to_string e)
  | Ok best ->
      Printf.printf "fixed-point best: impl %d (raw Q15 score %d)\n"
        best.Retrieval.impl.Impl.id
        (Fxp.Q15.to_raw best.Retrieval.score));

  (* 5. The same retrieval on the cycle-accurate hardware model. *)
  match Rtlsim.Machine.retrieve casebase request with
  | Error e -> print_endline (Retrieval.error_to_string e)
  | Ok o ->
      Printf.printf "hardware unit: impl %d in %d cycles (%d BRAM reads)\n"
        o.Rtlsim.Machine.best_impl_id o.Rtlsim.Machine.stats.Rtlsim.Machine.cycles
        (o.Rtlsim.Machine.stats.Rtlsim.Machine.cb_accesses
        + o.Rtlsim.Machine.stats.Rtlsim.Machine.req_accesses)
