let prefix_loc tag ds =
  List.map
    (fun d -> { d with Diagnostic.location = tag ^ ":" ^ d.Diagnostic.location })
    ds

(* Both routine styles, checked against the concrete memory map the
   routines would actually run in. *)
let prog_pass image =
  let open Mblaze.Retrieval_prog in
  let map = build_memory image in
  let memory_words = Array.length map.memory in
  List.concat_map
    (fun (tag, style) ->
      let items =
        routine_items ~style ~supp_base:map.supp_base ~req_base:map.req_base
          ~result_base:map.result_base ~frame_base:map.frame_base ()
      in
      prefix_loc tag (Prog_check.check_items ~memory_words items))
    [ ("hand", Hand_optimized); ("cc", Compiled_c) ]

(* Elaborate the Fig. 7 datapath for this image and run the six
   IR-level structural passes over it.  Elaboration failure is itself
   a finding (the image describes a datapath we cannot build), not a
   crash. *)
let netlist_pass image =
  match Netlist.Elaborate.system image with
  | Error e ->
      [ Diagnostic.errorf ~pass:"netlist" ~loc:"elaborate" "%s" e ]
  | Ok design ->
      Diagnostic.infof ~pass:"netlist" ~loc:design.Netlist.Ir.top
        "%d IR passes over %d modules"
        (List.length Netlist_check.pass_names)
        (List.length design.Netlist.Ir.modules)
      :: Netlist_check.check design

let range_pass_raw ~cb_mem ~req_mem ~supplemental_base =
  if supplemental_base < 0 || supplemental_base > Array.length cb_mem then []
  else
    let supp_slice =
      Array.sub cb_mem supplemental_base
        (Array.length cb_mem - supplemental_base)
    in
    match
      (Memlayout.decode_supplemental supp_slice, Memlayout.decode_request req_mem)
    with
    | Ok supplemental, Ok req ->
        let weights =
          List.map (fun (aid, _, w) -> (aid, w)) req.Memlayout.req_constraints
        in
        (Range_check.analyze_raw ~supplemental ~weights).Range_check.diagnostics
    | _ -> []  (* the image pass reports why the lists do not decode *)

let lint_raw ~cb_mem ~req_mem ~supplemental_base =
  Diagnostic.sort
    (Image_check.check_raw ~cb_mem ~req_mem ~supplemental_base
    @ range_pass_raw ~cb_mem ~req_mem ~supplemental_base)

let lint cb req =
  match Memlayout.build_system cb req with
  | Error e ->
      (* The scenario does not even encode: report that as the single
         finding so the CLI exit-code contract — 2 on errors, 1 on
         warnings, 0 otherwise — holds on every input. *)
      [ Diagnostic.errorf ~pass:"image" ~loc:"encode" "%s" e ]
  | Ok image ->
      Diagnostic.sort
        (Image_check.check_system image
        @ (Range_check.analyze ~request:req cb).Range_check.diagnostics
        @ prog_pass image
        @ netlist_pass image)
