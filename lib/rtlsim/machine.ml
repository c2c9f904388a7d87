module Q = Fxp.Q15
module Ram = Memlayout.Ram

type config = {
  resume_scan : bool;
  compacted : bool;
  use_divider : bool;
  overlap_compute : bool;
  registered_bram : bool;
}

let paper_config =
  {
    resume_scan = true;
    compacted = false;
    use_divider = false;
    overlap_compute = false;
    registered_bram = false;
  }

let pipelined_config = { paper_config with compacted = true; overlap_compute = true }

let divider_cycles = 18

let cycle_limit = 50_000_000

let trace_limit = 20_000

type phase = Tree_walk | Attr_scan | Mac | Mem_stall

let all_phases = [ Tree_walk; Attr_scan; Mac; Mem_stall ]

let phase_name = function
  | Tree_walk -> "tree-walk"
  | Attr_scan -> "attr-scan"
  | Mac -> "mac"
  | Mem_stall -> "mem-stall"

type phase_cycles = {
  tree_walk : int;
  attr_scan : int;
  mac : int;
  mem_stall : int;
}

let phase_cycles_get p c =
  match p with
  | Tree_walk -> c.tree_walk
  | Attr_scan -> c.attr_scan
  | Mac -> c.mac
  | Mem_stall -> c.mem_stall

type stats = {
  cycles : int;
  cb_accesses : int;
  req_accesses : int;
  mult_ops : int;
  alu_ops : int;
  impls_visited : int;
  attrs_matched : int;
  attrs_missing : int;
  phases : phase_cycles;
}

type outcome = {
  best_impl_id : int;
  best_score : Fxp.Q15.t;
  stats : stats;
  trace : string list;
  waveform : Vcd.change list;
}

let waveform_signals =
  [
    { Vcd.signal_name = "cb_addr"; width = 16 };
    { Vcd.signal_name = "req_addr"; width = 16 };
    { Vcd.signal_name = "local_s"; width = 16 };
    { Vcd.signal_name = "acc"; width = 16 };
    { Vcd.signal_name = "best_id"; width = 16 };
    { Vcd.signal_name = "best_score"; width = 16 };
  ]

(* An image the FSM cannot walk is an engine failure; an absent or
   empty type is the unit's not-found flag. *)
let malformed m =
  Qos_core.Retrieval.Engine_failure ("malformed RAM image: " ^ m)

let pp_stats ppf s =
  Format.fprintf ppf
    "cycles=%d cb=%d req=%d mult=%d alu=%d impls=%d matched=%d missing=%d"
    s.cycles s.cb_accesses s.req_accesses s.mult_ops s.alu_ops s.impls_visited
    s.attrs_matched s.attrs_missing

exception Halt of Qos_core.Retrieval.error

type machine = {
  cb : Ram.t;
  req : Ram.t;
  supplemental_base : int;
  config : config;
  trace_on : bool;
  mutable cycles : int;
  mutable mult_ops : int;
  mutable alu_ops : int;
  mutable impls_visited : int;
  mutable attrs_matched : int;
  mutable attrs_missing : int;
  mutable supp_pos : int;
  mutable cb_attr_pos : int;
  mutable rev_trace : string list;
  mutable trace_len : int;
  waveform_on : bool;
  mutable rev_samples : Vcd.change list;
  (* Cycle attribution: which FSM region the next memory access belongs
     to, and the per-phase cycle counters.  Every [tick] is charged to
     exactly one phase, so the four counters sum to [cycles]. *)
  mutable cur_phase : phase;
  mutable ph_tree_walk : int;
  mutable ph_attr_scan : int;
  mutable ph_mac : int;
  mutable ph_mem_stall : int;
}

let sample m signal value =
  if m.waveform_on then
    m.rev_samples <-
      { Vcd.at_cycle = m.cycles; signal; value } :: m.rev_samples

let end_marker = Memlayout.end_marker

let tick m n =
  m.cycles <- m.cycles + n;
  if m.cycles > cycle_limit then
    raise (Halt (malformed "cycle limit exceeded (pointer loop?)"))

(* Charge [n] cycles to [phase].  All cycle accounting funnels through
   here so the phase split always sums to the total. *)
let charge m phase n =
  tick m n;
  match phase with
  | Tree_walk -> m.ph_tree_walk <- m.ph_tree_walk + n
  | Attr_scan -> m.ph_attr_scan <- m.ph_attr_scan + n
  | Mac -> m.ph_mac <- m.ph_mac + n
  | Mem_stall -> m.ph_mem_stall <- m.ph_mem_stall + n

let create config ~trace ~waveform (image : Memlayout.system_image) =
  {
    cb = Ram.of_array image.cb_mem;
    req = Ram.of_array image.req_mem;
    supplemental_base = image.supplemental_base;
    config;
    trace_on = trace;
    cycles = 0;
    mult_ops = 0;
    alu_ops = 0;
    impls_visited = 0;
    attrs_matched = 0;
    attrs_missing = 0;
    supp_pos = image.supplemental_base;
    cb_attr_pos = 0;
    rev_trace = [];
    trace_len = 0;
    waveform_on = waveform;
    rev_samples = [];
    cur_phase = Tree_walk;
    ph_tree_walk = 0;
    ph_attr_scan = 0;
    ph_mac = 0;
    ph_mem_stall = 0;
  }

let snapshot m =
  {
    cycles = m.cycles;
    cb_accesses = Ram.access_count m.cb;
    req_accesses = Ram.access_count m.req;
    mult_ops = m.mult_ops;
    alu_ops = m.alu_ops;
    impls_visited = m.impls_visited;
    attrs_matched = m.attrs_matched;
    attrs_missing = m.attrs_missing;
    phases =
      {
        tree_walk = m.ph_tree_walk;
        attr_scan = m.ph_attr_scan;
        mac = m.ph_mac;
        mem_stall = m.ph_mem_stall;
      };
  }

let emit_trace m fmt =
  Printf.ksprintf
    (fun s ->
      if m.trace_on then
        if m.trace_len < trace_limit then (
          m.rev_trace <- Printf.sprintf "[%06d] %s" m.cycles s :: m.rev_trace;
          m.trace_len <- m.trace_len + 1)
        else if m.trace_len = trace_limit then (
          m.rev_trace <- "... trace truncated ..." :: m.rev_trace;
          m.trace_len <- m.trace_len + 1))
    fmt

(* One word from a memory port: one access.  Asynchronous (distributed
   RAM) reads cost one cycle; a registered block-RAM output adds a wait
   state (the mapping note in the generated VHDL). *)
let read m mem addr =
  charge m m.cur_phase 1;
  (* The block-RAM output register's wait state is a memory stall, not
     useful phase work. *)
  if m.config.registered_bram then charge m Mem_stall 1;
  sample m (if mem == m.cb then "cb_addr" else "req_addr") addr;
  try Ram.read mem addr
  with Invalid_argument msg -> raise (Halt (malformed msg))

(* Two adjacent words.  The compacted port (Sec. 5) delivers the pair in
   one access; the word-serial port needs two.  At the very end of the
   image the second word may not exist; it is then returned as the end
   marker without an access. *)
let read_pair m mem addr =
  let first = read m mem addr in
  let second =
    if addr + 1 >= Ram.size mem then end_marker
    else if m.config.compacted then Ram.peek mem (addr + 1)
    else read m mem (addr + 1)
  in
  (first, second)

(* In compacted mode the second word of a pair is free, so reading only
   the leading ID of a block costs the same as reading the pair. *)
let read_id_only m mem addr = read m mem addr

(* In the pipelined variant the datapath operations execute in the
   shadow of the memory fetches (the FSM issues the next read while the
   ALU/multiplier work), so they are counted but cost no cycles. *)
let alu m n =
  m.alu_ops <- m.alu_ops + n;
  if not m.config.overlap_compute then charge m Mac n

let mult m =
  m.mult_ops <- m.mult_ops + 1;
  if not m.config.overlap_compute then charge m Mac 1

(* --- List scans --------------------------------------------------------- *)

(* Scan the level-0 type list for [rtype]; deliver the level-1 base. *)
let rec scan_type_list m addr rtype =
  let id, ptr = read_pair m m.cb addr in
  if id = end_marker then raise (Halt (Qos_core.Retrieval.Unknown_type rtype))
  else if id = rtype then (
    emit_trace m "type-list: matched type %d -> impl list @%d" rtype ptr;
    ptr)
  else (
    emit_trace m "type-list: skip type %d @%d" id addr;
    scan_type_list m (addr + 2) rtype)

(* Find [aid] in the supplemental list (blocks of 4, ID-sorted).
   Returns the raw reciprocal word, or the (lower, upper) bounds in
   divider mode.  Advances the resume pointer per Sec. 4.1. *)
type supp_hit = Recip of int | Bounds of int * int | Supp_missing

let scan_supplemental m aid =
  let start = if m.config.resume_scan then m.supp_pos else m.supplemental_base in
  let rec loop pos =
    let id = read_id_only m m.cb pos in
    if id = end_marker || id > aid then (
      m.supp_pos <- pos;
      Supp_missing)
    else if id < aid then loop (pos + 4)
    else (
      (* Matched: the next request attribute is strictly larger, so the
         resume pointer moves past this block. *)
      m.supp_pos <- pos + 4;
      if m.config.use_divider then begin
        let lower, upper = read_pair m m.cb (pos + 1) in
        Bounds (lower, upper)
      end
      else
        let recip = read m m.cb (pos + 3) in
        Recip recip)
  in
  loop start

(* Find [aid] in the implementation's attribute list (pairs, ID-sorted). *)
let scan_impl_attrs m aid =
  let rec loop pos =
    let id = read_id_only m m.cb pos in
    if id = end_marker || id > aid then (
      m.cb_attr_pos <- pos;
      None)
    else if id < aid then loop (pos + 2)
    else begin
      m.cb_attr_pos <- pos + 2;
      let value =
        if m.config.compacted then Ram.peek m.cb (pos + 1)
        else read m m.cb (pos + 1)
      in
      Some value
    end
  in
  loop m.cb_attr_pos

(* --- Local similarity datapath ------------------------------------------ *)

let local_similarity m rvalue supp cbvalue =
  match (supp, cbvalue) with
  | Supp_missing, _ | _, None ->
      m.attrs_missing <- m.attrs_missing + 1;
      alu m 1;
      (* the Si := 0 transition of Fig. 6 *)
      Q.zero
  | Recip recip, Some cv ->
      m.attrs_matched <- m.attrs_matched + 1;
      alu m 1;
      (* ABS difference *)
      let d = Q.abs_diff_int rvalue cv in
      mult m;
      (* d * (1+dmax)^-1 *)
      alu m 1;
      (* 1 - x *)
      Q.complement_to_one (Q.mul_int (Q.of_raw_exn recip) d)
  | Bounds (lower, upper), Some cv ->
      m.attrs_matched <- m.attrs_matched + 1;
      alu m 1;
      let d = Q.abs_diff_int rvalue cv in
      let dm1 = upper - lower + 1 in
      if dm1 <= 0 then raise (Halt (malformed "supplemental bounds inverted"));
      charge m Mac divider_cycles;
      alu m 1;
      let raw = ((d lsl 15) + (dm1 / 2)) / dm1 in
      let raw = if raw > Q.to_raw Q.max_value then Q.to_raw Q.max_value else raw in
      Q.complement_to_one (Q.of_raw_exn raw)

(* --- One implementation ------------------------------------------------- *)

let eval_impl m attr_base =
  m.cur_phase <- Attr_scan;
  m.cb_attr_pos <- attr_base;
  m.supp_pos <- m.supplemental_base;
  let rec loop req_pos acc =
    let aid = read m m.req req_pos in
    if aid = end_marker then acc
    else begin
      let rvalue, weight_raw =
        if m.config.compacted then begin
          (* (value, weight) arrive as the second/third word: the pair
             port fetches (aid, value) together, weight separately. *)
          let value = Ram.peek m.req (req_pos + 1) in
          let w = read m m.req (req_pos + 2) in
          (value, w)
        end
        else
          let value = read m m.req (req_pos + 1) in
          let w = read m m.req (req_pos + 2) in
          (value, w)
      in
      emit_trace m "req-attr: id=%d value=%d w=%d" aid rvalue weight_raw;
      let supp = scan_supplemental m aid in
      let cbvalue = scan_impl_attrs m aid in
      let local = local_similarity m rvalue supp cbvalue in
      mult m;
      (* Si * wi *)
      alu m 1;
      (* S := S + Si*wi *)
      let weight = Q.of_raw_exn weight_raw in
      let acc = Q.add acc (Q.mul local weight) in
      sample m "local_s" (Q.to_raw local);
      sample m "acc" (Q.to_raw acc);
      emit_trace m "local: s=%d acc=%d" (Q.to_raw local) (Q.to_raw acc);
      loop (req_pos + 3) acc
    end
  in
  loop 1 Q.zero

(* --- Top level ----------------------------------------------------------- *)

(* Walk the requested type's level-1 list, scoring each implementation
   and folding [visit] over (accumulator, impl ID, score).  Raises
   [Halt] when the type is absent or its list is empty. *)
let scan m (image : Memlayout.system_image) init visit =
  let rtype = read m m.req 0 in
  let l1_base = scan_type_list m image.tree_base rtype in
  let rec impl_loop pos acc =
    m.cur_phase <- Tree_walk;
    let impl_id, attr_ptr = read_pair m m.cb pos in
    if impl_id <> end_marker then begin
      m.impls_visited <- m.impls_visited + 1;
      let score = eval_impl m attr_ptr in
      impl_loop (pos + 2) (visit acc impl_id score)
    end
    else if m.impls_visited = 0 then
      raise (Halt (Qos_core.Retrieval.No_implementations rtype))
    else acc
  in
  impl_loop l1_base init

let run ?(config = paper_config) ?(trace = false) ?(waveform = false) image =
  let m = create config ~trace ~waveform image in
  match
    let best =
      scan m image None (fun best impl_id score ->
          alu m 1;
          (* S > Smax comparison *)
          match best with
          | Some (_, best_score) when Q.compare score best_score <= 0 -> best
          | Some _ | None ->
              sample m "best_id" impl_id;
              sample m "best_score" (Q.to_raw score);
              emit_trace m "new best: impl %d score %d" impl_id
                (Q.to_raw score);
              Some (impl_id, score))
    in
    (* [scan] refuses an empty list, so some implementation scored. *)
    let best_impl_id, best_score = Option.get best in
    {
      best_impl_id;
      best_score;
      stats = snapshot m;
      trace = List.rev m.rev_trace;
      waveform = List.rev m.rev_samples;
    }
  with
  | outcome -> Ok outcome
  | exception Halt e -> Error e

let retrieve ?config ?trace ?waveform casebase request =
  match Memlayout.build_system casebase request with
  | Error m -> Error (malformed m)
  | Ok image -> run ?config ?trace ?waveform image

let retrieve_stream ?config casebase requests =
  match Memlayout.encode_cb casebase with
  | Error m -> Error m
  | Ok cb_image ->
      let run_one request =
        run ?config (Memlayout.attach_request cb_image request)
      in
      Ok (List.map run_one requests)

(* --- N-most-similar retrieval (Sec. 5 extension) ------------------------- *)

type nbest_outcome = {
  ranked : (int * Fxp.Q15.t) list;
  nbest_stats : stats;
  nbest_trace : string list;
}

(* Insert into the descending-sorted register file.  Entries with equal
   scores keep case-base order (the new candidate lands behind them),
   matching the strict greater-than comparator chain.  One ALU cycle
   per comparison actually performed. *)
let insert_ranked m k kept impl_id score =
  let rec place prefix = function
    | [] ->
        alu m 1;
        (* compared against the empty slot *)
        List.rev_append prefix [ (impl_id, score) ]
    | ((_, s) as entry) :: rest ->
        alu m 1;
        if Q.compare score s > 0 then
          List.rev_append prefix ((impl_id, score) :: entry :: rest)
        else place (entry :: prefix) rest
  in
  let inserted = place [] kept in
  if List.length inserted > k then List.filteri (fun i _ -> i < k) inserted
  else inserted

let run_nbest ?(config = paper_config) ?(trace = false) ~k image =
  if k < 1 then invalid_arg "Machine.run_nbest: k must be at least 1"
  else
    let m = create config ~trace ~waveform:false image in
    match
      let ranked = scan m image [] (insert_ranked m k) in
      { ranked; nbest_stats = snapshot m; nbest_trace = List.rev m.rev_trace }
    with
    | outcome -> Ok outcome
    | exception Halt e -> Error e

let retrieve_nbest ?config ?trace ~k casebase request =
  match Memlayout.build_system casebase request with
  | Error m -> Error (malformed m)
  | Ok image -> run_nbest ?config ?trace ~k image
