module E = Qos_core.Engine
module Request = Qos_core.Request
module Q = Fxp.Q15

let end_marker = Memlayout.end_marker
let q15_one = Q.to_raw Q.one
let q15_half = Q.to_raw Q.half
let raw_max = 65535

(* One function type's score table, rows in image order (the
   hardware's strict greater-than best update makes the first maximum
   win, so order matters): [vals.(k * slots + j)] is variant k's value
   of supplemental attribute j, or -1 when the variant lacks it. *)
type ctype = { impl_ids : int array; vals : int array }

type t = {
  words : int array;  (* the elaborated CB-MEM ROM image *)
  types : ctype option array;  (* indexed by function-type ID *)
  slots : int;  (* supplemental attributes: the row width of [vals] *)
  slot : int array;  (* attribute ID -> supplemental slot, or -1 *)
  recip : int array;  (* attribute ID -> raw Q15 reciprocal, or -1 *)
  scratch : int array;
      (* one retrieval's constraints, 4 words per supplemental slot *)
}

let bram_image t = Array.copy t.words

(* Entries of the END-terminated list of [stride]-word entries at
   [addr]. *)
let list_length words addr stride =
  let a = ref addr in
  while !a < Array.length words && words.(!a) <> end_marker do
    a := !a + stride
  done;
  (!a - addr) / stride

(* The supplemental list's (attr ID, lower, upper, recip) blocks as the
   direct slot and reciprocal arrays. *)
let supplemental words base =
  let slots = list_length words base 4 in
  let id j = words.(base + (4 * j)) in
  if base + (4 * slots) > Array.length words then
    Error "truncated supplemental block"
  else
    let sorted = ref true in
    for j = 1 to slots - 1 do
      if id j <= id (j - 1) then sorted := false
    done;
    if not !sorted then Error "supplemental list is not ID-sorted"
    else
      let size = if slots = 0 then 0 else id (slots - 1) + 1 in
      let slot = Array.make size (-1) and recip = Array.make size (-1) in
      for j = 0 to slots - 1 do
        slot.(id j) <- j;
        recip.(id j) <- words.(base + (4 * j) + 3)
      done;
      Ok (slots, slot, recip)

(* One score table per entry of the level-0 list (the tree starts at
   word 0), filled from the level-1 and level-2 lists it points to. *)
let type_tables words ~slots ~slot =
  let types = list_length words 0 2 in
  let max_id = ref 0 in
  for i = 0 to types - 1 do
    max_id := max !max_id words.(2 * i)
  done;
  let table = Array.make (!max_id + 1) None in
  for i = 0 to types - 1 do
    let l1 = words.((2 * i) + 1) in
    let n = list_length words l1 2 in
    let vals = Array.make (n * slots) (-1) in
    for k = 0 to n - 1 do
      let p = ref words.(l1 + (2 * k) + 1) in
      while !p < Array.length words && words.(!p) <> end_marker do
        let aid = words.(!p) in
        if aid < Array.length slot && slot.(aid) >= 0 then
          vals.((k * slots) + slot.(aid)) <- words.(!p + 1);
        p := !p + 2
      done
    done;
    table.(words.(2 * i)) <-
      Some { impl_ids = Array.init n (fun k -> words.(l1 + (2 * k))); vals }
  done;
  table

let of_casebase cb =
  match Memlayout.encode_cb cb with
  | Error e -> Error e
  | Ok image -> (
      (* Round-trip the image through the elaborator: the tables are
         built from the ROM module's own words, i.e. from the same IR
         that the VHDL printer and the netlist simulator consume. *)
      match Elaborate.rom_module ~name:"qos_cb_rom" ~words:image.Memlayout.cb_words with
      | Error e -> Error ("elaborate: " ^ e)
      | Ok rom -> (
          let rom_words =
            List.find_map
              (function Ir.Rom { rwords; _ } -> Some rwords | _ -> None)
              rom.Ir.cells
          in
          match rom_words with
          | None -> Error "elaborated ROM module has no Rom cell"
          | Some words ->
              (* The ROM cell holds the encoded array itself, which
                 nothing else references: no copy, and no word-by-word
                 comparison unless the elaborator made one. *)
              if words != image.Memlayout.cb_words
                 && words <> image.Memlayout.cb_words
              then Error "IR ROM image diverges from the Memlayout encoding"
              else
                Result.map
                  (fun (slots, slot, recip) ->
                    {
                      words;
                      types = type_tables words ~slots ~slot;
                      slots;
                      slot;
                      recip;
                      scratch = Array.make (4 * slots) 0;
                    })
                  (supplemental words image.Memlayout.cb_supplemental_base)))

(* Writes each constraint's four words into [cs] from [n] on: slot,
   value, reciprocal and its raw Q15 weight, the request-list word
   Request.make rounded once.  A constraint on an attribute outside
   the supplemental list scores 0 on every variant, so it is left out.
   Request.make refuses duplicate IDs, so the constraints kept have
   distinct slots and fit [cs]'s 4 words per slot.  Returns the words
   written. *)
let rec fill t cs n = function
  | [] -> n
  | (c : Request.constr) :: rest ->
      let aid = c.Request.attr in
      if aid < Array.length t.slot && t.slot.(aid) >= 0 then begin
        cs.(n) <- t.slot.(aid);
        cs.(n + 1) <- c.Request.value;
        cs.(n + 2) <- t.recip.(aid);
        cs.(n + 3) <- Q.to_raw c.Request.q15;
        fill t cs (n + 4) rest
      end
      else fill t cs n rest

(* Scores every variant of [ct] against the first [n] words of [cs].
   The Q15 arithmetic is Fxp.Q15's (abs_diff_int/mul_int/
   complement_to_one/mul/add): a local similarity of 0 when recip * d
   reaches one or the variant lacks the attribute, round-to-nearest
   weighting, and a sum saturating at 0xFFFF.  No weighted term
   exceeds one, so only the sum can saturate, and every term is
   non-negative, so saturating the total once equals saturating each
   partial sum.  [x asr 62] is -1 when the 63-bit [x] is negative and
   0 otherwise: [|x|] and both zero cases are masks, not branches,
   which mispredict on random-sign distances.  Returns the winner's
   row above its 16-bit score, [k lsl 16 lor score], so no tuple is
   built. *)
let best_of ct ~slots cs n =
  let vals = ct.vals in
  let best = ref (-1) and best_k = ref 0 in
  for k = 0 to Array.length ct.impl_ids - 1 do
    let row = k * slots in
    let acc = ref 0 and i = ref 0 in
    while !i < n do
      let v = Array.unsafe_get vals (row + Array.unsafe_get cs !i) in
      let x = Array.unsafe_get cs (!i + 1) - v in
      let d = (x lxor (x asr 62)) - (x asr 62) in
      let local = q15_one - (Array.unsafe_get cs (!i + 2) * d) in
      let local = local land lnot ((local asr 62) lor (v asr 62)) in
      let w = Array.unsafe_get cs (!i + 3) in
      acc := !acc + (((local * w) + q15_half) lsr 15);
      i := !i + 4
    done;
    let s = if !acc > raw_max then raw_max else !acc in
    if s > !best then begin
      best := s;
      best_k := k
    end
  done;
  (!best_k lsl 16) lor !best

let retrieve t (request : Request.t) =
  let type_id = request.Request.type_id in
  match
    if type_id < Array.length t.types then t.types.(type_id) else None
  with
  | None -> Error (E.Unknown_type type_id)
  | Some ct when Array.length ct.impl_ids = 0 ->
      Error (E.No_implementations type_id)
  | Some ct ->
      let n = fill t t.scratch 0 request.Request.constraints in
      let winner = best_of ct ~slots:t.slots t.scratch n in
      Ok
        {
          E.impl_id = ct.impl_ids.(winner lsr 16);
          score = Q.of_raw_exn (winner land raw_max);
          cycles = None;
        }

let engine t =
  let retrieve = retrieve t in
  {
    E.name = "native";
    caps = { E.bit_accurate = true; reports_cycles = false };
    retrieve;
    retrieve_batch = E.batch_of_single retrieve;
    phase_cycles = None;
  }

let factory cb = Result.map engine (of_casebase cb)
