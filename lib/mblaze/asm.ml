type item = Label of string | Insn of string Isa.insn

type program = {
  insns : int Isa.insn array;
  labels : (string * int) list;
}

let ( let* ) = Result.bind

let collect_labels items =
  let rec loop index labels = function
    | [] -> Ok (List.rev labels)
    | Label name :: rest ->
        if List.mem_assoc name labels then
          Error (Printf.sprintf "duplicate label %S" name)
        else loop index ((name, index) :: labels) rest
    | Insn _ :: rest -> loop (index + 1) labels rest
  in
  loop 0 [] items

let assemble items =
  let* labels = collect_labels items in
  let resolve name =
    match List.assoc_opt name labels with
    | Some index -> Ok index
    | None -> Error (Printf.sprintf "unknown label %S" name)
  in
  let* rev_insns =
    List.fold_left
      (fun acc item ->
        let* rev = acc in
        match item with
        | Label _ -> Ok rev
        | Insn insn ->
            let* () = Isa.validate insn in
            (* map_label with a Result-producing function, threaded by
               resolving up front. *)
            let* resolved =
              match insn with
              | Isa.Beq (a, b, l) ->
                  Result.map (fun t -> Isa.Beq (a, b, t)) (resolve l)
              | Isa.Bne (a, b, l) ->
                  Result.map (fun t -> Isa.Bne (a, b, t)) (resolve l)
              | Isa.Blt (a, b, l) ->
                  Result.map (fun t -> Isa.Blt (a, b, t)) (resolve l)
              | Isa.Bge (a, b, l) ->
                  Result.map (fun t -> Isa.Bge (a, b, t)) (resolve l)
              | Isa.Jmp l -> Result.map (fun t -> Isa.Jmp t) (resolve l)
              | ( Isa.Li _ | Isa.Lw _ | Isa.Sw _ | Isa.Add _ | Isa.Addi _
                | Isa.Sub _ | Isa.Mul _ | Isa.Sll _ | Isa.Srl _ | Isa.Sra _
                | Isa.And _ | Isa.Or _ | Isa.Xor _ | Isa.Halt ) as other ->
                  Ok (Isa.map_label (fun _ -> 0) other)
            in
            Ok (resolved :: rev))
      (Ok []) items
  in
  match rev_insns with
  | [] -> Error "empty program"
  | _ -> Ok { insns = Array.of_list (List.rev rev_insns); labels }

let code_bytes p =
  Array.fold_left (fun acc insn -> acc + Isa.encoded_bytes insn) 0 p.insns
