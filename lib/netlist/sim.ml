open Ir

type outcome = { cycles : int; decision : Qos_core.Engine.decision option }

exception Sim_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Sim_error s)) fmt

(* --- Flattening ---------------------------------------------------------- *)

type comb_node =
  | Cassign of { target : string; expr : expr }
  | Cselect of {
      target : string;
      selector : string;
      arms : (expr * string) list;
      default : expr;
    }
  | Crom of { addr : string; data : string; words : int array }

type fsm_node = {
  clock : string; [@warning "-69"]
  reset : string;
  state_sig : string;
  state_names : string array;
  initial : string;
  reset_stmts : stmt list;
  var_widths : (string * int) list;
  arms : (string * stmt list) list;
  vars : (string, int) Hashtbl.t;
}

type flat = {
  widths : (string, int) Hashtbl.t;
  consts : (string, int) Hashtbl.t;
  state_codes : (string, int) Hashtbl.t;
  comb : comb_node list;
  fsms : fsm_node list;
}

(* Rename every identifier of an instantiated module into the flat
   namespace: formals become the bound nets of the parent, generics
   become their bound integer values, package constants stay, and
   everything else (signals, the state register, process variables) is
   prefixed with the instance path. *)
let resolver design m ~prefix ~binding ~gens name =
  if List.mem_assoc name gens then Int (List.assoc name gens)
  else if List.mem_assoc name binding then Ref (List.assoc name binding)
  else if List.mem_assoc name design.constants then Ref name
  else if List.exists (fun p -> String.equal p.pname name) m.ports then
    fail "unbound port %s on %s" name m.mod_name
  else Ref (prefix ^ name)

let resolve_name resolve name =
  match resolve name with
  | Ref n -> n
  | Int _ -> fail "assignment to generic %s" name
  | _ -> assert false

let rec subst_expr resolve = function
  | Ref name -> resolve name
  | (Int _ | Bitlit _ | Zeros | Statelit _) as e -> e
  | Bin (op, a, b) -> Bin (op, subst_expr resolve a, subst_expr resolve b)
  | Paren e -> Paren (subst_expr resolve e)
  | Slice (e, hi, lo) ->
      Slice (subst_expr resolve e, subst_expr resolve hi, subst_expr resolve lo)
  | Resize (e, w) -> Resize (subst_expr resolve e, subst_expr resolve w)
  | To_unsigned (e, w) -> To_unsigned (subst_expr resolve e, subst_expr resolve w)
  | Cond (a, c, b) ->
      Cond (subst_expr resolve a, subst_expr resolve c, subst_expr resolve b)

let rec subst_stmt resolve = function
  | Assign (t, e) -> Assign (resolve_name resolve t, subst_expr resolve e)
  | Vassign (t, e) -> Vassign (resolve_name resolve t, subst_expr resolve e)
  | If (branches, els) ->
      If
        ( List.map
            (fun (c, body) ->
              (subst_expr resolve c, List.map (subst_stmt resolve) body))
            branches,
          List.map (subst_stmt resolve) els )

let eval_generic consts (name, e) =
  match Ir.eval_const ~lookup:(fun n -> Hashtbl.find_opt consts n) e with
  | Some v -> (name, v)
  | None -> fail "generic %s did not elaborate to a constant" name

let flatten design =
  let widths = Hashtbl.create 64 in
  let consts = Hashtbl.create 16 in
  let state_codes = Hashtbl.create 32 in
  List.iter (fun (n, (v, _)) -> Hashtbl.replace consts n v) design.constants;
  let comb = ref [] and fsms = ref [] in
  let rec inline m ~prefix ~binding ~gens =
    let resolve = resolver design m ~prefix ~binding ~gens in
    let name = resolve_name resolve in
    List.iter
      (fun s ->
        Hashtbl.replace widths (prefix ^ s.sname) (width_of_vtype s.stype))
      m.signals;
    List.iter
      (fun c ->
        match c with
        | Comb { ctarget; cexpr; _ } ->
            comb :=
              Cassign { target = name ctarget; expr = subst_expr resolve cexpr }
              :: !comb
        | Select { mtarget; mselector; marms; mdefault; _ } ->
            comb :=
              Cselect
                {
                  target = name mtarget;
                  selector = name mselector;
                  arms =
                    List.map (fun (e, st) -> (subst_expr resolve e, st)) marms;
                  default = subst_expr resolve mdefault;
                }
              :: !comb
        | Rom { raddr; rdata; rwords; _ } ->
            comb := Crom { addr = name raddr; data = name rdata; words = rwords }
              :: !comb
        | Fsm f ->
            List.iteri
              (fun i st ->
                match Hashtbl.find_opt state_codes st with
                | None -> Hashtbl.replace state_codes st i
                | Some j when j = i -> ()
                | Some _ ->
                    fail "state literal %s used at two different positions" st)
              f.fstates;
            fsms :=
              {
                clock = name f.fclock;
                reset = name f.freset;
                state_sig = prefix ^ f.fstate;
                state_names = Array.of_list f.fstates;
                initial = f.finitial;
                reset_stmts = List.map (subst_stmt resolve) f.freset_stmts;
                var_widths =
                  List.map
                    (fun (v, t) -> (prefix ^ v, width_of_vtype t))
                    f.fvars;
                arms =
                  List.map
                    (fun (st, body) -> (st, List.map (subst_stmt resolve) body))
                    f.farms;
                vars = Hashtbl.create 8;
              }
              :: !fsms
        | Inst { iname; ientity; igenerics; iports } -> (
            match find_module design ientity with
            | None -> fail "instance %s: unknown entity %s" iname ientity
            | Some child ->
                let child_binding =
                  List.map (fun (formal, actual) -> (formal, name actual)) iports
                in
                let child_gens =
                  List.map (eval_generic consts) igenerics
                  @ List.filter_map
                      (fun g ->
                        match g.gdefault with
                        | Some d when not (List.mem_assoc g.gname igenerics) ->
                            Some (g.gname, d)
                        | _ -> None)
                      child.generics
                in
                inline child
                  ~prefix:(prefix ^ iname ^ ".")
                  ~binding:child_binding ~gens:child_gens))
      m.cells
  in
  match find_module design design.top with
  | None -> fail "top module %s not found" design.top
  | Some top ->
      List.iter
        (fun p -> Hashtbl.replace widths p.pname (width_of_vtype p.ptype))
        top.ports;
      inline top ~prefix:""
        ~binding:(List.map (fun p -> (p.pname, p.pname)) top.ports)
        ~gens:[];
      {
        widths;
        consts;
        state_codes;
        comb = List.rev !comb;
        fsms = List.rev !fsms;
      }

(* --- Evaluation ---------------------------------------------------------- *)

let mask w v = if w >= 62 then v else v land ((1 lsl w) - 1)
let bool b = if b then 1 else 0

let rec eval flat values vars e =
  let lookup n =
    match Hashtbl.find_opt vars n with
    | Some v -> v
    | None -> (
        match Hashtbl.find_opt values n with
        | Some v -> v
        | None -> (
            match Hashtbl.find_opt flat.consts n with
            | Some v -> v
            | None -> fail "unresolved name %s" n))
  in
  match e with
  | Ref n -> lookup n
  | Int n -> n
  | Bitlit c -> if c = '1' then 1 else 0
  | Zeros -> 0
  | Statelit st -> (
      match Hashtbl.find_opt flat.state_codes st with
      | Some c -> c
      | None -> fail "unknown state literal %s" st)
  | Paren e -> eval flat values vars e
  | Bin (op, a, b) -> (
      let va = eval flat values vars a and vb = eval flat values vars b in
      match op with
      | Add -> va + vb
      | Sub -> va - vb
      | Mul -> va * vb
      | Srl -> va lsr vb
      | Eq -> bool (va = vb)
      | Neq -> bool (va <> vb)
      | Lt -> bool (va < vb)
      | Le -> bool (va <= vb)
      | Gt -> bool (va > vb)
      | Ge -> bool (va >= vb)
      | And_ -> bool (va <> 0 && vb <> 0)
      | Or_ -> bool (va <> 0 || vb <> 0))
  | Slice (e, hi, lo) ->
      let v = eval flat values vars e in
      let hi = eval flat values vars hi and lo = eval flat values vars lo in
      mask (hi - lo + 1) (v lsr lo)
  | Resize (e, w) | To_unsigned (e, w) ->
      mask (eval flat values vars w) (eval flat values vars e)
  | Cond (a, c, b) ->
      if eval flat values vars c <> 0 then eval flat values vars a
      else eval flat values vars b

let no_vars : (string, int) Hashtbl.t = Hashtbl.create 1

(* Settle the combinational network to a fixpoint.  [n] passes over
   [n] cells always suffice for an acyclic network; running dry
   without converging means a combinational loop closed at runtime. *)
let settle flat values =
  let nodes = flat.comb in
  let limit = List.length nodes + 2 in
  let update target v =
    match Hashtbl.find_opt values target with
    | Some old when old = v -> false
    | _ ->
        Hashtbl.replace values target v;
        true
  in
  let pass () =
    List.fold_left
      (fun changed node ->
        let changed' =
          match node with
          | Cassign { target; expr } ->
              let w =
                match Hashtbl.find_opt flat.widths target with
                | Some w -> w
                | None -> 62
              in
              update target (mask w (eval flat values no_vars expr))
          | Cselect { target; selector; arms; default } ->
              let sel = eval flat values no_vars (Ref selector) in
              let e =
                match
                  List.find_opt
                    (fun (_, st) ->
                      Hashtbl.find_opt flat.state_codes st = Some sel)
                    arms
                with
                | Some (e, _) -> e
                | None -> default
              in
              let w =
                match Hashtbl.find_opt flat.widths target with
                | Some w -> w
                | None -> 62
              in
              update target (mask w (eval flat values no_vars e))
          | Crom { addr; data; words } ->
              let a = eval flat values no_vars (Ref addr) in
              let v =
                if a < Array.length words then words.(a)
                else Memlayout.end_marker
              in
              update data v
        in
        changed || changed')
      false nodes
  in
  let rec go n = if pass () then if n = 0 then fail "combinational loop did not settle" else go (n - 1) in
  go limit

(* Execute one FSM arm with deferred signal assignment. *)
let step_fsm flat values fsm deferred =
  let rec exec stmts =
    List.iter
      (fun s ->
        match s with
        | Vassign (t, e) ->
            let w =
              match List.assoc_opt t fsm.var_widths with
              | Some w -> w
              | None -> fail "assignment to undeclared variable %s" t
            in
            Hashtbl.replace fsm.vars t (mask w (eval flat values fsm.vars e))
        | Assign (t, e) ->
            let v = eval flat values fsm.vars e in
            let v =
              match Hashtbl.find_opt flat.widths t with
              | Some w -> mask w v
              | None -> v (* the state register *)
            in
            deferred := (t, v) :: !deferred
        | If (branches, els) -> (
            match
              List.find_opt
                (fun (c, _) -> eval flat values fsm.vars c <> 0)
                branches
            with
            | Some (_, body) -> exec body
            | None -> exec els))
      stmts
  in
  if eval flat values no_vars (Ref fsm.reset) <> 0 then exec fsm.reset_stmts
  else begin
    let code = eval flat values no_vars (Ref fsm.state_sig) in
    if code < 0 || code >= Array.length fsm.state_names then
      fail "state register %s out of range" fsm.state_sig;
    let st = fsm.state_names.(code) in
    match List.assoc_opt st fsm.arms with
    | Some body -> exec body
    | None -> fail "state %s has no arm" st
  end

let uncounted = [ "st_idle"; "st_done"; "st_error" ]

let working flat values fsm =
  let code = eval flat values no_vars (Ref fsm.state_sig) in
  code >= 0
  && code < Array.length fsm.state_names
  && not (List.mem fsm.state_names.(code) uncounted)

let edge flat values =
  let deferred = ref [] in
  List.iter (fun fsm -> step_fsm flat values fsm deferred) flat.fsms;
  List.iter (fun (t, v) -> Hashtbl.replace values t v) !deferred

let run ?(max_cycles = 5_000_000) design =
  try
    let flat = flatten design in
    let values = Hashtbl.create 64 in
    Hashtbl.iter (fun n _ -> Hashtbl.replace values n 0) flat.widths;
    List.iter
      (fun fsm ->
        Hashtbl.replace values fsm.state_sig
          (Hashtbl.find flat.state_codes fsm.initial))
      flat.fsms;
    (* One reset cycle, then release and pulse start high. *)
    Hashtbl.replace values "rst" 1;
    settle flat values;
    edge flat values;
    Hashtbl.replace values "rst" 0;
    Hashtbl.replace values "start" 1;
    let cycles = ref 0 in
    let out n =
      match Hashtbl.find_opt values n with
      | Some v -> v
      | None -> fail "top module has no %s output" n
    in
    let rec loop budget =
      if budget = 0 then fail "cycle limit exceeded after %d cycles" max_cycles;
      settle flat values;
      if out "done" = 1 then
        {
          cycles = !cycles;
          decision =
            (if out "not_found" = 1 then None
             else
               Some
                 {
                   Qos_core.Engine.impl_id = out "best_id";
                   score = Fxp.Q15.of_raw_exn (out "best_score");
                   cycles = Some !cycles;
                 });
        }
      else begin
        if List.exists (working flat values) flat.fsms then incr cycles;
        edge flat values;
        loop (budget - 1)
      end
    in
    Ok (loop max_cycles)
  with Sim_error msg -> Error msg
