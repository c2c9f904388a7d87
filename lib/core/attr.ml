type id = int
type value = int

type descriptor = { id : id; name : string; lower : value; upper : value }

(* 0xFFFF is the image's list end marker, so no stored word may be it. *)
let max_word = 0xFFFE

let descriptor ~id ~name ~lower ~upper =
  if id <= 0 || id > max_word then
    Error (Printf.sprintf "attribute id %d outside (0, %d]" id max_word)
  else if lower < 0 || upper > max_word then
    Error
      (Printf.sprintf "attribute %d bounds [%d, %d] outside [0, %d]" id lower
         upper max_word)
  else if lower > upper then
    Error (Printf.sprintf "attribute %d has lower %d > upper %d" id lower upper)
  else Ok { id; name; lower; upper }

let dmax d = d.upper - d.lower

let pp_descriptor ppf d =
  Format.fprintf ppf "attr %d %S [%d, %d]" d.id d.name d.lower d.upper

module Int_map = Map.Make (Int)

module Schema = struct
  type t = descriptor Int_map.t

  let empty = Int_map.empty

  let add d t =
    if Int_map.mem d.id t then
      Error (Printf.sprintf "duplicate attribute id %d in schema" d.id)
    else Ok (Int_map.add d.id d t)

  let of_list ds =
    List.fold_left
      (fun acc d -> Result.bind acc (add d))
      (Ok empty) ds

  let find t id = Int_map.find_opt id t
  let mem t id = Int_map.mem id t
  let descriptor_dmax (d : descriptor) = d.upper - d.lower
  let dmax t id = Option.map descriptor_dmax (find t id)

  let recip t id =
    Option.map (fun d -> Fxp.Q15.recip_succ (descriptor_dmax d)) (find t id)
  let descriptors t = List.map snd (Int_map.bindings t)
  let cardinal = Int_map.cardinal

  let union a b =
    Int_map.fold (fun _ d acc -> Result.bind acc (add d)) b (Ok a)

  let equal a b =
    Int_map.equal
      (fun x y ->
        x.id = y.id && String.equal x.name y.name && x.lower = y.lower
        && x.upper = y.upper)
      a b

  let pp ppf t =
    Format.fprintf ppf "@[<v>%a@]"
      (Format.pp_print_list pp_descriptor)
      (descriptors t)
end
