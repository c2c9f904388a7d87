open Qos_core

let get r = Util.ok_exn ~ctx:"Generator" r

type schema_spec = { attr_count : int; max_bound : int }

let default_schema_spec = { attr_count = 10; max_bound = 1000 }

type casebase_spec = {
  type_count : int;
  impls_per_type : int * int;
  attrs_per_impl : int * int;
}

let default_casebase_spec =
  { type_count = 15; impls_per_type = (10, 10); attrs_per_impl = (10, 10) }

type request_spec = {
  constraints : int * int;
  weight_profile : [ `Equal | `Random ];
  value_slack : float;
}

let default_request_spec =
  { constraints = (3, 6); weight_profile = `Equal; value_slack = 0.1 }

let schema rng spec =
  let descriptor aid =
    let lower = Prng.int rng ~bound:(spec.max_bound / 2) in
    let upper = Prng.int_in rng ~lo:lower ~hi:spec.max_bound in
    get (Attr.descriptor ~id:aid ~name:(Printf.sprintf "attr-%d" aid) ~lower ~upper)
  in
  get
    (Attr.Schema.of_list
       (List.init spec.attr_count (fun i -> descriptor (i + 1))))

let targets = Target.all_builtin

let impl_of rng ~schema ~impl_id ~attr_range =
  let descriptors = Attr.Schema.descriptors schema in
  let lo, hi = attr_range in
  let available = List.length descriptors in
  let k = min available (Prng.int_in rng ~lo ~hi) in
  let chosen = Prng.sample_without_replacement rng ~k descriptors in
  let attrs =
    List.map
      (fun (d : Attr.descriptor) ->
        (d.id, Prng.int_in rng ~lo:d.lower ~hi:d.upper))
      chosen
  in
  get (Impl.make ~id:impl_id ~target:(Prng.choose rng targets) attrs)

let casebase rng ~schema:sch spec =
  let lo_i, hi_i = spec.impls_per_type in
  let ftype tid =
    let impl_count = Prng.int_in rng ~lo:lo_i ~hi:hi_i in
    let impls =
      List.init impl_count (fun i ->
          impl_of rng ~schema:sch ~impl_id:(i + 1)
            ~attr_range:spec.attrs_per_impl)
    in
    get (Ftype.make ~id:tid ~name:(Printf.sprintf "ftype-%d" tid) impls)
  in
  get
    (Casebase.make ~name:"generated" ~schema:sch
       (List.init spec.type_count (fun i -> ftype (i + 1))))

let request rng ~schema:sch ~type_id spec =
  let descriptors = Attr.Schema.descriptors sch in
  let lo, hi = spec.constraints in
  let k = max 1 (min (List.length descriptors) (Prng.int_in rng ~lo ~hi)) in
  let chosen = Prng.sample_without_replacement rng ~k descriptors in
  let constraint_of (d : Attr.descriptor) =
    let range = max 1 (d.upper - d.lower) in
    let value =
      if Prng.float rng < spec.value_slack then
        (* Outside the design bounds by up to 20% of the range. *)
        let excess = 1 + Prng.int rng ~bound:(max 1 (range / 5)) in
        let v = if Prng.bool rng then d.upper + excess else d.lower - excess in
        min (max v 0) Attr.max_word
      else Prng.int_in rng ~lo:d.lower ~hi:d.upper
    in
    let weight =
      match spec.weight_profile with
      | `Equal -> 1.0
      | `Random -> 0.1 +. (0.9 *. Prng.float rng)
    in
    (d.id, value, weight)
  in
  get (Request.make ~type_id (List.map constraint_of chosen))

let sized_casebase ~seed ~types ~impls ~attrs =
  let rng = Prng.create ~seed in
  let sch = schema rng { attr_count = attrs; max_bound = 1000 } in
  casebase rng ~schema:sch
    {
      type_count = types;
      impls_per_type = (impls, impls);
      attrs_per_impl = (attrs, attrs);
    }

let sized_request ~seed (cb : Casebase.t) =
  let rng = Prng.create ~seed in
  let attr_count = Attr.Schema.cardinal cb.schema in
  request rng ~schema:cb.schema ~type_id:1
    {
      constraints = (attr_count, attr_count);
      weight_profile = `Equal;
      value_slack = 0.0;
    }
