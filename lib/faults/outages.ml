type event = {
  ev_node : int;
  ev_at_us : float;
  ev_kind : [ `Transient of float | `Permanent ];
}

type spec = {
  permanent_frac : float;
  permanent_window : float * float;
  transient_mean_us : float option;
  transient_down_us : float * float;
}

let default_spec =
  {
    permanent_frac = 0.0;
    permanent_window = (0.2, 0.7);
    transient_mean_us = None;
    transient_down_us = (1_000.0, 5_000.0);
  }

let uniform_in inj lo hi =
  if hi <= lo then lo else lo +. ((hi -. lo) *. Injector.uniform inj)

(* Distinct victims by rejection: the kill count is at most [nodes], so
   each draw rejects with probability < 1 and the loop terminates; the
   draw order is part of the seeded schedule. *)
let pick_victims inj ~nodes ~count =
  let seen = Hashtbl.create 8 in
  let rec pick acc n =
    if n = 0 then List.rev acc
    else
      let v = Injector.index inj ~bound:nodes in
      if Hashtbl.mem seen v then pick acc n
      else begin
        Hashtbl.add seen v ();
        pick (v :: acc) (n - 1)
      end
  in
  pick [] count

let generate inj ~nodes ~duration_us spec =
  if nodes < 1 then invalid_arg "Outages.generate: nodes must be >= 1";
  (* A NaN down-time would stall the bounce loop below, whose clock
     must pass [duration_us] to stop; a negative or infinite one is no
     outage length either. *)
  (let lo, hi = spec.transient_down_us in
   let ok v = Float.is_finite v && v >= 0.0 in
   if spec.transient_mean_us <> None && not (ok lo && ok hi) then
     invalid_arg
       "Outages.generate: transient down-times must be finite and >= 0");
  let frac = Float.max 0.0 (Float.min 1.0 spec.permanent_frac) in
  let kill_count = int_of_float (frac *. float_of_int nodes) in
  let wlo, whi = spec.permanent_window in
  let kills =
    List.map
      (fun v ->
        let at = uniform_in inj (wlo *. duration_us) (whi *. duration_us) in
        (v, at))
      (pick_victims inj ~nodes ~count:kill_count)
  in
  let kill_at node = List.assoc_opt node kills in
  (* Per-node bounce storm, nodes in index order so the draw sequence
     is fixed.  Advancing past the outage keeps a node's transients
     disjoint by construction. *)
  let transients =
    match spec.transient_mean_us with
    | None -> []
    | Some mean ->
        let dlo, dhi = spec.transient_down_us in
        let rec storm node t acc =
          let t = t +. Injector.interval inj ~mean_us:mean in
          if t >= duration_us then List.rev acc
          else
            let dur = uniform_in inj dlo dhi in
            let acc =
              (* Bounces on or across the permanent kill are subsumed
                 by it. *)
              match kill_at node with
              | Some k when t +. dur >= k -> acc
              | Some _ | None ->
                  { ev_node = node; ev_at_us = t; ev_kind = `Transient dur }
                  :: acc
            in
            storm node (t +. dur) acc
        in
        List.concat (List.init nodes (fun node -> storm node 0.0 []))
  in
  let permanents =
    List.filter_map
      (fun (node, at) ->
        if at < duration_us then
          Some { ev_node = node; ev_at_us = at; ev_kind = `Permanent }
        else None)
      kills
  in
  List.sort
    (fun a b ->
      match compare a.ev_at_us b.ev_at_us with
      | 0 -> compare a.ev_node b.ev_node
      | c -> c)
    (permanents @ transients)

let down_intervals events ~duration_us ~node =
  let mine = List.filter (fun e -> e.ev_node = node) events in
  let spans =
    List.map
      (fun e ->
        match e.ev_kind with
        | `Permanent -> (e.ev_at_us, duration_us)
        | `Transient dur -> (e.ev_at_us, Float.min duration_us (e.ev_at_us +. dur)))
      mine
  in
  let sorted = List.sort compare spans in
  (* Merge any overlap (a transient running into the permanent kill). *)
  List.rev
    (List.fold_left
       (fun acc (lo, hi) ->
         match acc with
         | (plo, phi) :: rest when lo <= phi -> (plo, Float.max phi hi) :: rest
         | _ -> (lo, hi) :: acc)
       [] sorted)

type down_table = { starts : float array; ends : float array }

let down_table events ~duration_us ~node =
  let spans = down_intervals events ~duration_us ~node in
  {
    starts = Array.of_list (List.map fst spans);
    ends = Array.of_list (List.map snd spans);
  }

(* How many intervals start at or before [t]: a binary search over the
   ascending starts.  Those intervals are a prefix of the table. *)
let started d t =
  let lo = ref 0 and hi = ref (Array.length d.starts) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if d.starts.(mid) <= t then lo := mid + 1 else hi := mid
  done;
  !lo

(* Every earlier interval ends before the last started one begins, so
   only that one can still be running at [t]. *)
let is_down d t =
  let i = started d t in
  i > 0 && t < d.ends.(i - 1)

(* The start test only fails for a NaN [t], which no start follows. *)
let next_down d t =
  let i = started d t in
  if i < Array.length d.starts && t < d.starts.(i) then Some d.starts.(i)
  else None
