(* Deterministic k-way merge of pull-based arrival sources.

   Each source is a thunk producing timestamped items in nondecreasing
   time order; [pull] returns the globally next item by (time, source
   index).  Only one lookahead item per source is held, so memory is
   O(sources) regardless of how many items flow through — this is what
   lets the serving path scale to millions of requests without
   pregenerating an arrival array.

   The merge order is exactly the order a stable sort by
   (time, source index) would give over the concatenated per-source
   sequences, which is how the pregenerated workload path orders the
   same arrivals — so draining a stream reproduces the pregenerated
   array element for element. *)

type 'a source = unit -> (float * 'a) option

type 'a t = {
  sources : 'a source array;
  pending : (float * 'a) option array;  (* one-item lookahead per source *)
  mutable pulled : int;
}

let create sources =
  let sources = Array.of_list sources in
  { sources; pending = Array.map (fun s -> s ()) sources; pulled = 0 }

let pulled t = t.pulled

(* Index of the pending item with the least (time, source index), or
   -1 when every source is exhausted.  Strict [<] keeps the earlier
   source on ties.  Local refs in a plain loop: no closure, and the
   float ref stays unboxed. *)
let best_index t =
  let pending = t.pending in
  let best = ref (-1) in
  let best_time = ref Float.infinity in
  for i = 0 to Array.length pending - 1 do
    match pending.(i) with
    | Some (time, _) when !best = -1 || time < !best_time ->
        best := i;
        best_time := time
    | _ -> ()
  done;
  !best

let peek t =
  match best_index t with
  | -1 -> None
  | i ->
      let time, item = Option.get t.pending.(i) in
      Some (i, time, item)

let pull t =
  match best_index t with
  | -1 -> None
  | i ->
      let time, item = Option.get t.pending.(i) in
      t.pending.(i) <- t.sources.(i) ();
      t.pulled <- t.pulled + 1;
      Some (i, time, item)

let drain ?max_items t =
  let cap = Option.value max_items ~default:max_int in
  let rec loop acc =
    if t.pulled >= cap then List.rev acc
    else
      match pull t with
      | None -> List.rev acc
      | Some x -> loop (x :: acc)
  in
  loop []
