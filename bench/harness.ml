(* Host-time sampler for every timed bench section, and the only writer
   of a BENCH_*.json file.

   [run_all] times a section's specs on process CPU time ([Sys.time]:
   user plus system, over all domains), which leaves out the time a
   shared host takes the core away.  One warm call per spec pays the
   first-touch costs; each spec then gets the smallest doubling batch
   that spans [floor_s]; then [rounds] rounds run every spec's batch
   once, starting one spec later each round so host drift lands on
   every variant alike.  A ratio between two specs is taken within a
   round ([paired]) and only then summarised, never as a ratio of two
   medians. *)

type spec = { name : string; requests_per_iter : int; f : unit -> unit }

type result = {
  spec : spec;
  batch : int;
  per_iter_s : float list;  (** one CPU-time sample per round, in order *)
}

(* Odd, so the nearest-rank p50 of [Workload.Stats] is the median. *)
let rounds = 5
let floor_s = 0.1

let make ~name ?(requests_per_iter = 1) f =
  if requests_per_iter < 1 then
    invalid_arg "Harness.make: requests_per_iter must be >= 1";
  let f () = ignore (Sys.opaque_identity (f ())) in
  { name; requests_per_iter; f }

(* The full major collection settles the garbage of whatever ran before,
   so it is not collected on this batch's clock. *)
let time_batch spec batch =
  Gc.full_major ();
  let t0 = Sys.time () in
  for _ = 1 to batch do
    spec.f ()
  done;
  Sys.time () -. t0

let rec calibrate spec batch =
  if time_batch spec batch >= floor_s || batch >= 1 lsl 24 then batch
  else calibrate spec (2 * batch)

let run_all specs =
  List.iter (fun spec -> spec.f ()) specs;
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let batches = Array.map (fun spec -> calibrate spec 1) specs in
  let samples = Array.make n [] in
  for round = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (round + k) mod n in
      let dt = time_batch specs.(i) batches.(i) in
      samples.(i) <- (dt /. float_of_int batches.(i)) :: samples.(i)
    done
  done;
  List.init n (fun i ->
      {
        spec = specs.(i);
        batch = batches.(i);
        per_iter_s = List.rev samples.(i);
      })

let find name results =
  List.find (fun r -> String.equal r.spec.name name) results

(* --- per-round samples ---------------------------------------------------- *)

let ns r = List.map (fun s -> s *. 1e9) r.per_iter_s

let requests_per_s r =
  List.map (fun s -> float_of_int r.spec.requests_per_iter /. s) r.per_iter_s

let ns_per_run results =
  List.map (fun r -> (r.spec.name ^ ".ns_per_run", "ns", ns r)) results

let paired f base variant = List.map2 f base.per_iter_s variant.per_iter_s

let overhead_pct ~base variant =
  paired (fun b v -> 100.0 *. (v -. b) /. b) base variant

let summary samples =
  match Workload.Stats.summarize samples with
  | Some s -> s
  | None -> invalid_arg "Harness.summary: no finite sample"

(* --- rendering ------------------------------------------------------------ *)

let rate v =
  if v >= 1e6 then Printf.sprintf "%10.2f M" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%10.2f k" (v /. 1e3)
  else Printf.sprintf "%10.2f  " v

let to_table results =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Printf.sprintf "%-28s %8s %12s %12s %12s %14s\n" "bench" "batch"
       "ns/iter p50" "min" "max" "requests/s");
  List.iter
    (fun r ->
      let t = summary (ns r) in
      Buffer.add_string b
        (Printf.sprintf "%-28s %8d %12.0f %12.0f %12.0f %14s\n" r.spec.name
           r.batch t.Workload.Stats.p50 t.minimum t.maximum
           (rate (summary (requests_per_s r)).p50)))
    results;
  Buffer.contents b

(* --- export --------------------------------------------------------------- *)

(* The checked-out commit when run from a git work tree, read from
   [.git] directly; "unknown" in an exported tree. *)
let commit () =
  let read path =
    String.trim (In_channel.with_open_bin path In_channel.input_all)
  in
  try
    match String.split_on_char ' ' (read ".git/HEAD") with
    | [ "ref:"; name ] -> read (Filename.concat ".git" name)
    | [ sha ] -> sha
    | _ -> "unknown"
  with Sys_error _ -> "unknown"

(* [metrics] are (name, unit, per-round samples); the file keeps each
   one's sample count, median, min and max. *)
let write_json ~bench metrics =
  let str = Obs.Jsonu.str and num = Obs.Jsonu.float_str in
  let sample (name, unit_, samples) =
    let s = summary samples in
    Printf.sprintf
      "    %s: {\"unit\": %s, \"n\": %d, \"median\": %s, \"min\": %s, \
       \"max\": %s}"
      (str name) (str unit_) s.Workload.Stats.n (num s.p50) (num s.minimum)
      (num s.maximum)
  in
  let path = Printf.sprintf "BENCH_%s.json" bench in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc
        "{\n\
        \  \"bench\": %s,\n\
        \  \"provenance\": {\"commit\": %s, \"ocaml\": %s, \"nproc\": %d},\n\
        \  \"samples\": {\n\
         %s\n\
        \  }\n\
         }\n"
        (str bench) (str (commit ())) (str Sys.ocaml_version)
        (Domain.recommended_domain_count ())
        (String.concat ",\n" (List.map sample metrics)));
  Printf.printf "-> %s\n" path
