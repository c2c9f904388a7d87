type hist_state = {
  bounds : float array;  (* Strictly increasing, finite upper bounds. *)
  bucket_counts : int array;  (* Per-bucket (not cumulative); +1 slot for +Inf. *)
  mutable sum : float;
  mutable count : int;
}

type cell =
  | Counter_cell of int ref
  | Gauge_cell of float ref
  | Histogram_cell of hist_state

type counter = int ref
type gauge = float ref
type histogram = hist_state

type kind = Kcounter | Kgauge | Khistogram

let kind_name = function
  | Kcounter -> "counter"
  | Kgauge -> "gauge"
  | Khistogram -> "histogram"

type family = {
  help : string;
  kind : kind;
  fam_buckets : float array;  (* Empty unless [kind = Khistogram]. *)
  (* Cells keyed by serialised label set; insertion order is irrelevant
     because exports re-sort. *)
  cells : (string, (string * string) list * cell) Hashtbl.t;
}

type t = { families : (string, family) Hashtbl.t }

let create () = { families = Hashtbl.create 16 }

(* --- Validation --------------------------------------------------------- *)

let name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
         | _ -> false)
       s

let label_name_ok s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let check_labels name labels =
  let sorted =
    List.sort (fun (a, _) (b, _) -> String.compare a b) labels
  in
  let rec dup = function
    | (a, _) :: ((b, _) :: _ as rest) ->
        if String.equal a b then true else dup rest
    | _ -> false
  in
  List.iter
    (fun (k, _) ->
      if not (label_name_ok k) then
        invalid_arg
          (Printf.sprintf "Obs.Metrics: bad label name %S on metric %s" k name))
    sorted;
  if dup sorted then
    invalid_arg
      (Printf.sprintf "Obs.Metrics: duplicate label name on metric %s" name);
  sorted

let label_escape s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let label_key labels =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=\"" ^ label_escape v ^ "\"") labels)

(* --- Registration ------------------------------------------------------- *)

let family t ~name ~help ~kind ~buckets =
  if not (name_ok name) then
    invalid_arg (Printf.sprintf "Obs.Metrics: bad metric name %S" name);
  match Hashtbl.find_opt t.families name with
  | Some fam ->
      if fam.kind <> kind then
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %s already registered as a %s" name
             (kind_name fam.kind));
      if kind = Khistogram && fam.fam_buckets <> buckets then
        invalid_arg
          (Printf.sprintf
             "Obs.Metrics: %s re-registered with different buckets" name);
      fam
  | None ->
      let fam = { help; kind; fam_buckets = buckets; cells = Hashtbl.create 4 } in
      Hashtbl.add t.families name fam;
      fam

let cell t ~name ~help ~kind ~buckets ~labels ~make =
  let labels = check_labels name labels in
  let fam = family t ~name ~help ~kind ~buckets in
  let key = label_key labels in
  match Hashtbl.find_opt fam.cells key with
  | Some (_, c) -> c
  | None ->
      let c = make () in
      Hashtbl.add fam.cells key (labels, c);
      c

let counter t ?(help = "") ?(labels = []) name =
  match
    cell t ~name ~help ~kind:Kcounter ~buckets:[||] ~labels ~make:(fun () ->
        Counter_cell (ref 0))
  with
  | Counter_cell r -> r
  | _ -> assert false

let gauge t ?(help = "") ?(labels = []) name =
  match
    cell t ~name ~help ~kind:Kgauge ~buckets:[||] ~labels ~make:(fun () ->
        Gauge_cell (ref 0.0))
  with
  | Gauge_cell r -> r
  | _ -> assert false

let check_buckets name buckets =
  if buckets = [] then
    invalid_arg (Printf.sprintf "Obs.Metrics: %s: empty bucket list" name);
  List.iter
    (fun b ->
      if not (Float.is_finite b) then
        invalid_arg
          (Printf.sprintf "Obs.Metrics: %s: non-finite bucket bound" name))
    buckets;
  let rec sorted = function
    | a :: (b :: _ as rest) -> a < b && sorted rest
    | _ -> true
  in
  if not (sorted buckets) then
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %s: buckets not strictly increasing" name);
  Array.of_list buckets

let histogram t ?(help = "") ?(labels = []) ~buckets name =
  let bounds = check_buckets name buckets in
  match
    cell t ~name ~help ~kind:Khistogram ~buckets:bounds ~labels ~make:(fun () ->
        Histogram_cell
          {
            bounds;
            bucket_counts = Array.make (Array.length bounds + 1) 0;
            sum = 0.0;
            count = 0;
          })
  with
  | Histogram_cell h -> h
  | _ -> assert false

(* --- Updates ------------------------------------------------------------ *)

let inc r = incr r

let inc_by r n =
  if n < 0 then invalid_arg "Obs.Metrics.inc_by: negative amount";
  r := !r + n

let counter_value r = !r
let set r v = r := v

let observe h v =
  if Float.is_finite v then begin
    let n = Array.length h.bounds in
    let rec slot i = if i >= n then n else if v <= h.bounds.(i) then i else slot (i + 1) in
    let i = slot 0 in
    h.bucket_counts.(i) <- h.bucket_counts.(i) + 1;
    h.sum <- h.sum +. v;
    h.count <- h.count + 1
  end

let default_buckets =
  [ 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024.; 2048.; 4096.;
    8192.; 16384.; 32768.; 65536. ]

(* Request latencies cluster around the ~40-60 us service floor with a
   retry/failover tail a few backoff envelopes long; a power-of-two
   ladder from 1 us wastes its bottom half and smears the service knee
   into one bucket.  This set resolves the knee (25-100 us) and the
   backoff tail (200 us - 20 ms) separately. *)
let latency_buckets_us =
  [ 25.; 50.; 75.; 100.; 150.; 200.; 300.; 500.; 750.; 1_000.; 1_500.;
    2_500.; 5_000.; 10_000.; 20_000.; 50_000. ]

(* Rejoin re-replication lags are entries / resync-rate: tens of
   milliseconds at the defaults — MTTR scale, not request scale. *)
let lag_buckets_us =
  [ 1_000.; 2_500.; 5_000.; 10_000.; 25_000.; 50_000.; 100_000.; 250_000.;
    500_000.; 1_000_000. ]

(* --- Export ------------------------------------------------------------- *)

let sorted_families t =
  Hashtbl.fold (fun name fam acc -> (name, fam) :: acc) t.families []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sorted_cells fam =
  Hashtbl.fold (fun key (labels, c) acc -> (key, labels, c) :: acc) fam.cells []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let prom_labels ?extra labels =
  let labels =
    match extra with
    | None -> labels
    | Some (k, v) ->
        List.sort (fun (a, _) (b, _) -> String.compare a b) ((k, v) :: labels)
  in
  match labels with [] -> "" | labels -> "{" ^ label_key labels ^ "}"

let to_prometheus t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, fam) ->
      if fam.help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name fam.help);
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name (kind_name fam.kind));
      List.iter
        (fun (_, labels, c) ->
          match c with
          | Counter_cell r ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %d\n" name (prom_labels labels) !r)
          | Gauge_cell r ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name (prom_labels labels)
                   (Jsonu.float_str !r))
          | Histogram_cell h ->
              let cum = ref 0 in
              Array.iteri
                (fun i n ->
                  cum := !cum + n;
                  let le =
                    if i = Array.length h.bounds then "+Inf"
                    else Jsonu.float_str h.bounds.(i)
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "%s_bucket%s %d\n" name
                       (prom_labels ~extra:("le", le) labels)
                       !cum))
                h.bucket_counts;
              Buffer.add_string buf
                (Printf.sprintf "%s_sum%s %s\n" name (prom_labels labels)
                   (Jsonu.float_str h.sum));
              Buffer.add_string buf
                (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels)
                   h.count))
        (sorted_cells fam))
    (sorted_families t);
  Buffer.contents buf

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Jsonu.str k ^ ":" ^ Jsonu.str v) labels)
  ^ "}"

let to_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"metrics\":[";
  let first_fam = ref true in
  List.iter
    (fun (name, fam) ->
      if not !first_fam then Buffer.add_string buf ",";
      first_fam := false;
      Buffer.add_string buf
        (Printf.sprintf "\n{\"name\":%s,\"type\":%s,\"help\":%s,\"series\":["
           (Jsonu.str name)
           (Jsonu.str (kind_name fam.kind))
           (Jsonu.str fam.help));
      let first_cell = ref true in
      List.iter
        (fun (_, labels, c) ->
          if not !first_cell then Buffer.add_string buf ",";
          first_cell := false;
          Buffer.add_string buf "\n{\"labels\":";
          Buffer.add_string buf (json_labels labels);
          (match c with
          | Counter_cell r ->
              Buffer.add_string buf (Printf.sprintf ",\"value\":%d" !r)
          | Gauge_cell r ->
              Buffer.add_string buf
                (Printf.sprintf ",\"value\":%s" (Jsonu.float_str !r))
          | Histogram_cell h ->
              Buffer.add_string buf ",\"buckets\":[";
              let cum = ref 0 in
              Array.iteri
                (fun i n ->
                  cum := !cum + n;
                  if i > 0 then Buffer.add_string buf ",";
                  let le =
                    if i = Array.length h.bounds then "+Inf"
                    else Jsonu.float_str h.bounds.(i)
                  in
                  Buffer.add_string buf
                    (Printf.sprintf "{\"le\":%s,\"count\":%d}" (Jsonu.str le)
                       !cum))
                h.bucket_counts;
              Buffer.add_string buf
                (Printf.sprintf "],\"sum\":%s,\"count\":%d"
                   (Jsonu.float_str h.sum) h.count));
          Buffer.add_string buf "}")
        (sorted_cells fam);
      Buffer.add_string buf "]}")
    (sorted_families t);
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf
