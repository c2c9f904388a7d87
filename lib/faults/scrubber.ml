type t = {
  golden : int array;
  live : int array;
  req_mem : int array;
  supplemental_base : int;
  golden_checksum : int;
}

let create casebase request =
  match Memlayout.encode_cb casebase with
  | Error e -> Error e
  | Ok image ->
      let golden = Array.copy image.Memlayout.cb_words in
      Ok
        {
          golden;
          live = Array.copy golden;
          req_mem = Memlayout.encode_request request;
          supplemental_base = image.Memlayout.cb_supplemental_base;
          golden_checksum = Qos_core.Util.fletcher16 golden;
        }

let live t = t.live

let corrupted_words t =
  let n = ref 0 in
  Array.iteri (fun i w -> if w <> t.golden.(i) then incr n) t.live;
  !n

let clean t = corrupted_words t = 0

let checksum_matches t =
  Qos_core.Util.fletcher16 t.live = t.golden_checksum

let diagnose t =
  Analysis.Image_check.check_raw ~cb_mem:t.live ~req_mem:t.req_mem
    ~supplemental_base:t.supplemental_base
  |> Analysis.Diagnostic.errors

let repair t =
  let rewritten = corrupted_words t in
  Array.blit t.golden 0 t.live 0 (Array.length t.golden);
  rewritten
