open Qos_core

type policy = {
  threshold : float;
  max_candidates : int;
  allow_preemption : bool;
  flash_read_us_per_word : float;
}

let default_policy =
  {
    threshold = 0.5;
    max_candidates = 4;
    allow_preemption = true;
    flash_read_us_per_word = 0.02;
  }

type task = {
  task_id : int;
  app_id : string;
  type_id : int;
  impl_id : int;
  device_id : string;
  units : int;
  priority : int;
  score : float;
  extent : Placement.extent option;
      (** Column extent on a fragmented (FPGA) device; [None] on
          counter-managed devices. *)
}

type grant = {
  task : task;
  preempted : task list;
  setup_time_us : float;
  retrieval_us : float;
  via_bypass : bool;
}

type offer = {
  offer_impl_id : int;
  offer_score : float;
  offer_target : Target.t;
}

type refusal =
  | Unknown_request of Retrieval.error
  | All_below_threshold of offer list
  | No_feasible of offer list

type failure_cause =
  | Flash_read_error
  | Bitstream_load_error
  | Load_deadline_exceeded

let failure_cause_to_string = function
  | Flash_read_error -> "flash-read-error"
  | Bitstream_load_error -> "bitstream-load-error"
  | Load_deadline_exceeded -> "load-deadline-exceeded"

type event =
  | Granted of grant
  | Refused of { app_id : string; type_id : int; refusal : refusal }
  | Preempted_task of task
  | Released_task of task
  | Reconfig_failed of { failed_task : task; cause : failure_cause; attempt : int }
  | Retried of { retried_task : task; attempt : int; backoff_us : float }
  | Relocated of { displaced : task; replacement : task; similarity_delta : float }
  | Device_failed of { device_id : string; permanent : bool; evicted : task list }
  | Device_restored of { device_id : string }
  | Scrubbed of { corrupted_words : int; diagnostics : int }

(* The event kinds in tally order. *)
let event_kinds =
  [
    "granted";
    "refused";
    "preempted";
    "released";
    "reconfig-failed";
    "retried";
    "relocated";
    "device-failed";
    "device-restored";
    "scrubbed";
  ]

let kind_index = function
  | Granted _ -> 0
  | Refused _ -> 1
  | Preempted_task _ -> 2
  | Released_task _ -> 3
  | Reconfig_failed _ -> 4
  | Retried _ -> 5
  | Relocated _ -> 6
  | Device_failed _ -> 7
  | Device_restored _ -> 8
  | Scrubbed _ -> 9

(* Pre-resolved histogram handles: the hot path pays one [option]
   match, never a registry lookup.  The event counters are not sampled
   here; {!publish} writes them from the tally once, at the end. *)
type instr = {
  ictx : Obs.Ctx.t;
  h_setup_us : Obs.Metrics.histogram;
  h_retrieval_us : Obs.Metrics.histogram;
}

let make_instr ictx =
  let reg = ictx.Obs.Ctx.registry in
  {
    ictx;
    h_setup_us =
      Obs.Metrics.histogram reg
        ~help:"Grant setup time (reconfiguration + repository read), us."
        ~buckets:Obs.Metrics.default_buckets "qosalloc_setup_time_us";
    h_retrieval_us =
      Obs.Metrics.histogram reg
        ~help:"Modelled hardware retrieval latency per grant, us."
        ~buckets:Obs.Metrics.default_buckets "qosalloc_retrieval_us";
  }

type t = {
  casebase : Casebase.t;
  devices : Device.t list;
  catalog : Catalog.t;
  policy : policy;
  instr : instr option;
  bypass : Bypass.t;
  column_maps : (string, Placement.t) Hashtbl.t;
      (** Present only when fragmentation modelling is on: one column
          map per FPGA-class device. *)
  placement_policy : Placement.policy option;
  retrieval_engine : Engine.t option;
      (** Built at {!create} when an engine factory is given; models
          the per-grant retrieval latency. *)
  mutable running : task list;
  mutable next_task_id : int;
  mutable rev_events : event list;
  tally : int array;  (** Events pushed so far, by [kind_index]. *)
  mutable bypass_grants : int;
  mutable scrubbed_words : int;
  mutable failed_devices : string list;
      (** Devices currently marked failed: excluded from placement
          until {!restore_device}. *)
}

let create ~casebase ~devices ~catalog ?(policy = default_policy)
    ?placement_policy ?obs ?retrieval_engine () =
  let column_maps = Hashtbl.create 4 in
  let engine =
    Option.bind retrieval_engine (fun factory ->
        Result.to_option (factory casebase))
  in
  (match placement_policy with
  | None -> ()
  | Some _ ->
      List.iter
        (fun (d : Device.t) ->
          match d.target with
          | Target.Fpga ->
              Hashtbl.replace column_maps d.device_id
                (Placement.create ~width:d.capacity)
          | Target.Dsp | Target.Gpp | Target.Asic | Target.Custom _ -> ())
        devices);
  {
    casebase;
    devices;
    catalog;
    policy;
    instr = Option.map make_instr obs;
    bypass = Bypass.create ();
    column_maps;
    placement_policy;
    retrieval_engine = engine;
    running = [];
    next_task_id = 1;
    rev_events = [];
    tally = Array.make (List.length event_kinds) 0;
    bypass_grants = 0;
    scrubbed_words = 0;
    failed_devices = [];
  }

let push_event t e =
  t.rev_events <- e :: t.rev_events;
  let k = kind_index e in
  t.tally.(k) <- t.tally.(k) + 1;
  match e with
  | Granted g -> (
      if g.via_bypass then t.bypass_grants <- t.bypass_grants + 1;
      match t.instr with
      | None -> ()
      | Some i ->
          Obs.Metrics.observe i.h_setup_us g.setup_time_us;
          Obs.Metrics.observe i.h_retrieval_us g.retrieval_us)
  | Scrubbed { corrupted_words; _ } ->
      t.scrubbed_words <- t.scrubbed_words + corrupted_words
  | Refused _ | Preempted_task _ | Released_task _ | Reconfig_failed _
  | Retried _ | Relocated _ | Device_failed _ | Device_restored _ ->
      ()

let event_counts t = List.mapi (fun k kind -> (kind, t.tally.(k))) event_kinds

let publish t =
  match t.instr with
  | None -> ()
  | Some i ->
      let count ?labels ~help name v =
        Obs.Metrics.inc_by
          (Obs.Metrics.counter i.ictx.Obs.Ctx.registry ?labels ~help name)
          v
      in
      List.iter
        (fun (kind, n) ->
          let label = String.map (function '-' -> '_' | c -> c) kind in
          count ~help:"Allocation events by kind."
            ~labels:[ ("event", label) ]
            "qosalloc_alloc_events_total" n)
        (event_counts t);
      count ~help:"Grants served from the bypass cache."
        "qosalloc_alloc_bypass_grants_total" t.bypass_grants;
      count ~help:"Corrupted configuration words repaired by scrubbing."
        "qosalloc_scrub_corrupted_words_total" t.scrubbed_words

let obs t = Option.map (fun i -> i.ictx) t.instr

let tasks t = t.running

let used_units t device_id =
  List.fold_left
    (fun acc task ->
      if String.equal task.device_id device_id then acc + task.units else acc)
    0 t.running

let free_units t ~device_id =
  List.find_opt
    (fun (d : Device.t) -> String.equal d.device_id device_id)
    t.devices
  |> Option.map (fun (d : Device.t) -> d.capacity - used_units t d.device_id)

let offer_of (r : Engine_float.ranked) =
  {
    offer_impl_id = r.Retrieval.impl.Impl.id;
    offer_score = r.Retrieval.score;
    offer_target = r.Retrieval.impl.Impl.target;
  }

let device_available t ~device_id =
  List.exists
    (fun (d : Device.t) -> String.equal d.device_id device_id)
    t.devices
  && not (List.mem device_id t.failed_devices)

(* Healthy devices able to host the variant, most free space first. *)
let matching_devices t (target : Target.t) =
  t.devices
  |> List.filter (fun (d : Device.t) ->
         Target.equal d.target target
         && device_available t ~device_id:d.device_id)
  |> List.map (fun (d : Device.t) ->
         (d, d.capacity - used_units t d.device_id))
  |> List.sort (fun (_, a) (_, b) -> Int.compare b a)

let setup_time t (device : Device.t) units config_words =
  (device.reconfig_us_per_unit *. float_of_int units)
  +. (t.policy.flash_read_us_per_word *. float_of_int config_words)

let column_map t device_id = Hashtbl.find_opt t.column_maps device_id

(* Reserve capacity on a device: a contiguous column extent on
   fragmented FPGAs, a simple counter check elsewhere (the caller has
   already verified counter capacity). *)
let reserve t device_id ~units =
  match column_map t device_id with
  | None -> Some None
  | Some map -> (
      match t.placement_policy with
      | None -> Some None
      | Some policy -> (
          match Placement.place map policy ~length:units with
          | Ok extent -> Some (Some extent)
          | Error _ -> None))

let unreserve t task =
  match (column_map t task.device_id, task.extent) with
  | Some map, Some extent -> ignore (Placement.release map extent)
  | _, _ -> ()

(* Does the device have room for [units], honouring fragmentation? *)
let device_fits t device_id ~free ~units =
  if free < units then false
  else
    match column_map t device_id with
    | None -> true
    | Some map -> Placement.would_fit map ~length:units

let place t ~app_id ~priority ~type_id ~impl_id ~device_id ~units ~score
    ~extent =
  let task =
    {
      task_id = t.next_task_id;
      app_id;
      type_id;
      impl_id;
      device_id;
      units;
      priority;
      score;
      extent;
    }
  in
  t.next_task_id <- t.next_task_id + 1;
  t.running <- task :: t.running;
  task

let remove_tasks t victims =
  let victim_ids = List.map (fun v -> v.task_id) victims in
  List.iter (unreserve t) victims;
  t.running <-
    List.filter (fun task -> not (List.mem task.task_id victim_ids)) t.running

let resident_instance t ~app_id ~type_id ~impl_id =
  List.find_opt
    (fun task ->
      String.equal task.app_id app_id
      && task.type_id = type_id && task.impl_id = impl_id)
    t.running

(* Try to host one candidate, first in free space, then by preemption. *)
let try_host t ~app_id ~priority ~type_id (r : Engine_float.ranked) =
  let impl = r.Retrieval.impl in
  match Catalog.find t.catalog ~type_id ~impl_id:impl.Impl.id with
  | None -> None
  | Some req ->
      let devices = matching_devices t impl.Impl.target in
      let units = req.Catalog.units in
      let grant_on device victims extent =
        let task =
          place t ~app_id ~priority ~type_id ~impl_id:impl.Impl.id
            ~device_id:device.Device.device_id ~units ~score:r.Retrieval.score
            ~extent
        in
        Some
          {
            task;
            preempted = victims;
            setup_time_us = setup_time t device units req.Catalog.config_words;
            retrieval_us = 0.0;
            via_bypass = false;
          }
      in
      let rec free_fit = function
        | [] -> None
        | (device, free) :: rest ->
            if device_fits t device.Device.device_id ~free ~units then
              match reserve t device.Device.device_id ~units with
              | Some extent -> grant_on device [] extent
              | None -> free_fit rest
            else free_fit rest
      in
      let with_preemption () =
        if not t.policy.allow_preemption then None
        else
          let rec try_devices = function
            | [] -> None
            | (device, free) :: rest -> (
                let device_id = device.Device.device_id in
                (* On fragmented devices eviction by unit count is not
                   enough: evict cheapest-first until a contiguous gap
                   appears. *)
                let enough_after victims =
                  match column_map t device_id with
                  | None ->
                      free
                      + List.fold_left (fun acc v -> acc + v.units) 0 victims
                      >= units
                  | Some map ->
                      (* Tentatively free the victims' extents. *)
                      let freed =
                        List.filter_map
                          (fun v ->
                            match v.extent with
                            | Some e when Placement.release map e = Ok () ->
                                Some e
                            | Some _ | None -> None)
                          victims
                      in
                      let fits = Placement.would_fit map ~length:units in
                      (* Roll the tentative frees back; the real
                         eviction happens in remove_tasks. *)
                      List.iter (fun e -> ignore (Placement.place_at map e)) freed;
                      fits
                in
                let candidates =
                  t.running
                  |> List.filter (fun task ->
                         String.equal task.device_id device_id
                         && task.priority < priority)
                  |> List.sort (fun a b ->
                         match Int.compare a.priority b.priority with
                         | 0 -> Int.compare a.units b.units
                         | c -> c)
                in
                let rec grow chosen = function
                  | [] -> None
                  | v :: rest ->
                      let chosen = chosen @ [ v ] in
                      if enough_after chosen then Some chosen
                      else grow chosen rest
                in
                let victims =
                  if enough_after [] then Some [] else grow [] candidates
                in
                match victims with
                | None -> try_devices rest
                | Some victims -> (
                    remove_tasks t victims;
                    List.iter
                      (fun v ->
                        ignore
                          (Bypass.invalidate_impl t.bypass ~type_id:v.type_id
                             ~impl_id:v.impl_id);
                        push_event t (Preempted_task v))
                      victims;
                    match reserve t device_id ~units with
                    | Some extent -> grant_on device victims extent
                    | None ->
                        (* Should not happen: enough_after verified the
                           gap.  Fail this device rather than crash. *)
                        try_devices rest))
          in
          try_devices devices
      in
      (match free_fit devices with
      | Some grant -> Some grant
      | None -> with_preemption ())

let allocate_impl t ~app_id ~priority (request : Request.t) =
  let key = Bypass.key_of ~app_id request in
  let bypass_grant =
    match Bypass.lookup t.bypass key with
    | None -> None
    | Some impl_id -> (
        match
          resident_instance t ~app_id ~type_id:request.type_id ~impl_id
        with
        | Some task ->
            Some
              {
                task;
                preempted = [];
                setup_time_us = 0.0;
                retrieval_us = 0.0;
                via_bypass = true;
              }
        | None -> None)
  in
  match bypass_grant with
  | Some grant ->
      push_event t (Granted grant);
      Ok grant
  | None -> (
      (* The retrieval itself costs time on the hardware unit; model it
         once per (non-bypass) request when an engine is given. *)
      let retrieval_us =
        match t.retrieval_engine with
        | Some eng -> (
            match eng.Engine.retrieve request with
            | Ok { Engine.cycles = Some c; _ } ->
                float_of_int c /. Engine.clock_mhz
            | Ok _ | Error _ -> 0.0)
        | None -> 0.0
      in
      (match t.instr with
      | Some i when retrieval_us > 0.0 ->
          Obs.Tracer.complete i.ictx.Obs.Ctx.tracer ~ts:(Obs.Ctx.now i.ictx)
            ~dur:retrieval_us ~args:[ ("app", app_id) ] "retrieval"
      | _ -> ());
      match
        Engine_float.n_best ~n:t.policy.max_candidates t.casebase request
      with
      | Error e ->
          let refusal = Unknown_request e in
          push_event t (Refused { app_id; type_id = request.type_id; refusal });
          Error refusal
      | Ok ranked -> (
          let acceptable, rejected =
            List.partition
              (fun (r : Engine_float.ranked) ->
                r.Retrieval.score >= t.policy.threshold)
              ranked
          in
          match acceptable with
          | [] ->
              let refusal = All_below_threshold (List.map offer_of rejected) in
              push_event t
                (Refused { app_id; type_id = request.type_id; refusal });
              Error refusal
          | _ -> (
              let rec attempt = function
                | [] ->
                    let refusal =
                      No_feasible (List.map offer_of acceptable)
                    in
                    push_event t
                      (Refused { app_id; type_id = request.type_id; refusal });
                    Error refusal
                | candidate :: rest -> (
                    match
                      try_host t ~app_id ~priority ~type_id:request.type_id
                        candidate
                    with
                    | Some grant ->
                        let grant =
                          {
                            grant with
                            retrieval_us;
                            setup_time_us = grant.setup_time_us +. retrieval_us;
                          }
                        in
                        Bypass.remember t.bypass key
                          ~impl_id:grant.task.impl_id;
                        push_event t (Granted grant);
                        Ok grant
                    | None -> attempt rest)
              in
              match t.instr with
              | None -> attempt acceptable
              | Some i ->
                  let tr = i.ictx.Obs.Ctx.tracer in
                  let sp =
                    Obs.Tracer.begin_span tr ~ts:(Obs.Ctx.now i.ictx)
                      ~args:[ ("app", app_id) ] "placement"
                  in
                  let result = attempt acceptable in
                  Obs.Tracer.end_span tr ~ts:(Obs.Ctx.now i.ictx) sp;
                  result)))

let allocate t ~app_id ?(priority = 0) (request : Request.t) =
  match t.instr with
  | None -> allocate_impl t ~app_id ~priority request
  | Some i ->
      let tr = i.ictx.Obs.Ctx.tracer in
      let sp =
        Obs.Tracer.begin_span tr ~ts:(Obs.Ctx.now i.ictx)
          ~args:[ ("app", app_id); ("type", string_of_int request.type_id) ]
          "allocate"
      in
      let result = allocate_impl t ~app_id ~priority request in
      (match result with
      | Ok g when (not g.via_bypass) && g.setup_time_us -. g.retrieval_us > 0.0
        ->
          Obs.Tracer.complete tr ~ts:(Obs.Ctx.now i.ictx)
            ~dur:(g.setup_time_us -. g.retrieval_us)
            ~args:[ ("device", g.task.device_id) ]
            "reconfigure"
      | _ -> ());
      Obs.Tracer.end_span tr ~ts:(Obs.Ctx.now i.ictx) sp;
      result

let release t ~task_id =
  match List.find_opt (fun task -> task.task_id = task_id) t.running with
  | None -> Error (Printf.sprintf "no running task %d" task_id)
  | Some task ->
      unreserve t task;
      t.running <- List.filter (fun x -> x.task_id <> task_id) t.running;
      let still_resident =
        List.exists
          (fun x -> x.type_id = task.type_id && x.impl_id = task.impl_id)
          t.running
      in
      if not still_resident then
        ignore
          (Bypass.invalidate_impl t.bypass ~type_id:task.type_id
             ~impl_id:task.impl_id);
      push_event t (Released_task task);
      Ok task

let release_app t ~app_id =
  let mine, _ =
    List.partition (fun task -> String.equal task.app_id app_id) t.running
  in
  List.iter (fun task -> ignore (release t ~task_id:task.task_id)) mine;
  List.length mine

let fail_device t ~device_id ~permanent =
  if
    not
      (List.exists
         (fun (d : Device.t) -> String.equal d.device_id device_id)
         t.devices)
  then Error (Printf.sprintf "no device %s" device_id)
  else if not (device_available t ~device_id) then
    (* Already down: idempotent, nothing new to evict. *)
    Ok []
  else begin
    let evicted, _ =
      List.partition
        (fun task -> String.equal task.device_id device_id)
        t.running
    in
    remove_tasks t evicted;
    List.iter
      (fun v ->
        ignore
          (Bypass.invalidate_impl t.bypass ~type_id:v.type_id
             ~impl_id:v.impl_id))
      evicted;
    t.failed_devices <- device_id :: t.failed_devices;
    push_event t (Device_failed { device_id; permanent; evicted });
    Ok evicted
  end

let restore_device t ~device_id =
  if device_available t ~device_id then false
  else begin
    t.failed_devices <-
      List.filter (fun d -> not (String.equal d device_id)) t.failed_devices;
    push_event t (Device_restored { device_id });
    true
  end

let relocate t ~task:displaced (request : Request.t) =
  match
    allocate t ~app_id:displaced.app_id ~priority:displaced.priority request
  with
  | Error refusal -> Error refusal
  | Ok grant ->
      let similarity_delta = displaced.score -. grant.task.score in
      push_event t (Relocated { displaced; replacement = grant.task; similarity_delta });
      Ok (grant, similarity_delta)

let record_reconfig_failure t ~task ~cause ~attempt =
  push_event t (Reconfig_failed { failed_task = task; cause; attempt })

let record_retry t ~task ~attempt ~backoff_us =
  push_event t (Retried { retried_task = task; attempt; backoff_us })

let record_scrub t ~corrupted_words ~diagnostics =
  push_event t (Scrubbed { corrupted_words; diagnostics })

let fragmentation t ~device_id =
  Option.map Placement.fragmentation (column_map t device_id)

let largest_gap t ~device_id =
  Option.map Placement.largest_gap (column_map t device_id)

let bypass_stats t = Bypass.stats t.bypass

let drain_events t =
  let events = List.rev t.rev_events in
  t.rev_events <- [];
  events

let refusal_to_string = function
  | Unknown_request e -> "unknown request: " ^ Retrieval.error_to_string e
  | All_below_threshold offers ->
      Printf.sprintf "all %d variants below threshold" (List.length offers)
  | No_feasible offers ->
      Printf.sprintf "no feasible placement among %d acceptable variants"
        (List.length offers)

let pp_task ppf task =
  Format.fprintf ppf "task %d: app=%s type=%d impl=%d on %s (%d units, prio %d, s=%.3f)"
    task.task_id task.app_id task.type_id task.impl_id task.device_id
    task.units task.priority task.score

let pp_grant ppf g =
  Format.fprintf ppf "%a%s setup=%.1fus preempted=%d" pp_task g.task
    (if g.via_bypass then " [bypass]" else "")
    g.setup_time_us
    (List.length g.preempted)
