open Qos_core

let get r = Util.ok_exn ~ctx:"Apps" r

let reference_schema =
  let d id name lower upper = get (Attr.descriptor ~id ~name ~lower ~upper) in
  get
    (Attr.Schema.of_list
       [
         d 1 "bitwidth" 8 32;
         d 2 "processing-mode" 0 1;
         d 3 "output-mode" 0 2;
         d 4 "sample-rate" 8 48;
         d 5 "latency-class" 1 1000;
         d 6 "power-mw" 10 5000;
         d 7 "frame-rate" 5 60;
         d 8 "resolution-class" 1 16;
         d 9 "error-rate-class" 0 100;
       ])

let impl ~id ~target attrs = get (Impl.make ~id ~target attrs)

let ftype ~id ~name impls = get (Ftype.make ~id ~name impls)

let reference_casebase =
  get
    (Casebase.make ~name:"multimedia-automotive" ~schema:reference_schema
       [
         ftype ~id:1 ~name:"fir-equalizer"
           [
             impl ~id:1 ~target:Target.Fpga
               [ (1, 24); (2, 0); (3, 2); (4, 48); (5, 10); (6, 900) ];
             impl ~id:2 ~target:Target.Dsp
               [ (1, 16); (2, 0); (3, 1); (4, 44); (5, 40); (6, 400) ];
             impl ~id:3 ~target:Target.Gpp
               [ (1, 8); (2, 0); (3, 0); (4, 22); (5, 200); (6, 150) ];
           ];
         ftype ~id:2 ~name:"fft-1d"
           [
             impl ~id:1 ~target:Target.Fpga
               [ (1, 32); (2, 1); (4, 48); (5, 8); (6, 1200) ];
             impl ~id:2 ~target:Target.Dsp
               [ (1, 16); (2, 0); (4, 44); (5, 60); (6, 350) ];
             impl ~id:3 ~target:Target.Gpp
               [ (1, 16); (2, 1); (4, 22); (5, 400); (6, 180) ];
           ];
         ftype ~id:3 ~name:"mp3-decode"
           [
             impl ~id:1 ~target:Target.Fpga
               [ (1, 16); (2, 0); (3, 2); (4, 48); (5, 20); (6, 700) ];
             impl ~id:2 ~target:Target.Dsp
               [ (1, 16); (2, 0); (3, 1); (4, 44); (5, 80); (6, 300) ];
             impl ~id:3 ~target:Target.Gpp
               [ (1, 16); (2, 0); (3, 1); (4, 44); (5, 250); (6, 200) ];
           ];
         ftype ~id:4 ~name:"video-scaler"
           [
             impl ~id:1 ~target:Target.Fpga
               [ (1, 8); (5, 16); (6, 2200); (7, 60); (8, 16) ];
             impl ~id:2 ~target:Target.Dsp
               [ (1, 8); (5, 90); (6, 800); (7, 30); (8, 8) ];
             impl ~id:3 ~target:Target.Gpp
               [ (1, 8); (5, 300); (6, 400); (7, 15); (8, 4) ];
           ];
         ftype ~id:5 ~name:"ecu-control"
           [
             impl ~id:1 ~target:Target.Asic
               [ (1, 16); (5, 2); (6, 80); (9, 1) ];
             impl ~id:2 ~target:Target.Fpga
               [ (1, 16); (5, 5); (6, 250); (9, 2) ];
             impl ~id:3 ~target:Target.Gpp
               [ (1, 16); (5, 50); (6, 120); (9, 10) ];
           ];
         ftype ~id:6 ~name:"cruise-pid"
           [
             impl ~id:1 ~target:Target.Fpga
               [ (1, 16); (5, 5); (6, 200); (9, 2) ];
             impl ~id:2 ~target:Target.Dsp
               [ (1, 16); (5, 15); (6, 160); (9, 4) ];
             impl ~id:3 ~target:Target.Gpp
               [ (1, 16); (5, 40); (6, 100); (9, 8) ];
           ];
       ])

type template = {
  t_type_id : int;
  t_constraints : (Attr.id * Attr.value * int * float) list;
}

type arrival = Periodic | Poisson

type profile = {
  app_id : string;
  priority : int;
  arrival : arrival;
  period_us : float;
  hold_us : float * float;
  templates : template list;
}

let mp3_player =
  {
    app_id = "mp3-player";
    priority = 2;
    arrival = Periodic;
    period_us = 8_000.0;
    hold_us = (4_000.0, 12_000.0);
    templates =
      [
        {
          t_type_id = 3;
          t_constraints =
            [ (1, 16, 0, 1.0); (3, 1, 1, 1.0); (4, 44, 4, 1.0); (5, 100, 40, 0.5) ];
        };
        {
          t_type_id = 1;
          t_constraints = [ (1, 16, 4, 1.0); (3, 1, 1, 1.0); (4, 40, 4, 1.0) ];
        };
      ];
  }

let video_scaler =
  {
    app_id = "video";
    priority = 3;
    arrival = Poisson;
    period_us = 15_000.0;
    hold_us = (10_000.0, 30_000.0);
    templates =
      [
        {
          t_type_id = 4;
          t_constraints =
            [ (7, 30, 10, 1.0); (8, 8, 4, 1.0); (5, 50, 20, 0.8); (6, 1500, 400, 0.4) ];
        };
        {
          t_type_id = 2;
          t_constraints = [ (1, 16, 8, 1.0); (4, 44, 4, 1.0); (5, 50, 20, 0.6) ];
        };
      ];
  }

let automotive_ecu =
  {
    app_id = "ecu";
    priority = 5;
    arrival = Periodic;
    period_us = 2_000.0;
    hold_us = (2_500.0, 5_000.0);
    (* Control requests are fixed at design time: no jitter, so repeated
       calls share a bypass-token fingerprint (Sec. 3). *)
    templates =
      [
        {
          t_type_id = 5;
          t_constraints = [ (5, 5, 0, 1.5); (9, 2, 0, 1.5); (6, 150, 0, 0.5) ];
        };
      ];
  }

let cruise_control =
  {
    app_id = "cruise";
    priority = 4;
    arrival = Periodic;
    period_us = 5_000.0;
    hold_us = (6_000.0, 12_000.0);
    templates =
      [
        {
          t_type_id = 6;
          t_constraints = [ (5, 10, 0, 1.0); (6, 150, 0, 0.8); (9, 4, 0, 1.0) ];
        };
      ];
  }

let standard_apps = [ mp3_player; video_scaler; automotive_ecu; cruise_control ]

(* A template validated and quantised once: [base] is [Request.make] at
   the clamped nominal values, and each constraint keeps its nominal
   value, jitter and position in [base]'s ID order, all in template
   order, since the draws must come in the order the template lists
   its constraints.  [values] is the scratch a draw fills in ID order
   for [Request.with_values], which does not keep it. *)
type compiled = {
  base : Request.t;
  nominal : int array;
  jitter : int array;
  position : int array;
  jittered : bool;
  values : int array;
}

let clamp value = min (max value 0) Attr.max_word

let compile template =
  let cs = template.t_constraints in
  match
    Request.make ~type_id:template.t_type_id
      (List.map (fun (aid, value, _, weight) -> (aid, clamp value, weight)) cs)
  with
  | Error _ as e -> e
  | Ok base ->
      let ids =
        Array.of_list
          (List.map (fun (c : Request.constr) -> c.attr) base.constraints)
      in
      let rec index aid i = if ids.(i) = aid then i else index aid (i + 1) in
      let field f = Array.of_list (List.map f cs) in
      let jitter = field (fun (_, _, j, _) -> j) in
      Ok
        {
          base;
          nominal = field (fun (_, v, _, _) -> v);
          jitter;
          position = field (fun (aid, _, _, _) -> index aid 0);
          jittered = Array.exists (fun j -> j <> 0) jitter;
          values = Array.make (Array.length jitter) 0;
        }

(* Jitter in template order, then set the values in ID order.  A
   template with no jitter draws nothing and shares its base request. *)
let draw rng c =
  if not c.jittered then c.base
  else begin
    for i = 0 to Array.length c.nominal - 1 do
      let j = c.jitter.(i) in
      let v =
        if j = 0 then c.nominal.(i)
        else c.nominal.(i) + Workload.Prng.int_in rng ~lo:(-j) ~hi:j
      in
      c.values.(c.position.(i)) <- clamp v
    done;
    Request.with_values c.base c.values
  end

let instantiate rng template = draw rng (get (compile template))

let compile_templates profile =
  Array.of_list (List.map (fun t -> get (compile t)) profile.templates)

(* Pull-based arrival source for one profile, for [Workload.Stream]:
   the draw order matches the pregenerated expansion exactly —
   inter-arrival first (a Poisson profile draws here), then template
   instantiation — so a given rng yields the identical timestamped
   request sequence either way.  Returns [None] once the next arrival
   would land at or past [horizon]; the source is then exhausted for
   good and draws nothing further. *)
let arrival_source profile ~rng ~horizon =
  if profile.templates = [] then
    invalid_arg "Apps.arrival_source: profile has no templates";
  let templates = compile_templates profile in
  let cursor = ref 0 in
  let clock = ref 0.0 in
  let exhausted = ref false in
  fun () ->
    if !exhausted then None
    else begin
      let step =
        match profile.arrival with
        | Periodic -> profile.period_us
        | Poisson -> Workload.Prng.exponential rng ~mean:profile.period_us
      in
      let t = !clock +. step in
      if t >= horizon then begin
        exhausted := true;
        None
      end
      else begin
        clock := t;
        let template = templates.(!cursor) in
        cursor := (!cursor + 1) mod Array.length templates;
        Some (t, draw rng template)
      end
    end
