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

let clamp_word v = Int.min (Int.max v 0) Attr.max_word

(* A template compiled for repeated draws.  [c_base] is the request at
   the (clamped) nominal values, validated once by [Request.make]; the
   arrays are in template order, which is the order the jitters are
   drawn in, and [c_pos] maps each constraint to its position in the
   request's attribute-sorted list. *)
type compiled = {
  c_base : Request.t;
  c_pos : int array;
  c_nominal : int array;
  c_jitter : int array;
  c_fixed : bool;  (* no jitter anywhere: every draw is [c_base] *)
}

let compile template =
  let constraints = Array.of_list template.t_constraints in
  let base =
    get
      (Request.make ~type_id:template.t_type_id
         (List.map
            (fun (aid, value, _, weight) -> (aid, clamp_word value, weight))
            template.t_constraints))
  in
  let sorted = Array.of_list base.Request.constraints in
  let position aid =
    let rec find i = if sorted.(i).Request.attr = aid then i else find (i + 1) in
    find 0
  in
  {
    c_base = base;
    c_pos = Array.map (fun (aid, _, _, _) -> position aid) constraints;
    c_nominal = Array.map (fun (_, value, _, _) -> value) constraints;
    c_jitter = Array.map (fun (_, _, jitter, _) -> jitter) constraints;
    c_fixed = Array.for_all (fun (_, _, jitter, _) -> jitter = 0) constraints;
  }

(* Jitter in template order, clamp to the word range, then stamp the
   values into the validated shape. *)
let draw rng c =
  if c.c_fixed then c.c_base
  else begin
    let values = Array.make (Array.length c.c_pos) 0 in
    for k = 0 to Array.length c.c_pos - 1 do
      let jitter = c.c_jitter.(k) in
      let value =
        if jitter = 0 then c.c_nominal.(k)
        else c.c_nominal.(k) + Workload.Prng.int_in rng ~lo:(-jitter) ~hi:jitter
      in
      values.(c.c_pos.(k)) <- clamp_word value
    done;
    Request.replace_values c.c_base values
  end

type cycle = { compiled : compiled array; mutable cursor : int }

let cycle profile =
  { compiled = Array.of_list (List.map compile profile.templates); cursor = 0 }

let next rng cy =
  let count = Array.length cy.compiled in
  if count = 0 then invalid_arg "Apps.next: profile has no templates";
  let c = cy.compiled.(cy.cursor) in
  cy.cursor <- (cy.cursor + 1) mod count;
  draw rng c

let inter_arrival profile rng =
  match profile.arrival with
  | Periodic -> profile.period_us
  | Poisson -> Workload.Prng.exponential rng ~mean:profile.period_us

let hold_time profile rng =
  let lo, hi = profile.hold_us in
  lo +. ((hi -. lo) *. Workload.Prng.float rng)

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
  let templates = cycle profile in
  let clock = ref 0.0 in
  let exhausted = ref false in
  fun () ->
    if !exhausted then None
    else begin
      let t = !clock +. inter_arrival profile rng in
      if t >= horizon then begin
        exhausted := true;
        None
      end
      else begin
        clock := t;
        Some (t, next rng templates)
      end
    end
