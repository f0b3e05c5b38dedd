open Qos_core

type policy = {
  threshold : float;
  max_candidates : int;
  allow_preemption : bool;
  flash_read_us_per_word : float;
  retrieval_clock_mhz : float option;
}

let default_policy =
  {
    threshold = 0.5;
    max_candidates = 4;
    allow_preemption = true;
    flash_read_us_per_word = 0.02;
    retrieval_clock_mhz = None;
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

(* Pre-resolved metric handles: the hot path pays one [option] match,
   never a registry lookup.  Event counters are fed from {!push_event},
   so the metrics view is exactly the event stream aggregated. *)
type instr = {
  ictx : Obs.Ctx.t;
  c_granted : Obs.Metrics.counter;
  c_bypass : Obs.Metrics.counter;
  c_refused : Obs.Metrics.counter;
  c_preempted : Obs.Metrics.counter;
  c_released : Obs.Metrics.counter;
  c_reconfig_failed : Obs.Metrics.counter;
  c_retried : Obs.Metrics.counter;
  c_relocated : Obs.Metrics.counter;
  c_device_failed : Obs.Metrics.counter;
  c_device_restored : Obs.Metrics.counter;
  c_scrubbed : Obs.Metrics.counter;
  c_scrub_words : Obs.Metrics.counter;
  h_setup_us : Obs.Metrics.histogram;
  h_retrieval_us : Obs.Metrics.histogram;
}

let make_instr ictx =
  let reg = ictx.Obs.Ctx.registry in
  let ev name =
    Obs.Metrics.counter reg ~help:"Allocation events by kind."
      ~labels:[ ("event", name) ]
      "qosalloc_alloc_events_total"
  in
  {
    ictx;
    c_granted = ev "granted";
    c_bypass =
      Obs.Metrics.counter reg ~help:"Grants served from the bypass cache."
        "qosalloc_alloc_bypass_grants_total";
    c_refused = ev "refused";
    c_preempted = ev "preempted";
    c_released = ev "released";
    c_reconfig_failed = ev "reconfig_failed";
    c_retried = ev "retried";
    c_relocated = ev "relocated";
    c_device_failed = ev "device_failed";
    c_device_restored = ev "device_restored";
    c_scrubbed = ev "scrubbed";
    c_scrub_words =
      Obs.Metrics.counter reg
        ~help:"Corrupted configuration words repaired by scrubbing."
        "qosalloc_scrub_corrupted_words_total";
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
  device_table : Device.t array;  (** [devices] by position. *)
  order : int array;
  order_free : int array;
      (** Scratch for {!matching_devices}: candidate device positions
          and their free units, most free first. *)
  catalog : Catalog.t;
  policy : policy;
  instr : instr option;
  bypass : Bypass.t;
  column_maps : (string, Placement.t) Hashtbl.t;
      (** Present only when fragmentation modelling is on: one column
          map per FPGA-class device. *)
  placement_policy : Placement.policy option;
  retrieval_engine : Engine.t option;
      (** Built at {!create} when a retrieval clock is configured;
          models the per-grant retrieval latency. *)
  mutable running : task list;
  mutable next_task_id : int;
  mutable rev_events : event list;
  mutable failed_devices : string list;
      (** Devices currently marked failed: excluded from placement
          until {!restore_device}. *)
}

let create ~casebase ~devices ~catalog ?(policy = default_policy)
    ?placement_policy ?obs ?(retrieval_engine = Rtlsim.Engine.factory) () =
  let column_maps = Hashtbl.create 4 in
  (* Only instantiate the engine when its latency model is consulted. *)
  let engine =
    match policy.retrieval_clock_mhz with
    | None -> None
    | Some _ -> Result.to_option (retrieval_engine casebase)
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
  let device_table = Array.of_list devices in
  {
    casebase;
    devices;
    device_table;
    order = Array.make (Array.length device_table) 0;
    order_free = Array.make (Array.length device_table) 0;
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
    failed_devices = [];
  }

let count_event i = function
  | Granted g ->
      Obs.Metrics.inc i.c_granted;
      if g.via_bypass then Obs.Metrics.inc i.c_bypass;
      Obs.Metrics.observe i.h_setup_us g.setup_time_us;
      Obs.Metrics.observe i.h_retrieval_us g.retrieval_us
  | Refused _ -> Obs.Metrics.inc i.c_refused
  | Preempted_task _ -> Obs.Metrics.inc i.c_preempted
  | Released_task _ -> Obs.Metrics.inc i.c_released
  | Reconfig_failed _ -> Obs.Metrics.inc i.c_reconfig_failed
  | Retried _ -> Obs.Metrics.inc i.c_retried
  | Relocated _ -> Obs.Metrics.inc i.c_relocated
  | Device_failed _ -> Obs.Metrics.inc i.c_device_failed
  | Device_restored _ -> Obs.Metrics.inc i.c_device_restored
  | Scrubbed { corrupted_words; _ } ->
      Obs.Metrics.inc i.c_scrubbed;
      Obs.Metrics.inc_by i.c_scrub_words corrupted_words

let push_event t e =
  t.rev_events <- e :: t.rev_events;
  match t.instr with None -> () | Some i -> count_event i e

let obs t = Option.map (fun i -> i.ictx) t.instr

let tasks t = t.running

let rec units_on device_id acc = function
  | [] -> acc
  | task :: rest ->
      units_on device_id
        (if String.equal task.device_id device_id then acc + task.units
         else acc)
        rest

let used_units t ~device_id = units_on device_id 0 t.running

let free_units t ~device_id =
  List.find_opt
    (fun (d : Device.t) -> String.equal d.device_id device_id)
    t.devices
  |> Option.map (fun (d : Device.t) ->
         d.capacity - used_units t ~device_id:d.device_id)

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

(* Healthy devices able to host the variant, most free space first
   (ties in [devices] order): fills [t.order] with their positions and
   [t.order_free] with their free units, and returns how many. *)
let matching_devices t (target : Target.t) =
  let n = ref 0 in
  for i = 0 to Array.length t.device_table - 1 do
    let d = t.device_table.(i) in
    if
      Target.equal d.target target
      && not (List.mem d.device_id t.failed_devices)
    then begin
      let free = d.capacity - used_units t ~device_id:d.device_id in
      let j = ref !n in
      while !j > 0 && t.order_free.(!j - 1) < free do
        t.order.(!j) <- t.order.(!j - 1);
        t.order_free.(!j) <- t.order_free.(!j - 1);
        decr j
      done;
      t.order.(!j) <- i;
      t.order_free.(!j) <- free;
      incr n
    end
  done;
  !n

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

let rec resident_instance ~app_id ~type_id ~impl_id = function
  | [] -> None
  | task :: rest ->
      if
        String.equal task.app_id app_id
        && task.type_id = type_id && task.impl_id = impl_id
      then Some task
      else resident_instance ~app_id ~type_id ~impl_id rest

let grant_on t ~app_id ~priority ~type_id ~retrieval_us (r : Engine_float.ranked)
    (req : Catalog.requirement) (device : Device.t) victims extent =
  let task =
    place t ~app_id ~priority ~type_id ~impl_id:r.Retrieval.impl.Impl.id
      ~device_id:device.device_id ~units:req.units ~score:r.Retrieval.score
      ~extent
  in
  {
    task;
    preempted = victims;
    setup_time_us =
      setup_time t device req.units req.config_words +. retrieval_us;
    retrieval_us;
    via_bypass = false;
  }

(* The [i]-th to [n]-th matching devices, tried in free space. *)
let rec free_fit t ~app_id ~priority ~type_id ~retrieval_us r
    (req : Catalog.requirement) i n =
  if i >= n then None
  else
    let device = t.device_table.(t.order.(i)) in
    let reserved =
      if device_fits t device.device_id ~free:t.order_free.(i) ~units:req.units
      then reserve t device.device_id ~units:req.units
      else None
    in
    match reserved with
    | Some extent ->
        Some
          (grant_on t ~app_id ~priority ~type_id ~retrieval_us r req device []
             extent)
    | None -> free_fit t ~app_id ~priority ~type_id ~retrieval_us r req (i + 1) n

(* Strictly lower-priority tasks to evict from the device, cheapest
   first, until [units] fit; [None] when evicting all of them is not
   enough. *)
let victims_for t device_id ~free ~units ~priority =
  (* On fragmented devices eviction by unit count is not enough: evict
     cheapest-first until a contiguous gap appears. *)
  let enough_after victims =
    match column_map t device_id with
    | None -> free + List.fold_left (fun acc v -> acc + v.units) 0 victims >= units
    | Some map ->
        (* Tentatively free the victims' extents. *)
        let freed =
          List.filter_map
            (fun v ->
              match v.extent with
              | Some e when Placement.release map e = Ok () -> Some e
              | Some _ | None -> None)
            victims
        in
        let fits = Placement.would_fit map ~length:units in
        (* Roll the tentative frees back; the real eviction happens in
           remove_tasks. *)
        List.iter (fun e -> ignore (Placement.place_at map e)) freed;
        fits
  in
  let candidates =
    t.running
    |> List.filter (fun task ->
           String.equal task.device_id device_id && task.priority < priority)
    |> List.sort (fun a b ->
           match Int.compare a.priority b.priority with
           | 0 -> Int.compare a.units b.units
           | c -> c)
  in
  let rec grow chosen = function
    | [] -> None
    | v :: rest ->
        let chosen = chosen @ [ v ] in
        if enough_after chosen then Some chosen else grow chosen rest
  in
  if enough_after [] then Some [] else grow [] candidates

(* The [i]-th to [n]-th matching devices, tried by preemption. *)
let rec preempt_fit t ~app_id ~priority ~type_id ~retrieval_us r
    (req : Catalog.requirement) i n =
  if i >= n then None
  else
    let device = t.device_table.(t.order.(i)) in
    let granted =
      match
        victims_for t device.device_id ~free:t.order_free.(i) ~units:req.units
          ~priority
      with
      | None -> None
      | Some victims -> (
          remove_tasks t victims;
          List.iter
            (fun v ->
              ignore
                (Bypass.invalidate_impl t.bypass ~type_id:v.type_id
                   ~impl_id:v.impl_id);
              push_event t (Preempted_task v))
            victims;
          match reserve t device.device_id ~units:req.units with
          | Some extent ->
              Some
                (grant_on t ~app_id ~priority ~type_id ~retrieval_us r req
                   device victims extent)
          | None ->
              (* Should not happen: victims_for verified the gap.  Fail
                 this device rather than crash. *)
              None)
    in
    match granted with
    | Some _ -> granted
    | None ->
        preempt_fit t ~app_id ~priority ~type_id ~retrieval_us r req (i + 1) n

(* Try to host one candidate, first in free space, then by preemption;
   the grant's setup time includes [retrieval_us]. *)
let try_host t ~app_id ~priority ~type_id ~retrieval_us
    (r : Engine_float.ranked) =
  match Catalog.find t.catalog ~type_id ~impl_id:r.Retrieval.impl.Impl.id with
  | None -> None
  | Some req -> (
      let n = matching_devices t r.Retrieval.impl.Impl.target in
      match free_fit t ~app_id ~priority ~type_id ~retrieval_us r req 0 n with
      | Some _ as grant -> grant
      | None ->
          if t.policy.allow_preemption then
            preempt_fit t ~app_id ~priority ~type_id ~retrieval_us r req 0 n
          else None)

(* The acceptable candidates, best first, until one is hosted; ranked
   lists are sorted, so those at or above the threshold are a prefix. *)
let rec attempt t ~app_id ~priority ~type_id ~retrieval_us = function
  | (r : Engine_float.ranked) :: rest when r.score >= t.policy.threshold -> (
      match try_host t ~app_id ~priority ~type_id ~retrieval_us r with
      | Some _ as grant -> grant
      | None -> attempt t ~app_id ~priority ~type_id ~retrieval_us rest)
  | _ -> None

let refuse t ~app_id ~type_id refusal =
  push_event t (Refused { app_id; type_id; refusal });
  Error refusal

let allocate_impl t ~app_id ~priority (request : Request.t) =
  let key = Bypass.key_of ~app_id request in
  let bypass_grant =
    match Bypass.lookup t.bypass key with
    | None -> None
    | Some impl_id -> (
        match
          resident_instance ~app_id ~type_id:request.type_id ~impl_id
            t.running
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
         once per (non-bypass) request when a clock is configured. *)
      let retrieval_us =
        match (t.policy.retrieval_clock_mhz, t.retrieval_engine) with
        | Some mhz, Some eng -> (
            match eng.Engine.retrieve request with
            | Ok { Engine.cycles = Some c; _ } -> float_of_int c /. mhz
            | Ok _ | Error _ -> 0.0)
        | _ -> 0.0
      in
      (match t.instr with
      | Some i when retrieval_us > 0.0 ->
          Obs.Tracer.complete i.ictx.Obs.Ctx.tracer ~ts:(Obs.Ctx.now i.ictx)
            ~dur:retrieval_us ~args:[ ("app", app_id) ] "retrieval"
      | _ -> ());
      match
        Engine_float.n_best ~n:t.policy.max_candidates t.casebase request
      with
      | Error e -> refuse t ~app_id ~type_id:request.type_id (Unknown_request e)
      | Ok ranked -> (
          let type_id = request.type_id in
          match ranked with
          | [] -> refuse t ~app_id ~type_id (All_below_threshold [])
          | top :: _ when not (top.Retrieval.score >= t.policy.threshold) ->
              refuse t ~app_id ~type_id
                (All_below_threshold (List.map offer_of ranked))
          | _ -> (
              let result =
                match t.instr with
                | None ->
                    attempt t ~app_id ~priority ~type_id ~retrieval_us ranked
                | Some i ->
                    let tr = i.ictx.Obs.Ctx.tracer in
                    let sp =
                      Obs.Tracer.begin_span tr ~ts:(Obs.Ctx.now i.ictx)
                        ~args:[ ("app", app_id) ] "placement"
                    in
                    let result =
                      attempt t ~app_id ~priority ~type_id ~retrieval_us ranked
                    in
                    Obs.Tracer.end_span tr ~ts:(Obs.Ctx.now i.ictx) sp;
                    result
              in
              match result with
              | Some grant ->
                  Bypass.remember t.bypass key ~impl_id:grant.task.impl_id;
                  push_event t (Granted grant);
                  Ok grant
              | None ->
                  let acceptable =
                    List.filter
                      (fun (r : Engine_float.ranked) ->
                        r.Retrieval.score >= t.policy.threshold)
                      ranked
                  in
                  refuse t ~app_id ~type_id
                    (No_feasible (List.map offer_of acceptable)))))

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

let rec find_task task_id = function
  | [] -> None
  | task :: rest -> if task.task_id = task_id then Some task else find_task task_id rest

let rec without_task task_id = function
  | [] -> []
  | task :: rest ->
      if task.task_id = task_id then rest else task :: without_task task_id rest

let rec hosts_variant ~type_id ~impl_id = function
  | [] -> false
  | task :: rest ->
      (task.type_id = type_id && task.impl_id = impl_id)
      || hosts_variant ~type_id ~impl_id rest

let release t ~task_id =
  match find_task task_id t.running with
  | None -> Error (Printf.sprintf "no running task %d" task_id)
  | Some task ->
      unreserve t task;
      t.running <- without_task task_id t.running;
      if not (hosts_variant ~type_id:task.type_id ~impl_id:task.impl_id t.running)
      then
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
