open Qos_core
module Manager = Allocator.Manager
module Negotiation = Allocator.Negotiation
module Engine = Desim.Engine
module Apps = Desim.Apps
module Simulate = Desim.Simulate

type device_fault = {
  df_device_id : string;
  df_at_us : float;
  df_kind : [ `Transient of float | `Permanent ];
}

type retry_policy = {
  max_retries : int;
  backoff_base_us : float;
  backoff_factor : float;
  backoff_cap_us : float;
  backoff_jitter : float;
}

let default_retry =
  {
    max_retries = 3;
    backoff_base_us = Backoff.default.Backoff.base_us;
    backoff_factor = Backoff.default.Backoff.factor;
    backoff_cap_us = Backoff.default.Backoff.cap_us;
    backoff_jitter = Backoff.default.Backoff.jitter;
  }

let backoff_policy retry =
  {
    Backoff.base_us = retry.backoff_base_us;
    factor = retry.backoff_factor;
    cap_us = retry.backoff_cap_us;
    jitter = retry.backoff_jitter;
  }

type spec = {
  base : Simulate.spec;
  seu_mean_interval_us : float option;
  scrub_period_us : float option;
  reconfig_fail_prob : float;
  flash_error_prob : float;
  load_deadline_us : float option;
  retry : retry_policy;
  device_faults : device_fault list;
}

let default_spec () =
  {
    base = Simulate.default_spec ();
    seu_mean_interval_us = None;
    scrub_period_us = None;
    reconfig_fail_prob = 0.0;
    flash_error_prob = 0.0;
    load_deadline_us = None;
    retry = default_retry;
    device_faults = [];
  }

type corruption = {
  seu_injected : int;
  scrub_runs : int;
  scrub_repairs : int;
  scrub_diagnostics : int;
  detected_retrievals : int;
  undetected_retrievals : int;
}

type recovery = {
  failed_loads : int;
  flash_errors : int;
  bitstream_errors : int;
  deadline_misses : int;
  retries : int;
  recovered_loads : int;
  lost_allocations : int;
  mean_recovery_us : float;
}

type degradation = {
  relocations : int;
  lost_tasks : int;
  similarity_deltas : float list;
}

type availability = {
  av_device_id : string;
  av_failures : int;
  av_downtime_us : float;
  av_availability : float;
  av_mttr_us : float;
}

type report = {
  seed : int;
  duration_us : float;
  requests : int;
  grants : int;
  bypass_grants : int;
  refusals : int;
  events_fired : int;
  corruption : corruption;
  recovery : recovery;
  degradation : degradation;
  availability : availability list;
  event_counts : (string * int) list;
}

type verdict = Clean | Degraded_recovered | Unrecovered_loss

let verdict_to_string = function
  | Clean -> "clean"
  | Degraded_recovered -> "degraded-recovered"
  | Unrecovered_loss -> "unrecovered-loss"

let classify r =
  if
    r.recovery.lost_allocations > 0
    || r.degradation.lost_tasks > 0
    || r.corruption.undetected_retrievals > 0
  then Unrecovered_loss
  else if
    r.corruption.seu_injected > 0
    || r.corruption.detected_retrievals > 0
    || r.corruption.scrub_repairs > 0
    || r.recovery.failed_loads > 0
    || r.degradation.relocations > 0
    || List.exists (fun a -> a.av_failures > 0) r.availability
  then Degraded_recovered
  else Clean

let exit_code r =
  match classify r with
  | Clean -> 0
  | Degraded_recovered -> 1
  | Unrecovered_loss -> 2

(* The scrubber checks against one representative request image: the
   first template of the first application, rendered jitter-free. *)
let scrub_request apps =
  match apps with
  | [] -> Error "campaign: no applications"
  | (p : Apps.profile) :: _ -> (
      match p.Apps.templates with
      | [] -> Error "campaign: first application has no templates"
      | t :: _ ->
          Request.make ~type_id:t.Apps.t_type_id
            (List.map (fun (a, v, _j, w) -> (a, v, w)) t.Apps.t_constraints))

type app_state = {
  profile : Apps.profile;
  rng : Workload.Prng.t;
  templates : Apps.cycle;
}

let run ?obs spec =
  let base = spec.base in
  let manager =
    Manager.create ~casebase:base.Simulate.casebase
      ~devices:base.Simulate.devices
      ~catalog:(Allocator.Catalog.of_casebase_default base.Simulate.casebase)
      ~policy:base.Simulate.policy ?placement_policy:base.Simulate.placement
      ?obs ?retrieval_engine:base.Simulate.retrieval_engine ()
  in
  let root_rng = Workload.Prng.create ~seed:base.Simulate.seed in
  (* App streams split first, in apps order — identical to
     [Simulate.run] for the same seed, so a fault-free campaign sees
     the Desim workload verbatim. *)
  let states =
    List.map
      (fun profile ->
        {
          profile;
          rng = Workload.Prng.split root_rng;
          templates = Apps.cycle profile;
        })
      base.Simulate.apps
  in
  let injector =
    Injector.create ~seed:(Workload.Prng.int root_rng ~bound:0x3FFFFFFF)
  in
  let scrubber =
    match scrub_request base.Simulate.apps with
    | Error _ -> None
    | Ok request -> (
        match Scrubber.create base.Simulate.casebase request with
        | Ok s -> Some s
        | Error _ -> None)
  in
  let engine = Engine.create () in
  (* Scrub/retry/relocation counters ride the manager's event stream
     (see [Manager.create ?obs]); the campaign only adds the repair-
     time view. *)
  let mttr_hist =
    match obs with
    | None -> None
    | Some ctx ->
        Obs.Ctx.set_clock ctx (fun () -> Engine.now engine);
        Some
          (Obs.Metrics.histogram ctx.Obs.Ctx.registry
             ~help:"Mean time to repair per failed device, us."
             ~buckets:Obs.Metrics.default_buckets "qosalloc_device_mttr_us")
  in
  let duration = base.Simulate.duration_us in
  let flight_log =
    match obs with Some o -> o.Obs.Ctx.events | None -> Obs.Events.noop ()
  in
  let observing = Obs.Events.enabled flight_log in
  let scrub_enabled = spec.scrub_period_us <> None in
  (* Counters. *)
  let requests = ref 0 and grants = ref 0 in
  let bypass_grants = ref 0 and refusals = ref 0 in
  let seu_injected = ref 0 and scrub_runs = ref 0 in
  let scrub_repairs = ref 0 and scrub_diagnostics = ref 0 in
  let detected_retrievals = ref 0 and undetected_retrievals = ref 0 in
  let failed_loads = ref 0 and flash_errors = ref 0 in
  let bitstream_errors = ref 0 and deadline_misses = ref 0 in
  let retries = ref 0 and recovered_loads = ref 0 in
  let lost_allocations = ref 0 and recovery_us_sum = ref 0.0 in
  let relocations = ref 0 and lost_tasks = ref 0 in
  let rev_deltas = ref [] in
  (* Tasks the campaign still owes a release: task_id -> (request it
     was granted for, absolute release time). *)
  let live_tasks : (int, Request.t * float) Hashtbl.t = Hashtbl.create 64 in
  let avail_failures : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let avail_downtime : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let down_since : (string, float) Hashtbl.t = Hashtbl.create 8 in
  let bump tbl key by =
    Hashtbl.replace tbl key (Option.value ~default:0 (Hashtbl.find_opt tbl key) + by)
  in
  let bump_f tbl key by =
    Hashtbl.replace tbl key
      (Option.value ~default:0.0 (Hashtbl.find_opt tbl key) +. by)
  in
  let schedule_release engine task_id ~at =
    let fire _ =
      Hashtbl.remove live_tasks task_id;
      (* The task may already be gone (evicted, or its load was
         abandoned); a failed release is not an error here. *)
      ignore (Manager.release manager ~task_id)
    in
    let delay = Float.max 0.0 (at -. Engine.now engine) in
    Engine.schedule engine ~delay fire
  in
  let still_resident task_id =
    List.exists
      (fun (task : Manager.task) -> task.Manager.task_id = task_id)
      (Manager.tasks manager)
  in
  (* Bounded retry with exponential backoff for a granted placement's
     bitstream load.  [attempt] is 0-based; the deadline model only
     judges the first attempt (retries are assumed to hit a warm,
     uncontended flash path). *)
  let rec attempt_load engine (task : Manager.task) (grant : Manager.grant)
      ~release_at ~attempt ~backoff_acc =
    if still_resident task.Manager.task_id then begin
      let cause =
        if Injector.draw injector ~prob:spec.flash_error_prob then
          Some Manager.Flash_read_error
        else if Injector.draw injector ~prob:spec.reconfig_fail_prob then
          Some Manager.Bitstream_load_error
        else
          match spec.load_deadline_us with
          | Some deadline
            when attempt = 0 && grant.Manager.setup_time_us > deadline ->
              Some Manager.Load_deadline_exceeded
          | Some _ | None -> None
      in
      match cause with
      | None ->
          if attempt > 0 then begin
            incr recovered_loads;
            recovery_us_sum := !recovery_us_sum +. backoff_acc
          end;
          schedule_release engine task.Manager.task_id ~at:release_at
      | Some cause ->
          incr failed_loads;
          (match cause with
          | Manager.Flash_read_error -> incr flash_errors
          | Manager.Bitstream_load_error -> incr bitstream_errors
          | Manager.Load_deadline_exceeded -> incr deadline_misses);
          Manager.record_reconfig_failure manager ~task ~cause
            ~attempt:(attempt + 1);
          if attempt < spec.retry.max_retries then begin
            (* Capped exponential with seeded jitter; a jitter-free
               policy must not consume randomness, so campaigns with
               [backoff_jitter = 0] draw the stream they always did. *)
            let backoff =
              let u =
                if spec.retry.backoff_jitter > 0.0 then
                  Injector.uniform injector
                else 0.5
              in
              Backoff.delay (backoff_policy spec.retry) ~attempt ~u
            in
            incr retries;
            Manager.record_retry manager ~task ~attempt:(attempt + 1)
              ~backoff_us:backoff;
            Engine.schedule engine ~delay:backoff (fun engine ->
                attempt_load engine task grant ~release_at
                  ~attempt:(attempt + 1)
                  ~backoff_acc:(backoff_acc +. backoff))
          end
          else begin
            incr lost_allocations;
            Hashtbl.remove live_tasks task.Manager.task_id;
            ignore (Manager.release manager ~task_id:task.Manager.task_id)
          end
    end
  in
  let handle_request state engine =
    let request = Apps.next state.rng state.templates in
    let outcome =
      Negotiation.negotiate ~max_rounds:base.Simulate.max_negotiation_rounds
        manager
        ~app_id:state.profile.Apps.app_id
        ~priority:state.profile.Apps.priority request
    in
    incr requests;
    let did_retrieve =
      match outcome.Negotiation.final with
      | Ok grant -> not grant.Manager.via_bypass
      | Error _ -> true
    in
    (* Retrieval-time readback: with scrubbing on, a corrupted image is
       detected and reloaded before the result is used; with scrubbing
       off the retrieval silently consumes the corrupted words. *)
    (match scrubber with
    | Some s when did_retrieve && not (Scrubber.clean s) ->
        if scrub_enabled then begin
          incr detected_retrievals;
          let diags = Scrubber.diagnose s in
          scrub_diagnostics := !scrub_diagnostics + diags;
          let words = Scrubber.repair s in
          incr scrub_repairs;
          Manager.record_scrub manager ~corrupted_words:words
            ~diagnostics:diags;
          if observing then
            Obs.Events.record flight_log ~ts:(Engine.now engine)
              (Obs.Events.Scrub { corrupted_words = words; diagnostics = diags })
        end
        else incr undetected_retrievals
    | Some _ | None -> ());
    match outcome.Negotiation.final with
    | Error _ -> incr refusals
    | Ok grant ->
        incr grants;
        if grant.Manager.via_bypass then incr bypass_grants
        else begin
          let task = grant.Manager.task in
          let hold = Apps.hold_time state.profile state.rng in
          let release_at = Engine.now engine +. hold in
          Hashtbl.replace live_tasks task.Manager.task_id
            (request, release_at);
          attempt_load engine task grant ~release_at ~attempt:0
            ~backoff_acc:0.0
        end
  in
  let rec arrival state engine =
    handle_request state engine;
    let delay = Apps.inter_arrival state.profile state.rng in
    if Engine.now engine +. delay <= duration then
      Engine.schedule engine ~delay (fun engine -> arrival state engine)
  in
  List.iter
    (fun state ->
      let offset =
        Workload.Prng.float state.rng *. state.profile.Apps.period_us
      in
      Engine.schedule engine ~delay:offset (fun engine ->
          arrival state engine))
    states;
  (* Device-failure schedule: eviction, then relocation with graceful
     degradation — each evicted task re-enters CBR retrieval and takes
     the next-best variant on a healthy device.  The relocation load
     itself is not fault-injected. *)
  List.iter
    (fun df ->
      if df.df_at_us <= duration then
        Engine.schedule_at engine ~time:df.df_at_us (fun engine ->
            match
              Manager.fail_device manager ~device_id:df.df_device_id
                ~permanent:
                  (match df.df_kind with
                  | `Permanent -> true
                  | `Transient _ -> false)
            with
            | Error _ -> ()
            | Ok evicted ->
                bump avail_failures df.df_device_id 1;
                if not (Hashtbl.mem down_since df.df_device_id) then
                  Hashtbl.replace down_since df.df_device_id
                    (Engine.now engine);
                List.iter
                  (fun (victim : Manager.task) ->
                    match
                      Hashtbl.find_opt live_tasks victim.Manager.task_id
                    with
                    | None -> ()
                    | Some (request, release_at) -> (
                        Hashtbl.remove live_tasks victim.Manager.task_id;
                        match Manager.relocate manager ~task:victim request with
                        | Ok (regrant, delta) ->
                            incr relocations;
                            rev_deltas := delta :: !rev_deltas;
                            if observing then
                              Obs.Events.record flight_log
                                ~ts:(Engine.now engine)
                                (Obs.Events.Relocation
                                   {
                                     device = df.df_device_id;
                                     qos_delta = delta;
                                   });
                            let new_id =
                              regrant.Manager.task.Manager.task_id
                            in
                            Hashtbl.replace live_tasks new_id
                              (request, release_at);
                            schedule_release engine new_id ~at:release_at
                        | Error _ -> incr lost_tasks))
                  evicted;
                (match df.df_kind with
                | `Permanent -> ()
                | `Transient dur ->
                    Engine.schedule engine ~delay:dur (fun engine ->
                        if
                          Manager.restore_device manager
                            ~device_id:df.df_device_id
                        then begin
                          (match
                             Hashtbl.find_opt down_since df.df_device_id
                           with
                          | Some since ->
                              bump_f avail_downtime df.df_device_id
                                (Engine.now engine -. since)
                          | None -> ());
                          Hashtbl.remove down_since df.df_device_id
                        end))))
    spec.device_faults;
  (* Periodic scrubbing: cheap checksum first, full diagnosis and
     golden reload on any mismatch. *)
  (match (spec.scrub_period_us, scrubber) with
  | Some period, Some s ->
      let rec scrub_tick engine =
        incr scrub_runs;
        if not (Scrubber.checksum_matches s && Scrubber.clean s) then begin
          let diags = Scrubber.diagnose s in
          scrub_diagnostics := !scrub_diagnostics + diags;
          let words = Scrubber.repair s in
          incr scrub_repairs;
          Manager.record_scrub manager ~corrupted_words:words
            ~diagnostics:diags;
          if observing then
            Obs.Events.record flight_log ~ts:(Engine.now engine)
              (Obs.Events.Scrub { corrupted_words = words; diagnostics = diags })
        end;
        if Engine.now engine +. period <= duration then
          Engine.schedule engine ~delay:period scrub_tick
      in
      if period <= duration then
        Engine.schedule_at engine ~time:period scrub_tick
  | (Some _ | None), _ -> ());
  (* SEU arrivals: Poisson bit flips into the live image. *)
  (match (spec.seu_mean_interval_us, scrubber) with
  | Some mean, Some s ->
      let rec seu_tick engine =
        ignore (Injector.flip_word injector (Scrubber.live s));
        incr seu_injected;
        let delay = Injector.interval injector ~mean_us:mean in
        if Engine.now engine +. delay <= duration then
          Engine.schedule engine ~delay seu_tick
      in
      let first = Injector.interval injector ~mean_us:mean in
      if first <= duration then Engine.schedule_at engine ~time:first seu_tick
  | (Some _ | None), _ -> ());
  let events_fired = Engine.run ~until:duration engine in
  (* Devices still down at the end of the campaign. *)
  Hashtbl.iter
    (fun device_id since -> bump_f avail_downtime device_id (duration -. since))
    down_since;
  let availability =
    List.map
      (fun (d : Allocator.Device.t) ->
        let failures =
          Option.value ~default:0
            (Hashtbl.find_opt avail_failures d.Allocator.Device.device_id)
        in
        let downtime =
          Option.value ~default:0.0
            (Hashtbl.find_opt avail_downtime d.Allocator.Device.device_id)
        in
        {
          av_device_id = d.Allocator.Device.device_id;
          av_failures = failures;
          av_downtime_us = downtime;
          av_availability = 1.0 -. (downtime /. duration);
          av_mttr_us =
            (if failures = 0 then 0.0
             else downtime /. float_of_int failures);
        })
      base.Simulate.devices
  in
  (match mttr_hist with
  | None -> ()
  | Some h ->
      List.iter
        (fun a ->
          if a.av_failures > 0 then Obs.Metrics.observe h a.av_mttr_us)
        availability);
  let events = Manager.drain_events manager in
  let count pred = List.length (List.filter pred events) in
  let event_counts =
    [
      ("granted", count (function Manager.Granted _ -> true | _ -> false));
      ("refused", count (function Manager.Refused _ -> true | _ -> false));
      ( "preempted",
        count (function Manager.Preempted_task _ -> true | _ -> false) );
      ( "released",
        count (function Manager.Released_task _ -> true | _ -> false) );
      ( "reconfig-failed",
        count (function Manager.Reconfig_failed _ -> true | _ -> false) );
      ("retried", count (function Manager.Retried _ -> true | _ -> false));
      ("relocated", count (function Manager.Relocated _ -> true | _ -> false));
      ( "device-failed",
        count (function Manager.Device_failed _ -> true | _ -> false) );
      ( "device-restored",
        count (function Manager.Device_restored _ -> true | _ -> false) );
      ("scrubbed", count (function Manager.Scrubbed _ -> true | _ -> false));
    ]
  in
  {
    seed = base.Simulate.seed;
    duration_us = duration;
    requests = !requests;
    grants = !grants;
    bypass_grants = !bypass_grants;
    refusals = !refusals;
    events_fired;
    corruption =
      {
        seu_injected = !seu_injected;
        scrub_runs = !scrub_runs;
        scrub_repairs = !scrub_repairs;
        scrub_diagnostics = !scrub_diagnostics;
        detected_retrievals = !detected_retrievals;
        undetected_retrievals = !undetected_retrievals;
      };
    recovery =
      {
        failed_loads = !failed_loads;
        flash_errors = !flash_errors;
        bitstream_errors = !bitstream_errors;
        deadline_misses = !deadline_misses;
        retries = !retries;
        recovered_loads = !recovered_loads;
        lost_allocations = !lost_allocations;
        mean_recovery_us =
          (if !recovered_loads = 0 then 0.0
           else !recovery_us_sum /. float_of_int !recovered_loads);
      };
    degradation =
      {
        relocations = !relocations;
        lost_tasks = !lost_tasks;
        similarity_deltas = List.rev !rev_deltas;
      };
    availability;
    event_counts;
  }

let pp ppf r =
  let open Format in
  fprintf ppf "fault campaign: seed=%d duration=%.0fus verdict=%s@," r.seed
    r.duration_us
    (verdict_to_string (classify r));
  fprintf ppf "workload: requests=%d grants=%d (bypass %d) refusals=%d@,"
    r.requests r.grants r.bypass_grants r.refusals;
  fprintf ppf
    "corruption: seu=%d scrubs=%d repairs=%d diagnostics=%d detected=%d undetected=%d@,"
    r.corruption.seu_injected r.corruption.scrub_runs
    r.corruption.scrub_repairs r.corruption.scrub_diagnostics
    r.corruption.detected_retrievals r.corruption.undetected_retrievals;
  fprintf ppf
    "recovery: failed-loads=%d (flash %d, bitstream %d, deadline %d) retries=%d recovered=%d lost=%d mean-recovery=%.1fus@,"
    r.recovery.failed_loads r.recovery.flash_errors
    r.recovery.bitstream_errors r.recovery.deadline_misses r.recovery.retries
    r.recovery.recovered_loads r.recovery.lost_allocations
    r.recovery.mean_recovery_us;
  fprintf ppf "degradation: relocations=%d lost-tasks=%d" r.degradation.relocations
    r.degradation.lost_tasks;
  (match Workload.Stats.summarize r.degradation.similarity_deltas with
  | None -> fprintf ppf "@,"
  | Some s ->
      fprintf ppf " delta mean=%.4f max=%.4f@," s.Workload.Stats.mean
        s.Workload.Stats.maximum);
  List.iter
    (fun a ->
      if a.av_failures > 0 then
        fprintf ppf
          "availability: %s failures=%d downtime=%.0fus availability=%.4f mttr=%.0fus@,"
          a.av_device_id a.av_failures a.av_downtime_us a.av_availability
          a.av_mttr_us)
    r.availability;
  fprintf ppf "events:";
  List.iter (fun (name, n) -> fprintf ppf " %s=%d" name n) r.event_counts

let to_json r =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "{\n";
  add (Printf.sprintf "  \"seed\": %d,\n" r.seed);
  add (Printf.sprintf "  \"duration_us\": %.1f,\n" r.duration_us);
  add (Printf.sprintf "  \"verdict\": %S,\n" (verdict_to_string (classify r)));
  add
    (Printf.sprintf
       "  \"workload\": {\"requests\": %d, \"grants\": %d, \"bypass_grants\": %d, \"refusals\": %d, \"events_fired\": %d},\n"
       r.requests r.grants r.bypass_grants r.refusals r.events_fired);
  add
    (Printf.sprintf
       "  \"corruption\": {\"seu_injected\": %d, \"scrub_runs\": %d, \"scrub_repairs\": %d, \"scrub_diagnostics\": %d, \"detected_retrievals\": %d, \"undetected_retrievals\": %d},\n"
       r.corruption.seu_injected r.corruption.scrub_runs
       r.corruption.scrub_repairs r.corruption.scrub_diagnostics
       r.corruption.detected_retrievals r.corruption.undetected_retrievals);
  add
    (Printf.sprintf
       "  \"recovery\": {\"failed_loads\": %d, \"flash_errors\": %d, \"bitstream_errors\": %d, \"deadline_misses\": %d, \"retries\": %d, \"recovered_loads\": %d, \"lost_allocations\": %d, \"mean_recovery_us\": %.1f},\n"
       r.recovery.failed_loads r.recovery.flash_errors
       r.recovery.bitstream_errors r.recovery.deadline_misses
       r.recovery.retries r.recovery.recovered_loads
       r.recovery.lost_allocations r.recovery.mean_recovery_us);
  add
    (Printf.sprintf
       "  \"degradation\": {\"relocations\": %d, \"lost_tasks\": %d, \"similarity_deltas\": [%s]},\n"
       r.degradation.relocations r.degradation.lost_tasks
       (String.concat ", "
          (List.map
             (Printf.sprintf "%.4f")
             r.degradation.similarity_deltas)));
  add "  \"availability\": [\n";
  let rec avail = function
    | [] -> ()
    | a :: rest ->
        add
          (Printf.sprintf
             "    {\"device_id\": %S, \"failures\": %d, \"downtime_us\": %.1f, \"availability\": %.6f, \"mttr_us\": %.1f}%s\n"
             a.av_device_id a.av_failures a.av_downtime_us a.av_availability
             a.av_mttr_us
             (if rest = [] then "" else ","));
        avail rest
  in
  avail r.availability;
  add "  ],\n";
  add "  \"events\": {";
  add
    (String.concat ", "
       (List.map
          (fun (name, n) -> Printf.sprintf "%S: %d" name n)
          r.event_counts));
  add "}\n";
  add "}\n";
  Buffer.contents buf
