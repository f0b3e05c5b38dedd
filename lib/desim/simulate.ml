open Allocator

type spec = {
  duration_us : float;
  seed : int;
  devices : Device.t list;
  policy : Manager.policy;
  placement : Placement.policy option;
      (** When set, FPGA devices are fragmentation-modelled. *)
  collect_trace : bool;
  casebase : Qos_core.Casebase.t;
  apps : Apps.profile list;
  max_negotiation_rounds : int;
  retrieval_engine : Qos_core.Engine.factory option;
}

let default_spec () =
  {
    duration_us = 200_000.0;
    seed = 42;
    devices = Device.default_system ();
    (* The run-time system pays the hardware unit's retrieval latency
       (75 MHz, Table 2) on every non-bypass allocation. *)
    policy =
      { Manager.default_policy with Manager.retrieval_clock_mhz = Some 75.0 };
    placement = None;
    collect_trace = false;
    casebase = Apps.reference_casebase;
    apps = Apps.standard_apps;
    max_negotiation_rounds = 3;
    retrieval_engine = None;
  }

type app_metrics = {
  requests : int;
  grants : int;
  bypass_grants : int;
  refusals : int;
  extra_rounds : int;
  preemptions_suffered : int;
  similarity_sum : float;
  setup_us_sum : float;
  energy_uj_sum : float;
}

let empty_metrics =
  {
    requests = 0;
    grants = 0;
    bypass_grants = 0;
    refusals = 0;
    extra_rounds = 0;
    preemptions_suffered = 0;
    similarity_sum = 0.0;
    setup_us_sum = 0.0;
    energy_uj_sum = 0.0;
  }

type report = {
  per_app : (string * app_metrics) list;
  totals : app_metrics;
  events_fired : int;
  tasks_resident_at_end : int;
  bypass : Bypass.stats;
  duration_us : float;
  trace : Tracefile.row list;  (** Empty unless [spec.collect_trace]. *)
  mean_utilization : (string * float) list;
      (** Per device, mean occupied fraction sampled at request
          arrivals; [spec.devices] order. *)
}

type app_state = {
  profile : Apps.profile;
  rng : Workload.Prng.t;
  templates : Apps.cycle;
  mutable metrics : app_metrics;
}

let run ?obs spec =
  let manager =
    Manager.create ~casebase:spec.casebase ~devices:spec.devices
      ~catalog:(Catalog.of_casebase_default spec.casebase)
      ~policy:spec.policy ?placement_policy:spec.placement ?obs
      ?retrieval_engine:spec.retrieval_engine ()
  in
  let root_rng = Workload.Prng.create ~seed:spec.seed in
  let states =
    List.map
      (fun profile ->
        {
          profile;
          rng = Workload.Prng.split root_rng;
          templates = Apps.cycle profile;
          metrics = empty_metrics;
        })
      spec.apps
  in
  let engine = Engine.create () in
  (* Point the shared clock at sim-time so the manager's spans and any
     later samples carry engine timestamps, not zeros. *)
  let sim_instr =
    match obs with
    | None -> None
    | Some ctx ->
        Obs.Ctx.set_clock ctx (fun () -> Engine.now engine);
        Some
          ( ctx,
            Obs.Metrics.gauge ctx.Obs.Ctx.registry
              ~help:
                "Pending events in the discrete-event queue, sampled at \
                 request arrivals."
              "qosalloc_sim_queue_depth" )
  in
  let power_of_device device_id =
    match
      List.find_opt
        (fun (d : Device.t) -> String.equal d.Device.device_id device_id)
        spec.devices
    with
    | Some d -> d.Device.power_mw_per_unit
    | None -> 0.0
  in
  let state_of app_id =
    List.find_opt
      (fun s -> String.equal s.profile.Apps.app_id app_id)
      states
  in
  let record_preemptions () =
    List.iter
      (function
        | Manager.Preempted_task task -> (
            match state_of task.Manager.app_id with
            | Some victim ->
                victim.metrics <-
                  {
                    victim.metrics with
                    preemptions_suffered =
                      victim.metrics.preemptions_suffered + 1;
                  }
            | None -> ())
        | Manager.Granted _ | Manager.Refused _ | Manager.Released_task _
        | Manager.Reconfig_failed _ | Manager.Retried _ | Manager.Relocated _
        | Manager.Device_failed _ | Manager.Device_restored _
        | Manager.Scrubbed _ -> ())
      (Manager.drain_events manager)
  in
  let utilization_sums = Hashtbl.create 8 in
  let utilization_samples = ref 0 in
  let sample_utilization () =
    incr utilization_samples;
    List.iter
      (fun (d : Device.t) ->
        let used =
          match Manager.free_units manager ~device_id:d.Device.device_id with
          | Some free -> d.Device.capacity - free
          | None -> 0
        in
        let fraction = float_of_int used /. float_of_int d.Device.capacity in
        let prev =
          Option.value ~default:0.0
            (Hashtbl.find_opt utilization_sums d.Device.device_id)
        in
        Hashtbl.replace utilization_sums d.Device.device_id (prev +. fraction))
      spec.devices
  in
  let rev_trace = ref [] in
  let record_row ~app_id engine request outcome =
    if spec.collect_trace then begin
      let rounds = List.length outcome.Negotiation.rounds in
      let row =
        match outcome.Negotiation.final with
        | Ok (grant : Manager.grant) ->
            {
              Tracefile.time_us = Engine.now engine;
              app_id = grant.Manager.task.Manager.app_id;
              type_id = request.Qos_core.Request.type_id;
              outcome =
                (if grant.Manager.via_bypass then Tracefile.Granted_bypass
                 else Tracefile.Granted);
              impl_id = grant.Manager.task.Manager.impl_id;
              device_id = grant.Manager.task.Manager.device_id;
              similarity = grant.Manager.task.Manager.score;
              setup_us = grant.Manager.setup_time_us;
              rounds;
            }
        | Error _ ->
            {
              Tracefile.time_us = Engine.now engine;
              app_id;
              type_id = request.Qos_core.Request.type_id;
              outcome = Tracefile.Refused;
              impl_id = 0;
              device_id = "";
              similarity = 0.0;
              setup_us = 0.0;
              rounds;
            }
      in
      rev_trace := row :: !rev_trace
    end
  in
  let handle_request state engine =
    let request = Apps.next state.rng state.templates in
    let span =
      match sim_instr with
      | None -> None
      | Some (ctx, queue_gauge) ->
          Obs.Metrics.set queue_gauge (float_of_int (Engine.pending engine));
          Some
            ( ctx,
              Obs.Tracer.begin_span ctx.Obs.Ctx.tracer ~ts:(Obs.Ctx.now ctx)
                ~args:[ ("app", state.profile.Apps.app_id) ]
                "request" )
    in
    let outcome =
      Negotiation.negotiate ~max_rounds:spec.max_negotiation_rounds manager
        ~app_id:state.profile.Apps.app_id
        ~priority:state.profile.Apps.priority request
    in
    record_row ~app_id:state.profile.Apps.app_id engine request outcome;
    sample_utilization ();
    let m = state.metrics in
    let m =
      {
        m with
        requests = m.requests + 1;
        extra_rounds = m.extra_rounds + List.length outcome.Negotiation.rounds - 1;
      }
    in
    let m =
      match outcome.Negotiation.final with
      | Ok grant ->
          let energy_uj = ref 0.0 in
          if not grant.Manager.via_bypass then begin
            let task = grant.Manager.task in
            let hold = Apps.hold_time state.profile state.rng in
            (* mW x us = nJ; report uJ. *)
            energy_uj :=
              float_of_int task.Manager.units
              *. power_of_device task.Manager.device_id
              *. hold /. 1000.0;
            let task_id = task.Manager.task_id in
            Engine.schedule engine ~delay:hold (fun _ ->
                ignore (Manager.release manager ~task_id);
                record_preemptions ())
          end;
          {
            m with
            grants = m.grants + 1;
            bypass_grants =
              (m.bypass_grants + if grant.Manager.via_bypass then 1 else 0);
            similarity_sum =
              m.similarity_sum +. grant.Manager.task.Manager.score;
            setup_us_sum = m.setup_us_sum +. grant.Manager.setup_time_us;
            energy_uj_sum = m.energy_uj_sum +. !energy_uj;
          }
      | Error _ -> { m with refusals = m.refusals + 1 }
    in
    state.metrics <- m;
    record_preemptions ();
    match span with
    | None -> ()
    | Some (ctx, sp) ->
        Obs.Tracer.end_span ctx.Obs.Ctx.tracer ~ts:(Obs.Ctx.now ctx) sp
  in
  let rec arrival state engine =
    handle_request state engine;
    let delay = Apps.inter_arrival state.profile state.rng in
    if Engine.now engine +. delay <= spec.duration_us then
      Engine.schedule engine ~delay (fun engine -> arrival state engine)
  in
  List.iter
    (fun state ->
      (* Stagger initial arrivals deterministically. *)
      let offset = Workload.Prng.float state.rng *. state.profile.Apps.period_us in
      Engine.schedule engine ~delay:offset (fun engine -> arrival state engine))
    states;
  let events_fired = Engine.run ~until:spec.duration_us engine in
  let per_app =
    List.map (fun s -> (s.profile.Apps.app_id, s.metrics)) states
  in
  let totals =
    List.fold_left
      (fun acc (_, m) ->
        {
          requests = acc.requests + m.requests;
          grants = acc.grants + m.grants;
          bypass_grants = acc.bypass_grants + m.bypass_grants;
          refusals = acc.refusals + m.refusals;
          extra_rounds = acc.extra_rounds + m.extra_rounds;
          preemptions_suffered =
            acc.preemptions_suffered + m.preemptions_suffered;
          similarity_sum = acc.similarity_sum +. m.similarity_sum;
          setup_us_sum = acc.setup_us_sum +. m.setup_us_sum;
          energy_uj_sum = acc.energy_uj_sum +. m.energy_uj_sum;
        })
      empty_metrics per_app
  in
  {
    per_app;
    totals;
    events_fired;
    tasks_resident_at_end = List.length (Manager.tasks manager);
    bypass = Manager.bypass_stats manager;
    duration_us = spec.duration_us;
    trace = List.rev !rev_trace;
    mean_utilization =
      List.map
        (fun (d : Device.t) ->
          let total =
            Option.value ~default:0.0
              (Hashtbl.find_opt utilization_sums d.Device.device_id)
          in
          ( d.Device.device_id,
            if !utilization_samples = 0 then 0.0
            else total /. float_of_int !utilization_samples ))
        spec.devices;
  }

let mean_similarity m =
  if m.grants = 0 then 0.0 else m.similarity_sum /. float_of_int m.grants

let grant_rate m =
  if m.requests = 0 then 0.0
  else float_of_int m.grants /. float_of_int m.requests

let pp_metrics ppf m =
  Format.fprintf ppf
    "req=%d grant=%d (%.0f%%) bypass=%d refused=%d rounds+%d preempted=%d s-avg=%.3f setup=%.0fus energy=%.0fuJ"
    m.requests m.grants
    (100.0 *. grant_rate m)
    m.bypass_grants m.refusals m.extra_rounds m.preemptions_suffered
    (mean_similarity m) m.setup_us_sum m.energy_uj_sum

let pp_report ppf r =
  Format.fprintf ppf "@[<v>simulated %.0fus, %d events@," r.duration_us
    r.events_fired;
  List.iter
    (fun (app, m) -> Format.fprintf ppf "  %-12s %a@," app pp_metrics m)
    r.per_app;
  Format.fprintf ppf "  %-12s %a@," "TOTAL" pp_metrics r.totals;
  Format.fprintf ppf "  resident at end: %d tasks; bypass: %a@,"
    r.tasks_resident_at_end Bypass.pp_stats r.bypass;
  Format.fprintf ppf "  utilization:";
  List.iter
    (fun (device_id, u) -> Format.fprintf ppf " %s=%.0f%%" device_id (100.0 *. u))
    r.mean_utilization;
  Format.fprintf ppf "@]"
