open Qos_core

type slo_spec = {
  slo_availability : float;
  slo_latency_us : float;
  slo_fast_window_us : float;
  slo_slow_window_us : float;
  slo_burn_threshold : float;
}

let default_slo ~availability ~latency_us =
  let d = Obs.Slo.default_spec in
  {
    slo_availability = availability;
    slo_latency_us = latency_us;
    slo_fast_window_us = d.Obs.Slo.fast_window_us;
    slo_slow_window_us = d.Obs.Slo.slow_window_us;
    slo_burn_threshold = d.Obs.Slo.burn_threshold;
  }

type source = Pregenerated | Stream

let source_to_string = function
  | Pregenerated -> "pregenerated"
  | Stream -> "stream"

type spec = {
  duration_us : float;
  seed : int;
  nodes : int;
  replication : int;
  fault_domains : int;
  vnodes : int;
  jobs : int;
  engine_name : string;
  engine : Engine.factory;
  apps : Desim.Apps.profile list;
  casebase : Casebase.t;
  outage : Faults.Outages.spec;
  backoff : Faults.Backoff.policy;
  max_retries : int;
  heartbeat_period_us : float;
  suspect_phi : float;
  down_phi : float;
  breaker : Breaker.config;
  connect_timeout_us : float;
  min_service_us : float;
  resync_rate : float;
  min_availability : float;
  slo : slo_spec option;
  steal : Steal.policy;
  source : source;
  max_requests : int option;
  retain_requests : bool;
  load_scale : float;
}

let clock_mhz = 75.0

let default_spec () =
  let engine =
    match Engines.of_name "native" with
    | Ok f -> f
    | Error e -> failwith e (* the registry always has native *)
  in
  {
    duration_us = 200_000.0;
    seed = 42;
    nodes = 6;
    replication = 3;
    fault_domains = 3;
    vnodes = 64;
    jobs = 1;
    engine_name = "native";
    engine;
    apps = Desim.Apps.standard_apps;
    casebase = Desim.Apps.reference_casebase;
    outage = Faults.Outages.default_spec;
    backoff = Faults.Backoff.default;
    (* Five rounds at the default policy is a ~6 ms envelope — enough
       to outlast a typical transient bounce plus the detector beat and
       the rejoin re-replication before answering degraded. *)
    max_retries = 5;
    heartbeat_period_us = 500.0;
    suspect_phi = 1.0;
    down_phi = 3.0;
    breaker = Breaker.default_config;
    connect_timeout_us = 100.0;
    min_service_us = 40.0;
    resync_rate = 0.01;
    min_availability = 0.99;
    slo = None;
    steal = Steal.default;
    source = Pregenerated;
    max_requests = None;
    retain_requests = true;
    load_scale = 1.0;
  }

type reason = Breaker_open | All_replicas_down | Saturated | Retries_exhausted

let reason_to_string = function
  | Breaker_open -> "breaker-open"
  | All_replicas_down -> "all-replicas-down"
  | Saturated -> "saturated"
  | Retries_exhausted -> "retries-exhausted"

let reason_index = function
  | Breaker_open -> 0
  | All_replicas_down -> 1
  | Saturated -> 2
  | Retries_exhausted -> 3

type response =
  | Full of { node : int; decision : Engine.decision }
  | Degraded of { stale_impl : int option; reason : reason }
  | Failed of string

let response_tag = function
  | Full _ -> "full"
  | Degraded _ -> "degraded"
  | Failed _ -> "failed"

type node_stats = {
  ns_node : int;
  ns_domain : int;
  ns_types : int;
  ns_entries : int;
  ns_slots : int;
  ns_served : int;
  ns_shed : int;
  ns_stolen : int;
  ns_donated : int;
  ns_peak_inflight : int;
  ns_breaker_opens : int;
  ns_downtime_us : float;
  ns_resyncs : int;
  ns_end_status : Health.status;
}

type report = {
  seed : int;
  duration_us : float;
  nodes : int;
  replication : int;
  fault_domains : int;
  jobs : int;
  engine_name : string;
  requests : int;
  full : int;
  degraded : int;
  failed : int;
  availability : float;
  failovers : int;
  retries : int;
  sheds : int;
  steals : int;
  steal_denials : int;
  outage_events : int;
  heartbeats : int;
  degraded_reasons : (string * int) list;
  per_node : node_stats list;
  mean_latency_us : float;
  max_latency_us : float;
  latency : Workload.Stats.summary option;
  outcomes : response array;
  request_meta : (string * int * float) array;
  slo : Obs.Slo.report list;
}

type verdict = Clean | Degraded_recovered | Unrecovered_loss

let verdict_to_string = function
  | Clean -> "clean"
  | Degraded_recovered -> "degraded-recovered"
  | Unrecovered_loss -> "unrecovered-loss"

let classify ~min_availability r =
  if
    r.failed > 0
    || r.availability < min_availability
    || List.exists (fun s -> not s.Obs.Slo.r_met) r.slo
  then Unrecovered_loss
  else if
    r.degraded > 0 || r.failovers > 0 || r.sheds > 0 || r.retries > 0
    || r.steals > 0 || r.outage_events > 0
  then Degraded_recovered
  else Clean

let exit_code ~min_availability r =
  match classify ~min_availability r with
  | Clean -> 0
  | Degraded_recovered -> 1
  | Unrecovered_loss -> 2

(* --- workload generation ---------------------------------------------------- *)

type arrival = { a_app : string; a_at_us : float; a_request : Request.t }

let scaled_apps (spec : spec) =
  if spec.load_scale = 1.0 then spec.apps
  else if not (Float.is_finite spec.load_scale && spec.load_scale > 0.0) then
    invalid_arg "Serve: load_scale must be finite and > 0"
  else
    List.map
      (fun (p : Desim.Apps.profile) ->
        { p with Desim.Apps.period_us = p.Desim.Apps.period_us /. spec.load_scale })
      spec.apps

(* Expand the seed into the per-app pull sources plus the two injector
   seeds.  App streams split first, in apps order — the same
   discipline as [Faults.Campaign] — then outages, then retry jitter.
   The sources are live: building them costs O(apps), and each pull
   draws exactly the rng values the pregenerated expansion would. *)
let arrival_sources (spec : spec) =
  let root = Workload.Prng.create ~seed:spec.seed in
  let sources =
    List.map
      (fun (p : Desim.Apps.profile) ->
        ( p.Desim.Apps.app_id,
          Desim.Apps.arrival_source p ~rng:(Workload.Prng.split root)
            ~horizon:spec.duration_us ))
      (scaled_apps spec)
  in
  let outage_seed = Workload.Prng.int root ~bound:0x3FFFFFFF in
  let retry_seed = Workload.Prng.int root ~bound:0x3FFFFFFF in
  (sources, outage_seed, retry_seed)

(* [Workload.Stream] merges by (time, app index) with per-source order
   preserved — exactly the stable sort the pregenerated path used to
   apply to the expanded array, so draining reproduces it element for
   element. *)
let drain_arrivals ?max_items ~names stream =
  let items = Workload.Stream.drain ?max_items stream in
  Array.of_list
    (List.map
       (fun (src, t, req) -> { a_app = names.(src); a_at_us = t; a_request = req })
       items)

let workload spec =
  let sources, _, _ = arrival_sources spec in
  let names = Array.of_list (List.map fst sources) in
  let stream = Workload.Stream.create (List.map snd sources) in
  let arrivals = drain_arrivals ?max_items:spec.max_requests ~names stream in
  Array.map (fun a -> (a.a_app, a.a_at_us, a.a_request)) arrivals

(* --- parallel decision phase ------------------------------------------------ *)

(* Every request is retrieved on its primary replica's engine.  Node
   [n] is owned by worker [n mod jobs], so an engine instance is only
   ever driven from one domain; workers write disjoint indices of the
   shared decision array.  The decision for an index is a pure function
   of (node engine, request) — independent of [jobs]. *)
let compute_decisions (sub : Substrate.t) (arrivals : arrival array) ~jobs =
  let n = Array.length arrivals in
  let decisions = Array.make n (Error (Engine.Engine_failure "unserved")) in
  let primary =
    Array.map
      (fun a ->
        match Substrate.replicas_for sub ~type_id:a.a_request.Request.type_id with
        | p :: _ -> p
        | [] -> 0 (* unreachable: route always returns members *))
      arrivals
  in
  let jobs = max 1 jobs in
  let queues = Array.init jobs (fun _ -> Parallel.Bqueue.create ~capacity:64) in
  let workers =
    Array.init jobs (fun w ->
        Domain.spawn (fun () ->
            let rec loop () =
              match Parallel.Bqueue.pop queues.(w) with
              | None -> ()
              | Some batch ->
                  List.iter
                    (fun (idx, node_id, request) ->
                      let node = Substrate.node sub node_id in
                      decisions.(idx) <-
                        (match node.Substrate.engine with
                        | None ->
                            Error (Engine.Engine_failure "node hosts no types")
                        | Some e -> e.Engine.retrieve request))
                    batch;
                  loop ()
            in
            loop ()))
  in
  let bufs = Array.make jobs [] in
  let fills = Array.make jobs 0 in
  let flush w =
    if bufs.(w) <> [] then begin
      ignore (Parallel.Bqueue.push queues.(w) (List.rev bufs.(w)));
      bufs.(w) <- [];
      fills.(w) <- 0
    end
  in
  Array.iteri
    (fun idx a ->
      let w = primary.(idx) mod jobs in
      bufs.(w) <- (idx, primary.(idx), a.a_request) :: bufs.(w);
      fills.(w) <- fills.(w) + 1;
      if fills.(w) >= 32 then flush w)
    arrivals;
  Array.iteri (fun w _ -> flush w) bufs;
  Array.iter Parallel.Bqueue.close queues;
  Array.iter Domain.join workers;
  decisions

(* --- sequential control phase ----------------------------------------------- *)

let service_us (spec : spec) (d : Engine.decision) =
  match d.Engine.cycles with
  | Some c -> Float.max spec.min_service_us (float_of_int c /. clock_mhz)
  | None -> spec.min_service_us

(* Growable per-request storage, only populated when the spec retains
   requests; the streaming 1M+ bench runs with retention off so memory
   stays in the aggregates. *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let grown = Array.make (max 16 (2 * Array.length v.data)) x in
      Array.blit v.data 0 grown 0 v.len;
      v.data <- grown
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let set v i x = v.data.(i) <- x
  let to_array v = Array.sub v.data 0 v.len
end

(* Streaming metric handles, resolved once up-front so the hot path
   only increments.  All updates happen in the sequential control
   phase, at the sim-time of the thing they measure. *)
type instr = {
  i_full : Obs.Metrics.counter;
  i_degraded : Obs.Metrics.counter;
  i_failed : Obs.Metrics.counter;
  i_retries : Obs.Metrics.counter;
  i_heartbeats : Obs.Metrics.counter;
  i_steal_denied : Obs.Metrics.counter;
  i_failover : Obs.Metrics.counter array;
  i_served : Obs.Metrics.counter array;
  i_shed : Obs.Metrics.counter array;
  i_stolen : Obs.Metrics.counter array;
  i_donated : Obs.Metrics.counter array;
  i_breaker_opens : Obs.Metrics.counter array;
  i_saturation : Obs.Metrics.gauge array;
  i_latency : Obs.Metrics.histogram;
  i_steal_latency : Obs.Metrics.histogram;
  i_lag : Obs.Metrics.histogram;
}

let make_instr reg ~nodes =
  let outcome kind =
    Obs.Metrics.counter reg ~help:"Cluster requests by outcome"
      ~labels:[ ("outcome", kind) ]
      "qosalloc_cluster_requests_total"
  in
  let per_node ?help name =
    Array.init nodes (fun n ->
        Obs.Metrics.counter reg ?help
          ~labels:[ ("node", string_of_int n) ]
          name)
  in
  {
    i_full = outcome "full";
    i_degraded = outcome "degraded";
    i_failed = outcome "failed";
    i_retries =
      Obs.Metrics.counter reg ~help:"Backoff rounds scheduled"
        "qosalloc_cluster_retries_total";
    i_heartbeats =
      Obs.Metrics.counter reg ~help:"Heartbeats observed by the detector"
        "qosalloc_cluster_heartbeats_total";
    i_steal_denied =
      Obs.Metrics.counter reg
        ~help:"Steal attempts that found no victim with headroom"
        "qosalloc_cluster_steal_denied_total";
    i_failover =
      per_node ~help:"In-flight attempts failed over to a replica"
        "qosalloc_cluster_failover_total";
    i_served =
      per_node ~help:"Requests served at full QoS"
        "qosalloc_cluster_served_total";
    i_shed =
      per_node ~help:"Requests shed from a saturated node"
        "qosalloc_cluster_shed_total";
    i_stolen =
      per_node ~help:"Requests stolen onto this node as the victim"
        "qosalloc_cluster_stolen_total";
    i_donated =
      per_node ~help:"Requests this overloaded node handed to a victim"
        "qosalloc_cluster_donated_total";
    i_breaker_opens =
      per_node ~help:"Circuit-breaker trips"
        "qosalloc_cluster_breaker_opens_total";
    i_saturation =
      Array.init nodes (fun n ->
          Obs.Metrics.gauge reg
            ~help:"Peak in-flight service fraction per node"
            ~labels:[ ("node", string_of_int n) ]
            "qosalloc_cluster_node_saturation");
    i_latency =
      Obs.Metrics.histogram reg
        ~help:"Request latency, arrival to response (us)"
        ~buckets:Obs.Metrics.latency_buckets_us "qosalloc_cluster_latency_us";
    i_steal_latency =
      Obs.Metrics.histogram reg
        ~help:"Latency of stolen requests, arrival to response (us)"
        ~buckets:Obs.Metrics.latency_buckets_us
        "qosalloc_cluster_steal_latency_us";
    i_lag =
      Obs.Metrics.histogram reg
        ~help:"Catch-up re-replication lag on rejoin (us)"
        ~buckets:Obs.Metrics.lag_buckets_us
        "qosalloc_cluster_replication_lag_us";
  }

(* The SLO trackers live independently of [?obs]: [--slo] must move the
   exit code even when nothing is exported. *)
type slo_tracker = {
  st_slo : Obs.Slo.t;
  st_name : string;
  st_good : response -> float -> bool;  (* response, latency_us *)
}

let make_slo_trackers (s : slo_spec) =
  let mk name =
    Obs.Slo.create
      {
        Obs.Slo.name;
        target = s.slo_availability;
        fast_window_us = s.slo_fast_window_us;
        slow_window_us = s.slo_slow_window_us;
        burn_threshold = s.slo_burn_threshold;
        min_samples = Obs.Slo.default_spec.Obs.Slo.min_samples;
      }
  in
  [
    {
      st_slo = mk "availability";
      st_name = "availability";
      st_good = (fun r _ -> match r with Full _ -> true | _ -> false);
    };
    {
      st_slo = mk "latency";
      st_name = "latency";
      st_good = (fun _ lat -> lat <= s.slo_latency_us);
    };
  ]

(* One request's walk down the degradation ladder.  The stage functions
   of [run] take this record instead of closing over the request, so
   admitting a request allocates the record and the events it
   schedules, and nothing per stage.  [p_tq] and the [p_saw_*] flags
   belong to the current round: [round] resets them, and the stages of
   that round — including a failover that resumes it later in sim-time
   — read them. *)
type pending = {
  p_idx : int;
  p_app : string;
  p_t0 : float;
  p_type : int;
  p_decision : Engine.decision;
  p_replicas : int list;
  mutable p_attempt : int;
  mutable p_tq : float;  (* detector query time, fixed at round start *)
  mutable p_saw_breaker : bool;
  mutable p_saw_down : bool;
  mutable p_saw_saturated : bool;
}

(* Latency accumulators: an all-float record stores its fields unboxed,
   so updating them allocates nothing. *)
type latency_acc = { mutable lat_sum : float; mutable lat_max : float }

(* Where a replica stands in one round: not attempted, or attempted
   behind (a suspect) or ahead of the others (up). *)
type candidacy = Skipped | Behind | Ahead

(* [route] filtered to the replicas whose candidacy in [classes] (same
   positions) is [cls], followed by [tail]. *)
let rec keep_class classes cls k tail = function
  | [] -> tail
  | node :: rest ->
      if classes.(k) = cls then node :: keep_class classes cls (k + 1) tail rest
      else keep_class classes cls (k + 1) tail rest

let validate (spec : spec) =
  let positive_finite x = Float.is_finite x && x > 0.0 in
  if not (positive_finite spec.duration_us) then
    Error
      (Printf.sprintf "serve: duration_us must be finite and > 0 (got %g)"
         spec.duration_us)
  else if not (positive_finite spec.load_scale) then
    Error
      (Printf.sprintf "serve: load_scale must be finite and > 0 (got %g)"
         spec.load_scale)
  else if fst spec.outage.Faults.Outages.transient_down_us < 0.0 then
    (* A negative duration would end an outage before it starts. *)
    Error "serve: transient outage durations must be >= 0"
  else Ok ()

let run ?obs (spec : spec) =
  let ( let* ) = Result.bind in
  let* () = validate spec in
  let* sub =
    Substrate.create ~vnodes:spec.vnodes ~fault_domains:spec.fault_domains
      ~nodes:spec.nodes ~replication:spec.replication ~engine:spec.engine
      spec.casebase
  in
  let sources, outage_seed, retry_seed = arrival_sources spec in
  let app_names = Array.of_list (List.map fst sources) in
  let stream = Workload.Stream.create (List.map snd sources) in
  let outage_inj = Faults.Injector.create ~seed:outage_seed in
  let retry_inj = Faults.Injector.create ~seed:retry_seed in
  let events =
    Faults.Outages.generate outage_inj ~nodes:spec.nodes
      ~duration_us:spec.duration_us spec.outage
  in
  (* Ground-truth outage intervals; permanent kills never end, so the
     retry tail past the workload horizon still sees them down. *)
  let down =
    Array.init spec.nodes (fun node ->
        Faults.Outages.down_intervals events ~duration_us:Float.infinity ~node)
  in
  (* Heartbeats and attempts query the indexed timelines; rejoin
     scheduling and the downtime total walk the interval lists. *)
  let timelines = Array.map Faults.Outages.timeline down in
  let is_down node t = Faults.Outages.is_down timelines.(node) t in
  let next_failure node t s =
    if is_down node t then Some (t +. spec.connect_timeout_us)
    else
      match Faults.Outages.next_start timelines.(node) ~after:t with
      | Some lo when lo <= t +. s -> Some lo
      | _ -> None
  in
  let sim = Desim.Engine.create () in
  (match obs with
  | Some o -> Obs.Ctx.set_clock o (fun () -> Desim.Engine.now sim)
  | None -> ());
  let ev =
    match obs with Some o -> o.Obs.Ctx.events | None -> Obs.Events.noop ()
  in
  let tracer =
    match obs with Some o -> o.Obs.Ctx.tracer | None -> Obs.Tracer.noop ()
  in
  let instr =
    match obs with
    | Some o -> Some (make_instr o.Obs.Ctx.registry ~nodes:spec.nodes)
    | None -> None
  in
  (* Both take a closed field selector, so a call allocates nothing
     even when metrics are off. *)
  let inc f = match instr with None -> () | Some i -> Obs.Metrics.inc (f i) in
  let inc_node f node =
    match instr with None -> () | Some i -> Obs.Metrics.inc (f i).(node)
  in
  let observing = Obs.Events.enabled ev in
  let slos = match spec.slo with None -> [] | Some s -> make_slo_trackers s in
  let detector =
    Health.create ~period_us:spec.heartbeat_period_us
      ~suspect_phi:spec.suspect_phi ~down_phi:spec.down_phi ~nodes:spec.nodes
      ()
  in
  let breakers =
    Array.init spec.nodes (fun _ -> Breaker.create ~config:spec.breaker ())
  in
  let served = Array.make spec.nodes 0 in
  let shed = Array.make spec.nodes 0 in
  let stolen = Array.make spec.nodes 0 in
  let donated = Array.make spec.nodes 0 in
  let resync_until = Array.make spec.nodes 0.0 in
  let resyncs = Array.make spec.nodes 0 in
  (* Last observed detector verdict / breaker state per node, so the
     event log carries transitions rather than a level sample per
     tick.  Both start in their creation state. *)
  let last_health = Array.make spec.nodes Health.Up in
  let last_breaker = Array.make spec.nodes Breaker.Closed in
  (* Breaker state changes on marks but also by cooldown expiry, so
     transitions are detected by observation: call at every point the
     ladder consults or updates a breaker. *)
  let sync_breaker node ~at =
    let st = Breaker.state breakers.(node) ~at in
    if st <> last_breaker.(node) then begin
      if observing then
        Obs.Events.record ev ~ts:at ~node
          (Obs.Events.Breaker_transition
             {
               prev = Breaker.state_to_string last_breaker.(node);
               next = Breaker.state_to_string st;
             });
      (match (last_breaker.(node), st) with
      | (Breaker.Closed | Breaker.Half_open), Breaker.Open ->
          inc_node (fun i -> i.i_breaker_opens) node
      | _ -> ());
      last_breaker.(node) <- st
    end
  in
  let heartbeats = ref 0 in
  let failovers = ref 0 in
  let retries = ref 0 in
  let steals = ref 0 in
  let steal_denials = ref 0 in
  let retain = spec.retain_requests in
  let outcomes : response option Vec.t = Vec.create () in
  let meta : (string * int * float) Vec.t = Vec.create () in
  let issued = ref 0 in
  let answered = ref 0 in
  let full_c = ref 0 in
  let degraded_c = ref 0 in
  let failed_c = ref 0 in
  let reason_counts = Array.make 4 0 in
  let lat_acc = Workload.Stats.create () in
  let lat = { lat_sum = 0.0; lat_max = 0.0 } in
  (* The detector has nothing new to say after the last scheduled
     heartbeat scan, so queries from the retry tail clamp to the
     horizon instead of decaying every node to Down. *)
  let query_time t = Float.min t spec.duration_us in
  (* Heartbeat scans: every live node beats; dead nodes miss and their
     phi accrues. *)
  let rec scan k _e =
    let t = float_of_int k *. spec.heartbeat_period_us in
    for node = 0 to spec.nodes - 1 do
      if not (is_down node t) then begin
        Health.beat detector ~node ~at:t;
        incr heartbeats;
        inc (fun i -> i.i_heartbeats)
      end;
      if observing then begin
        let st = Health.status detector ~node ~at:t in
        if st <> last_health.(node) then begin
          Obs.Events.record ev ~ts:t ~node
            (Obs.Events.Node_transition
               {
                 prev = Health.status_to_string last_health.(node);
                 next = Health.status_to_string st;
               });
          last_health.(node) <- st
        end
      end
    done;
    let next = float_of_int (k + 1) *. spec.heartbeat_period_us in
    if next <= spec.duration_us then
      Desim.Engine.schedule_at sim ~time:next (scan (k + 1))
  in
  (* Heartbeats and rejoin events enter the heap *after* any same-time
     arrival event in pregenerated mode (arrivals are scheduled first,
     so they win the insertion-order tie-break), matching streaming
     mode where an arrival is processed before the queue catches up to
     its timestamp — the two sources must replay identically. *)
  let schedule_control () =
    if spec.heartbeat_period_us <= spec.duration_us then
      Desim.Engine.schedule_at sim ~time:spec.heartbeat_period_us (scan 1);
    (* Rejoin after a transient outage: the node re-replicates what it
       missed before taking traffic again. *)
    Array.iteri
      (fun node intervals ->
        List.iter
          (fun (_, hi) ->
            if Float.is_finite hi then
              Desim.Engine.schedule_at sim ~time:hi (fun _ ->
                  let entries = (Substrate.node sub node).Substrate.entries in
                  let lag = float_of_int entries /. spec.resync_rate in
                  resync_until.(node) <- hi +. lag;
                  resyncs.(node) <- resyncs.(node) + 1;
                  if observing then
                    Obs.Events.record ev ~ts:hi ~node
                      (Obs.Events.Node_rejoin { resync_lag_us = lag });
                  match instr with
                  | None -> ()
                  | Some i -> Obs.Metrics.observe i.i_lag lag))
          intervals)
      down
  in
  let breaker_watch = observing || Option.is_some instr in
  let load_of v = Substrate.load sub ~node:v in
  (* Per-replica class scratch for [round]; filled and consumed within
     one call, so one buffer serves every request. *)
  let classes = Array.make spec.nodes Skipped in
  let rec record_slos r lat_us now = function
    | [] -> ()
    | st :: rest ->
        (match Obs.Slo.record st.st_slo ~at:now ~good:(st.st_good r lat_us) with
        | None -> ()
        | Some al ->
            if observing then
              Obs.Events.record ev ~ts:now
                (Obs.Events.Slo_alert
                   {
                     objective = st.st_name;
                     state = Obs.Slo.transition_to_string al.Obs.Slo.al_transition;
                     burn_fast = al.Obs.Slo.al_burn_fast;
                     burn_slow = al.Obs.Slo.al_burn_slow;
                   }));
        record_slos r lat_us now rest
  in
  (* --- The degradation ladder, one function per stage. *)
  (* Answer request [idx]: aggregates, retention, events, metrics. *)
  let respond ~idx ~app ~t0 r =
    let now = Desim.Engine.now sim in
    incr answered;
    if retain then Vec.set outcomes idx (Some r);
    let lat_us = now -. t0 in
    Workload.Stats.add lat_acc lat_us;
    lat.lat_sum <- lat.lat_sum +. lat_us;
    if lat_us > lat.lat_max then lat.lat_max <- lat_us;
    (match r with
    | Full { node; decision } ->
        incr full_c;
        if observing then
          Obs.Events.record ev ~ts:now ~request:idx ~node
            (Obs.Events.Request_completed
               {
                 at_node = node;
                 impl_id = decision.Engine.impl_id;
                 latency_us = lat_us;
               });
        inc (fun i -> i.i_full)
    | Degraded { stale_impl; reason } ->
        incr degraded_c;
        reason_counts.(reason_index reason) <-
          reason_counts.(reason_index reason) + 1;
        if observing then
          Obs.Events.record ev ~ts:now ~request:idx
            (Obs.Events.Request_degraded
               { reason = reason_to_string reason; stale_impl });
        inc (fun i -> i.i_degraded)
    | Failed msg ->
        incr failed_c;
        if observing then
          Obs.Events.record ev ~ts:now ~request:idx
            (Obs.Events.Request_failed { error = msg });
        inc (fun i -> i.i_failed));
    (match instr with
    | None -> ()
    | Some i -> Obs.Metrics.observe i.i_latency lat_us);
    (* Overlapping requests forbid B/E nesting; X events carry their
       own extent and Perfetto nests them by time containment. *)
    if Obs.Tracer.enabled tracer then
      Obs.Tracer.complete tracer ~ts:t0 ~dur:lat_us
        ~args:
          [
            ("request", string_of_int idx);
            ("app", app);
            ("outcome", response_tag r);
          ]
        "request";
    record_slos r lat_us now slos
  in
  let attempt_span p ~node ~from outcome ~until =
    if Obs.Tracer.enabled tracer then
      Obs.Tracer.complete tracer ~ts:from ~dur:(until -. from)
        ~args:
          [
            ("request", string_of_int p.p_idx);
            ("node", string_of_int node);
            ("outcome", outcome);
          ]
        "attempt"
  in
  (* Class each replica of [p] for the round into [classes]; returns
     how many are not up. *)
  let rec classify p ~now k = function
    | [] -> 0
    | node :: rest ->
        if breaker_watch then sync_breaker node ~at:now;
        let cls =
          match Health.status detector ~node ~at:p.p_tq with
          | Health.Down ->
              p.p_saw_down <- true;
              Skipped
          | _ when now < resync_until.(node) ->
              p.p_saw_down <- true;
              Skipped
          | _ when not (Breaker.allows breakers.(node) ~at:now) ->
              p.p_saw_breaker <- true;
              Skipped
          | Health.Suspect -> Behind
          | Health.Up -> Ahead
        in
        classes.(k) <- cls;
        (if cls = Ahead then 0 else 1) + classify p ~now (k + 1) rest
  in
  (* Start a round: skip detector-down / re-syncing / breaker-open
     replicas; suspects stay eligible but go to the back of the line.
     When every replica is up the route itself is the candidate list. *)
  let rec round p =
    let now = Desim.Engine.now sim in
    p.p_tq <- query_time now;
    p.p_saw_breaker <- false;
    p.p_saw_down <- false;
    p.p_saw_saturated <- false;
    let candidates =
      if classify p ~now 0 p.p_replicas = 0 then p.p_replicas
      else
        keep_class classes Ahead 0
          (keep_class classes Behind 0 [] p.p_replicas)
          p.p_replicas
    in
    try_candidates p candidates
  (* Next candidate, or — with none left — back off and retry the round,
     or answer degraded with the stale decision. *)
  and try_candidates p = function
    | node :: rest -> dispatch p node rest
    | [] ->
        if p.p_attempt < spec.max_retries then begin
          incr retries;
          inc (fun i -> i.i_retries);
          let u =
            if spec.backoff.Faults.Backoff.jitter > 0.0 then
              Faults.Injector.uniform retry_inj
            else 0.5
          in
          let attempt = p.p_attempt in
          let delay = Faults.Backoff.delay spec.backoff ~attempt ~u in
          if observing then
            Obs.Events.record ev ~ts:(Desim.Engine.now sim) ~request:p.p_idx
              (Obs.Events.Request_retry { attempt; delay_us = delay });
          p.p_attempt <- attempt + 1;
          Desim.Engine.schedule sim ~delay (fun _ -> round p)
        end
        else
          let reason =
            if p.p_saw_saturated then Saturated
            else if p.p_saw_breaker then Breaker_open
            else if p.p_saw_down then All_replicas_down
            else Retries_exhausted
          in
          respond ~idx:p.p_idx ~app:p.p_app ~t0:p.p_t0
            (Degraded
               { stale_impl = Some p.p_decision.Engine.impl_id; reason })
  (* Steal from an overloaded [node] to a victim, shed a saturated one,
     or serve on it. *)
  and dispatch p node rest =
    let now = Desim.Engine.now sim in
    let nd = Substrate.node sub node in
    let inflight_n = nd.Substrate.inflight and slots = nd.Substrate.slots in
    let steal_pick =
      if
        spec.steal.Steal.enabled
        && Steal.overloaded spec.steal ~inflight:inflight_n ~slots
      then begin
        (* Eligibility reads the round's query time, not [now]: after a
           failover [now] has moved on but the round's verdicts stand. *)
        let tq = p.p_tq and type_id = p.p_type in
        let eligible v =
          if breaker_watch then sync_breaker v ~at:now;
          Health.status detector ~node:v ~at:tq = Health.Up
          && now >= resync_until.(v)
          && Breaker.allows breakers.(v) ~at:now
        in
        let pick =
          Steal.select spec.steal ~salt:p.p_idx ~donor:node
            ~replicas:p.p_replicas ~members:(Substrate.members sub) ~eligible
            ~load:load_of
            ~holds:(fun v -> Substrate.holds sub ~node:v ~type_id)
        in
        (match pick with
        | Some pk ->
            incr steals;
            donated.(node) <- donated.(node) + 1;
            stolen.(pk.Steal.victim) <- stolen.(pk.Steal.victim) + 1;
            inc_node (fun i -> i.i_donated) node;
            inc_node (fun i -> i.i_stolen) pk.Steal.victim;
            if observing then
              Obs.Events.record ev ~ts:now ~request:p.p_idx ~node
                (Obs.Events.Request_steal
                   {
                     from_node = node;
                     to_node = Some pk.Steal.victim;
                     scope = Steal.scope_to_string pk.Steal.scope;
                   })
        | None ->
            incr steal_denials;
            inc (fun i -> i.i_steal_denied);
            if observing then
              Obs.Events.record ev ~ts:now ~request:p.p_idx ~node
                (Obs.Events.Request_steal
                   { from_node = node; to_node = None; scope = "denied" }));
        pick
      end
      else None
    in
    match steal_pick with
    | Some pk -> execute p ~node:pk.Steal.victim ~stolen:steal_pick rest
    | None ->
        if inflight_n >= slots then begin
          (* Saturated: shed towards the next replica, the
             [Parallel.Bqueue] contract at cluster scope. *)
          p.p_saw_saturated <- true;
          shed.(node) <- shed.(node) + 1;
          inc_node (fun i -> i.i_shed) node;
          if observing then
            Obs.Events.record ev ~ts:now ~request:p.p_idx ~node
              (Obs.Events.Request_shed { at_node = node });
          try_candidates p rest
        end
        else execute p ~node ~stolen:None rest
  (* Serve on [node] (possibly a steal victim); on an outage mid-flight,
     fail over to the remaining candidates. *)
  and execute p ~node ~stolen rest =
    let now = Desim.Engine.now sim in
    (match Breaker.state breakers.(node) ~at:now with
    | Breaker.Half_open -> Breaker.mark_probe breakers.(node)
    | _ -> ());
    let nd = Substrate.node sub node in
    let prev_peak = nd.Substrate.peak_inflight in
    Substrate.acquire sub ~node;
    if nd.Substrate.inflight > prev_peak then begin
      match instr with
      | None -> ()
      | Some i ->
          Obs.Metrics.set i.i_saturation.(node)
            (float_of_int nd.Substrate.inflight
            /. float_of_int nd.Substrate.slots)
    end;
    let s =
      service_us spec p.p_decision
      +.
      match stolen with
      | Some pk when pk.Steal.resync -> spec.steal.Steal.transfer_penalty_us
      | _ -> 0.0
    in
    match next_failure node now s with
    | None ->
        Desim.Engine.schedule sim ~delay:s (fun _ ->
            complete p ~node ~stolen ~from:now)
    | Some tf ->
        (* The outage kills this attempt in flight: fail over to the
           next replica at the failure time. *)
        Desim.Engine.schedule_at sim ~time:tf (fun _ ->
            fail_over p ~node ~from:now ~tf rest)
  and complete p ~node ~stolen ~from =
    let tdone = Desim.Engine.now sim in
    Substrate.release sub ~node;
    Breaker.record_success breakers.(node) ~at:tdone;
    if breaker_watch then sync_breaker node ~at:tdone;
    served.(node) <- served.(node) + 1;
    inc_node (fun i -> i.i_served) node;
    (match (stolen, instr) with
    | Some _, Some i -> Obs.Metrics.observe i.i_steal_latency (tdone -. p.p_t0)
    | _ -> ());
    attempt_span p ~node ~from "ok" ~until:tdone;
    respond ~idx:p.p_idx ~app:p.p_app ~t0:p.p_t0
      (Full { node; decision = p.p_decision })
  and fail_over p ~node ~from ~tf rest =
    Substrate.release sub ~node;
    Breaker.record_failure breakers.(node) ~at:tf;
    if breaker_watch then sync_breaker node ~at:tf;
    incr failovers;
    inc_node (fun i -> i.i_failover) node;
    if observing then
      Obs.Events.record ev ~ts:tf ~request:p.p_idx ~node
        (Obs.Events.Request_failover { from_node = node });
    attempt_span p ~node ~from "failover" ~until:tf;
    try_candidates p rest
  in
  (* Admit one arrival: a failed decision answers at once, a good one
     starts the ladder's first round. *)
  let start_request idx ~app ~t0 ~(request : Request.t) ~decision =
    incr issued;
    let type_id = request.Request.type_id in
    if retain then begin
      Vec.push outcomes None;
      Vec.push meta (app, type_id, t0)
    end;
    if observing then
      Obs.Events.record ev ~ts:t0 ~request:idx
        (Obs.Events.Request_admitted { app; type_id });
    match decision with
    | Error e -> respond ~idx ~app ~t0 (Failed (Engine.error_to_string e))
    | Ok decision ->
        round
          {
            p_idx = idx;
            p_app = app;
            p_t0 = t0;
            p_type = type_id;
            p_decision = decision;
            p_replicas = Substrate.replicas_for sub ~type_id;
            p_attempt = 0;
            p_tq = t0;
            p_saw_breaker = false;
            p_saw_down = false;
            p_saw_saturated = false;
          }
  in
  (* Feed the arrivals.  Pregenerated mode expands the whole trace,
     shards the decisions over [jobs] and schedules every arrival as a
     heap event; streaming mode pulls arrivals one at a time, runs the
     queue up to each arrival's timestamp and computes its decision
     inline on the primary's engine (the identical pure call the
     sharded phase makes).  Both replay the same control schedule. *)
  (match spec.source with
  | Pregenerated ->
      let arrivals =
        drain_arrivals ?max_items:spec.max_requests ~names:app_names stream
      in
      let decisions = compute_decisions sub arrivals ~jobs:spec.jobs in
      Array.iteri
        (fun idx a ->
          Desim.Engine.schedule_at sim ~time:a.a_at_us (fun _ ->
              start_request idx ~app:a.a_app ~t0:a.a_at_us ~request:a.a_request
                ~decision:decisions.(idx)))
        arrivals;
      schedule_control ();
      (* Run to quiescence, not to the horizon: the retry tail of the
         last arrivals must resolve — every request answers, full or
         degraded. *)
      ignore (Desim.Engine.run sim)
  | Stream ->
      schedule_control ();
      let decide (request : Request.t) =
        let primary =
          match Substrate.replicas_for sub ~type_id:request.Request.type_id with
          | p :: _ -> p
          | [] -> 0
        in
        match (Substrate.node sub primary).Substrate.engine with
        | None -> Error (Engine.Engine_failure "node hosts no types")
        | Some e -> e.Engine.retrieve request
      in
      let cap = Option.value spec.max_requests ~default:max_int in
      let rec drive idx =
        if idx >= cap then ()
        else
          match Workload.Stream.pull stream with
          | None -> ()
          | Some (src, t, request) ->
              ignore (Desim.Engine.run_before sim ~time:t);
              Desim.Engine.advance sim ~time:t;
              start_request idx ~app:app_names.(src) ~t0:t ~request
                ~decision:(decide request);
              drive (idx + 1)
      in
      drive 0;
      ignore (Desim.Engine.run sim));
  let n_req = !issued in
  let* () =
    if !answered <> n_req then
      Error
        (Printf.sprintf "serve: %d requests left unresolved" (n_req - !answered))
    else Ok ()
  in
  let downtime node =
    List.fold_left
      (fun a (lo, hi) ->
        a
        +. Float.max 0.0
             (Float.min spec.duration_us hi -. Float.min spec.duration_us lo))
      0.0 down.(node)
  in
  let per_node =
    List.init spec.nodes (fun i ->
        let node = Substrate.node sub i in
        {
          ns_node = i;
          ns_domain = node.Substrate.fault_domain;
          ns_types = List.length node.Substrate.hosted_types;
          ns_entries = node.Substrate.entries;
          ns_slots = node.Substrate.slots;
          ns_served = served.(i);
          ns_shed = shed.(i);
          ns_stolen = stolen.(i);
          ns_donated = donated.(i);
          ns_peak_inflight = node.Substrate.peak_inflight;
          ns_breaker_opens = Breaker.opens breakers.(i);
          ns_downtime_us = downtime i;
          ns_resyncs = resyncs.(i);
          ns_end_status =
            Health.status detector ~node:i ~at:spec.duration_us;
        })
  in
  let end_ts = Float.max spec.duration_us (Desim.Engine.now sim) in
  let slo_reports =
    List.map (fun st -> Obs.Slo.report st.st_slo ~at:end_ts) slos
  in
  let outcomes_arr =
    if retain then
      Array.map
        (function Some r -> r | None -> Failed "unresolved")
        (Vec.to_array outcomes)
    else [||]
  in
  let report =
    {
      seed = spec.seed;
      duration_us = spec.duration_us;
      nodes = spec.nodes;
      replication = sub.Substrate.replication;
      fault_domains = spec.fault_domains;
      jobs = max 1 spec.jobs;
      engine_name = spec.engine_name;
      requests = n_req;
      full = !full_c;
      degraded = !degraded_c;
      failed = !failed_c;
      availability =
        (if n_req = 0 then 1.0 else float_of_int !full_c /. float_of_int n_req);
      failovers = !failovers;
      retries = !retries;
      sheds = Array.fold_left ( + ) 0 shed;
      steals = !steals;
      steal_denials = !steal_denials;
      outage_events = List.length events;
      heartbeats = !heartbeats;
      degraded_reasons =
        List.map
          (fun r -> (reason_to_string r, reason_counts.(reason_index r)))
          [ Breaker_open; All_replicas_down; Saturated; Retries_exhausted ];
      per_node;
      mean_latency_us =
        (if n_req = 0 then 0.0 else lat.lat_sum /. float_of_int n_req);
      max_latency_us = lat.lat_max;
      latency = Workload.Stats.finalize lat_acc;
      outcomes = outcomes_arr;
      request_meta = Vec.to_array meta;
      slo = slo_reports;
    }
  in
  Ok report

(* --- rendering -------------------------------------------------------------- *)

(* [jobs] and the arrival source are deliberately absent: the rendering
   (and so the digest) is the cross-[jobs] and stream-vs-pregenerated
   determinism contract. *)
let results_to_string (r : report) =
  let buf = Buffer.create (96 * (r.requests + 16)) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "cluster-results v2\n";
  add "seed=%d duration_us=%.1f nodes=%d replication=%d domains=%d engine=%s\n"
    r.seed r.duration_us r.nodes r.replication r.fault_domains r.engine_name;
  add "requests=%d full=%d degraded=%d failed=%d availability=%.6f\n"
    r.requests r.full r.degraded r.failed r.availability;
  add
    "failovers=%d retries=%d sheds=%d steals=%d steal-denials=%d outages=%d \
     heartbeats=%d\n"
    r.failovers r.retries r.sheds r.steals r.steal_denials r.outage_events
    r.heartbeats;
  (match r.latency with
  | None -> ()
  | Some l ->
      add "latency mean=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f\n"
        l.Workload.Stats.mean l.Workload.Stats.p50 l.Workload.Stats.p90
        l.Workload.Stats.p95 l.Workload.Stats.p99 l.Workload.Stats.maximum);
  add "degraded:";
  List.iter (fun (k, v) -> add " %s=%d" k v) r.degraded_reasons;
  add "\n";
  List.iter
    (fun ns ->
      add
        "node %d: domain=%d types=%d entries=%d slots=%d served=%d shed=%d \
         stolen=%d donated=%d peak=%d opens=%d downtime_us=%.1f resyncs=%d \
         end=%s\n"
        ns.ns_node ns.ns_domain ns.ns_types ns.ns_entries ns.ns_slots
        ns.ns_served ns.ns_shed ns.ns_stolen ns.ns_donated ns.ns_peak_inflight
        ns.ns_breaker_opens ns.ns_downtime_us ns.ns_resyncs
        (Health.status_to_string ns.ns_end_status))
    r.per_node;
  Array.iteri
    (fun i o ->
      let app, type_id, at = r.request_meta.(i) in
      add "%4d app=%s type=%d t=%.3f " i app type_id at;
      (match o with
      | Full { node; decision } ->
          add "full node=%d impl=%d score=%d" node decision.Engine.impl_id
            (Fxp.Q15.to_raw decision.Engine.score)
      | Degraded { stale_impl; reason } ->
          add "degraded stale=%s reason=%s"
            (match stale_impl with Some i -> string_of_int i | None -> "-")
            (reason_to_string reason)
      | Failed msg -> add "failed: %s" msg);
      add "\n")
    r.outcomes;
  Buffer.contents buf

let results_digest r = Digest.to_hex (Digest.string (results_to_string r))

let pp ppf (r : report) =
  Format.fprintf ppf
    "cluster serve: seed=%d nodes=%d replication=%d domains=%d jobs=%d \
     engine=%s@,"
    r.seed r.nodes r.replication r.fault_domains r.jobs r.engine_name;
  Format.fprintf ppf
    "requests=%d full=%d degraded=%d failed=%d availability=%.4f@," r.requests
    r.full r.degraded r.failed r.availability;
  Format.fprintf ppf
    "failovers=%d retries=%d sheds=%d steals=%d steal-denials=%d outages=%d \
     heartbeats=%d@,"
    r.failovers r.retries r.sheds r.steals r.steal_denials r.outage_events
    r.heartbeats;
  Format.fprintf ppf "latency mean=%.1fus max=%.1fus@," r.mean_latency_us
    r.max_latency_us;
  (match r.latency with
  | None -> ()
  | Some l -> Format.fprintf ppf "latency %a@," Workload.Stats.pp_summary l);
  List.iter
    (fun s ->
      Format.fprintf ppf
        "slo %s: target=%.4f attained=%.4f met=%b alerts=%d firing=%.0fus@,"
        s.Obs.Slo.r_spec.Obs.Slo.name s.Obs.Slo.r_spec.Obs.Slo.target
        s.Obs.Slo.r_attained s.Obs.Slo.r_met s.Obs.Slo.r_alerts_fired
        s.Obs.Slo.r_firing_us)
    r.slo;
  List.iter
    (fun ns ->
      Format.fprintf ppf
        "  node %d (domain %d): served=%d shed=%d stolen=%d donated=%d \
         downtime=%.0fus resyncs=%d breaker-opens=%d end=%s@,"
        ns.ns_node ns.ns_domain ns.ns_served ns.ns_shed ns.ns_stolen
        ns.ns_donated ns.ns_downtime_us ns.ns_resyncs ns.ns_breaker_opens
        (Health.status_to_string ns.ns_end_status))
    r.per_node;
  Format.fprintf ppf "digest=%s" (results_digest r)
