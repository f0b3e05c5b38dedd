(* Cluster substrate: consistent-hash placement, the phi failure
   detector, circuit breakers, capped jittered backoff, seeded outage
   campaigns, and the serve run's robustness contract — zero
   unrecovered requests and a jobs-invariant report digest. *)

open Qos_core
module Ring = Cluster.Ring
module Health = Cluster.Health
module Breaker = Cluster.Breaker
module Substrate = Cluster.Substrate
module Steal = Cluster.Steal
module Serve = Cluster.Serve
module Backoff = Faults.Backoff
module Outages = Faults.Outages
module Injector = Faults.Injector
module Ev = Obs.Events

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let get = function Ok x -> x | Error e -> Alcotest.fail e

let six_nodes = List.init 6 (fun i -> (i, i mod 3))

(* --- ring ------------------------------------------------------------------ *)

let test_ring_route () =
  let ring = get (Ring.create ~nodes:six_nodes ()) in
  check_int "members" 6 (List.length (Ring.node_ids ring));
  let r = Ring.route ring ~key:3 ~replicas:3 in
  check_int "replica count" 3 (List.length r);
  check_int "distinct" 3 (List.length (List.sort_uniq compare r));
  check_bool "deterministic" true (Ring.route ring ~key:3 ~replicas:3 = r);
  check_int "oversubscribed walk returns everyone" 6
    (List.length (Ring.route ring ~key:3 ~replicas:99));
  Alcotest.check_raises "bad replicas"
    (Invalid_argument "Ring.route: replicas must be >= 1") (fun () ->
      ignore (Ring.route ring ~key:1 ~replicas:0))

let test_ring_domain_diversity () =
  (* Three domains, three replicas: every replica set must use each
     domain exactly once, so one rack outage never strands a type. *)
  let ring = get (Ring.create ~nodes:six_nodes ()) in
  for key = 1 to 50 do
    let domains =
      List.map
        (fun n -> Option.get (Ring.domain_of ring n))
        (Ring.route ring ~key ~replicas:3)
    in
    check_int
      (Printf.sprintf "key %d spans all domains" key)
      3
      (List.length (List.sort_uniq compare domains))
  done

let test_ring_spread () =
  let ring = get (Ring.create ~nodes:six_nodes ()) in
  let keys = List.init 100 (fun i -> i + 1) in
  let census = Ring.spread ring ~keys ~replicas:3 in
  check_int "census covers members" 6 (List.length census);
  check_int "every key counted once per replica" 300
    (List.fold_left (fun a (_, c) -> a + c) 0 census);
  List.iter
    (fun (node, count) ->
      check_bool (Printf.sprintf "node %d hosts something" node) true
        (count > 0))
    census

(* --- health ---------------------------------------------------------------- *)

let test_health_thresholds () =
  let h = Health.create ~period_us:500.0 ~nodes:2 () in
  Health.beat h ~node:0 ~at:1_000.0;
  check_bool "fresh beat is up" true
    (Health.status h ~node:0 ~at:1_100.0 = Health.Up);
  check_bool "phi is zero at the beat" true (Health.phi h ~node:0 ~at:1_000.0 = 0.0);
  (* suspect_phi 1.0 crosses at ~2.3 missed periods *)
  check_bool "late beats turn suspect" true
    (Health.status h ~node:0 ~at:(1_000.0 +. (2.5 *. 500.0)) = Health.Suspect);
  (* down_phi 3.0 crosses at ~6.9 missed periods *)
  check_bool "very late beats turn down" true
    (Health.status h ~node:0 ~at:(1_000.0 +. (8.0 *. 500.0)) = Health.Down);
  Health.beat h ~node:0 ~at:5_000.0;
  check_bool "a beat recovers the node" true
    (Health.status h ~node:0 ~at:5_100.0 = Health.Up);
  Health.beat h ~node:0 ~at:4_000.0;
  check_bool "beats never move time backwards" true
    (Health.last_beat h ~node:0 = 5_000.0)

(* --- breaker --------------------------------------------------------------- *)

let test_breaker_ladder () =
  let b =
    Breaker.create
      ~config:{ Breaker.failure_threshold = 3; cooldown_us = 1_000.0 }
      ()
  in
  Breaker.record_failure b ~at:10.0;
  Breaker.record_failure b ~at:20.0;
  check_bool "under threshold stays closed" true (Breaker.allows b ~at:25.0);
  Breaker.record_failure b ~at:30.0;
  check_bool "third consecutive failure opens" true
    (Breaker.state b ~at:31.0 = Breaker.Open);
  check_bool "open sheds" false (Breaker.allows b ~at:500.0);
  check_bool "cooldown expiry goes half-open" true
    (Breaker.state b ~at:1_031.0 = Breaker.Half_open);
  check_bool "half-open admits one probe" true (Breaker.allows b ~at:1_031.0);
  Breaker.mark_probe b;
  check_bool "probe slot taken" false (Breaker.allows b ~at:1_032.0);
  Breaker.record_failure b ~at:1_040.0;
  check_bool "failed probe re-opens" true
    (Breaker.state b ~at:1_041.0 = Breaker.Open);
  check_int "two trips recorded" 2 (Breaker.opens b);
  Breaker.record_success b ~at:2_100.0;
  check_bool "successful probe closes" true
    (Breaker.state b ~at:2_101.0 = Breaker.Closed && Breaker.allows b ~at:2_101.0)

(* --- backoff --------------------------------------------------------------- *)

let test_backoff_cap_and_jitter () =
  let p =
    { Backoff.base_us = 200.0; factor = 2.0; cap_us = 1_000.0; jitter = 0.25 }
  in
  let mid = { p with Backoff.jitter = 0.0 } in
  check_bool "attempt 0 is the base" true
    (Backoff.delay mid ~attempt:0 ~u:0.5 = 200.0);
  check_bool "attempt 2 is base*factor^2" true
    (Backoff.delay mid ~attempt:2 ~u:0.5 = 800.0);
  check_bool "the exponential is capped" true
    (Backoff.delay mid ~attempt:20 ~u:0.5 = 1_000.0);
  (* Jitter stays inside [capped*(1-j), capped*(1+j)). *)
  List.iter
    (fun u ->
      let d = Backoff.delay p ~attempt:20 ~u in
      check_bool
        (Printf.sprintf "jittered delay in bounds at u=%.2f" u)
        true
        (d >= 750.0 && d < 1_250.0))
    [ 0.0; 0.25; 0.5; 0.75; 0.999 ];
  check_bool "max_delay bounds the envelope" true
    (Backoff.max_delay p = 1_250.0);
  Alcotest.check_raises "jitter must stay below 1"
    (Invalid_argument "Backoff.delay: jitter must be in [0, 1)") (fun () ->
      ignore (Backoff.delay { p with Backoff.jitter = 1.0 } ~attempt:0 ~u:0.5))

(* --- outages --------------------------------------------------------------- *)

let outage_spec =
  {
    Outages.permanent_frac = 0.34;
    permanent_window = (0.2, 0.7);
    transient_mean_us = Some 20_000.0;
    transient_down_us = (1_000.0, 5_000.0);
  }

let test_outages_schedule () =
  let gen () =
    Outages.generate
      (Injector.create ~seed:5)
      ~nodes:6 ~duration_us:100_000.0 outage_spec
  in
  let events = gen () in
  check_bool "same seed, same schedule" true (events = gen ());
  let kills =
    List.filter (fun e -> e.Outages.ev_kind = `Permanent) events
  in
  check_int "floor(0.34 * 6) permanent kills" 2 (List.length kills);
  check_int "distinct victims" 2
    (List.length
       (List.sort_uniq compare (List.map (fun e -> e.Outages.ev_node) kills)));
  let times = List.map (fun e -> e.Outages.ev_at_us) events in
  check_bool "sorted by time" true (List.sort compare times = times);
  for node = 0 to 5 do
    let spans =
      Outages.down_intervals events ~duration_us:100_000.0 ~node
    in
    ignore
      (List.fold_left
         (fun prev (lo, hi) ->
           check_bool "interval well-formed" true (lo < hi);
           check_bool "intervals disjoint and sorted" true (lo > prev);
           hi)
         (-1.0) spans)
  done

(* --- substrate ------------------------------------------------------------- *)

let native = get (Engines.of_name "native")

let test_substrate_placement () =
  let cb = Desim.Apps.reference_casebase in
  let sub =
    get
      (Substrate.create ~nodes:6 ~replication:3 ~fault_domains:3 ~engine:native
         cb)
  in
  check_int "replication effective" 3 sub.Substrate.replication;
  let total_impls =
    List.fold_left
      (fun a (ft : Ftype.t) -> a + List.length ft.Ftype.impls)
      0 cb.Casebase.ftypes
  in
  let hosted_entries =
    Array.fold_left (fun a n -> a + n.Substrate.entries) 0 sub.Substrate.nodes
  in
  check_int "every entry hosted replication times" (3 * total_impls)
    hosted_entries;
  List.iter
    (fun (ft : Ftype.t) ->
      let replicas = Substrate.replicas_for sub ~type_id:ft.Ftype.id in
      check_int "replica set size" 3 (List.length replicas);
      List.iter
        (fun r ->
          let node = Substrate.node sub r in
          check_bool "replica hosts the type" true
            (List.mem ft.Ftype.id node.Substrate.hosted_types);
          check_bool "replica has an engine" true
            (node.Substrate.engine <> None))
        replicas)
    cb.Casebase.ftypes

(* --- serve ----------------------------------------------------------------- *)

let spec ?(duration_us = 60_000.0) ?(seed = 7) ?(nodes = 6) ?(replication = 3)
    ?(jobs = 1) ?(outage = Outages.default_spec) () =
  let d = Serve.default_spec () in
  { d with Serve.duration_us; seed; nodes; replication; jobs; outage }

let test_serve_clean () =
  let s = spec ~duration_us:20_000.0 ~seed:42 () in
  let r = get (Serve.run s) in
  check_bool "has requests" true (r.Serve.requests > 0);
  check_int "all full" r.Serve.requests r.Serve.full;
  check_bool "availability 1.0" true (r.Serve.availability = 1.0);
  check_int "clean exit" 0 (Serve.exit_code ~min_availability:0.99 r);
  let again = get (Serve.run s) in
  check_bool "byte-identical rerun" true
    (String.equal (Serve.results_to_string r) (Serve.results_to_string again))

let test_serve_chaos_acceptance () =
  (* The ISSUE acceptance: a seeded campaign permanently killing 1/3 of
     the nodes and bouncing the rest must complete with every request
     answered (full or explicitly degraded), >= 99% full-QoS
     availability, and a report digest that is byte-identical at any
     --jobs. *)
  let run jobs =
    get (Serve.run (spec ~duration_us:200_000.0 ~seed:7 ~jobs ~outage:outage_spec ()))
  in
  let r1 = run 1 in
  check_bool "outages actually happened" true (r1.Serve.outage_events > 0);
  check_int "zero unrecovered requests" 0 r1.Serve.failed;
  check_int "every request answered" r1.Serve.requests
    (r1.Serve.full + r1.Serve.degraded);
  check_bool "availability >= 99%" true (r1.Serve.availability >= 0.99);
  check_bool "failovers exercised" true (r1.Serve.failovers > 0);
  check_bool "verdict at worst degraded-recovered" true
    (Serve.exit_code ~min_availability:0.99 r1 <= 1);
  let d1 = Serve.results_digest r1 in
  check_bool "digest invariant at jobs=3" true
    (String.equal d1 (Serve.results_digest (run 3)));
  check_bool "digest invariant at jobs=4" true
    (String.equal d1 (Serve.results_digest (run 4)))

let test_serve_degraded_path () =
  (* Replication 1 leaves no replica to fail over to: killing nodes
     must degrade (stale decisions), never drop requests. *)
  let outage = { outage_spec with Outages.permanent_frac = 0.5 } in
  let r =
    get (Serve.run (spec ~duration_us:100_000.0 ~seed:3 ~replication:1 ~outage ()))
  in
  check_int "zero unrecovered" 0 r.Serve.failed;
  check_bool "degradation engaged" true (r.Serve.degraded > 0);
  Array.iter
    (function
      | Serve.Degraded { stale_impl; _ } ->
          check_bool "degraded carries the stale decision" true
            (stale_impl <> None)
      | Serve.Full _ -> ()
      | Serve.Failed msg -> Alcotest.fail ("unexpected failure: " ^ msg))
    r.Serve.outcomes

let test_serve_rejects_negative_outages () =
  let outage =
    { outage_spec with Outages.transient_down_us = (-500.0, -100.0) }
  in
  match Serve.run (spec ~duration_us:20_000.0 ~outage ()) with
  | Ok _ -> Alcotest.fail "negative outage durations accepted"
  | Error e ->
      Alcotest.(check string)
        "diagnostic" "serve: transient outage durations must be >= 0" e

(* Malformed inputs are refused up front: before this check a zero or
   NaN load scale escaped as an uncaught exception and an infinite or
   NaN horizon never finished. *)
let test_serve_rejects ~duration_us ~load_scale expected () =
  let s = { (spec ~duration_us ()) with Serve.load_scale; source = Serve.Stream;
            max_requests = Some 100 } in
  match Serve.run s with
  | Ok _ -> Alcotest.fail "malformed spec accepted"
  | Error e -> Alcotest.(check string) "diagnostic" expected e

let malformed_cases =
  [
    ("load_scale 0", 20_000.0, 0.0, "serve: load_scale must be finite and > 0 (got 0)");
    ("load_scale nan", 20_000.0, Float.nan,
     "serve: load_scale must be finite and > 0 (got nan)");
    ("load_scale inf", 20_000.0, Float.infinity,
     "serve: load_scale must be finite and > 0 (got inf)");
    ("load_scale negative", 20_000.0, -2.0,
     "serve: load_scale must be finite and > 0 (got -2)");
    ("duration inf", Float.infinity, 1.0,
     "serve: duration_us must be finite and > 0 (got inf)");
    ("duration nan", Float.nan, 1.0,
     "serve: duration_us must be finite and > 0 (got nan)");
    ("duration 0", 0.0, 1.0, "serve: duration_us must be finite and > 0 (got 0)");
  ]

(* The streamed serve path's allocation budget, in minor words per
   request for the whole run.  Deterministic for a given compiler, so a
   change that brings back per-request closures, option boxes or
   boxed sorting fails here rather than only in a benchmark. *)
let test_serve_alloc_budget () =
  let n = 20_000 in
  let s =
    {
      (Serve.default_spec ()) with
      Serve.seed = 5;
      load_scale = 400.0;
      source = Serve.Stream;
      max_requests = Some n;
      retain_requests = false;
    }
  in
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let r = get (Serve.run s) in
  let per_req = (Gc.minor_words () -. w0) /. float_of_int r.Serve.requests in
  check_int "requests" n r.Serve.requests;
  if per_req > 160.0 then
    Alcotest.failf "%.1f minor words per request, budget 160" per_req

(* [factory]'s engines, each retrieve adding its minor words to [words]
   and one to [calls]. *)
let counting factory ~calls ~words cb =
  Result.map
    (fun (e : Engine.t) ->
      let retrieve r =
        let w0 = Gc.minor_words () in
        let d = e.Engine.retrieve r in
        words := !words +. (Gc.minor_words () -. w0);
        incr calls;
        d
      in
      { e with Engine.retrieve })
    (factory cb)

(* The paper's manager over cycle-true retrieval, as alloc-sim runs it.
   The rtlsim engine writes each request into a Req-MEM it owns and runs
   one reused machine over it, so a retrieval allocates only its
   decision and the boxed Q15 weight conversions (~15 words measured;
   it was ~2 300 when every call re-encoded and copied the images and
   formatted every trace line). *)
let test_rtlsim_retrieve_budget () =
  let calls = ref 0 and words = ref 0.0 in
  let spec =
    {
      (Desim.Simulate.default_spec ()) with
      Desim.Simulate.retrieval_engine =
        Some (counting Rtlsim.Engine.factory ~calls ~words);
    }
  in
  ignore (Desim.Simulate.run spec);
  check_bool "retrievals ran" true (!calls > 50);
  let per_call = !words /. float_of_int !calls in
  if per_call > 100.0 then
    Alcotest.failf "%.1f minor words per retrieve, budget 100" per_call

(* The native engine on serve's streamed fast path.  Its kernel inputs
   live in scratch the compiled case base owns, so a retrieval allocates
   its decision, the type lookup and the boxed Q15 weight conversions:
   ~12 words measured, ~31 when every call made four fresh arrays. *)
let test_native_retrieve_budget () =
  let calls = ref 0 and words = ref 0.0 in
  let s =
    {
      (Serve.default_spec ()) with
      Serve.seed = 5;
      load_scale = 400.0;
      source = Serve.Stream;
      max_requests = Some 20_000;
      retain_requests = false;
      engine = counting Netlist.Compile.factory ~calls ~words;
    }
  in
  ignore (get (Serve.run s));
  check_bool "retrievals ran" true (!calls >= 20_000);
  let per_call = !words /. float_of_int !calls in
  if per_call > 16.0 then
    Alcotest.failf "%.1f minor words per retrieve, budget 16" per_call

(* The whole run over the default spec: 243 words per request measured,
   ~1 950 before the rtlsim engine reused its machine and 708 before
   the manager scored, keyed its bypass tokens and sampled utilization
   without building lists. *)
let test_simulate_alloc_budget () =
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let r = Desim.Simulate.run (Desim.Simulate.default_spec ()) in
  let n = r.Desim.Simulate.totals.Desim.Simulate.requests in
  let per_req = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool "requests ran" true (n > 100);
  if per_req > 280.0 then
    Alcotest.failf "%.1f minor words per request, budget 280" per_req

(* The flight-recorder exports and the report of the CLI's pinned chaos
   run (test_cli), in minor words per request.  The writers put every
   byte straight into one buffer; the per-event Printf formatters they
   replaced cost ~1100 (events), ~900 (trace) and ~200 (report). *)
let test_serve_export_budget () =
  let obs =
    Obs.Ctx.create ~tracer:(Obs.Tracer.collecting ()) ~events:(Ev.recording ())
      ()
  in
  let s =
    {
      (spec ~duration_us:100_000.0 ~seed:3 ~outage:outage_spec ()) with
      Serve.slo = Some (Serve.default_slo ~availability:0.99 ~latency_us:500.0);
    }
  in
  let r = get (Serve.run ~obs s) in
  let per_req render =
    Gc.full_major ();
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (render ()));
    (Gc.minor_words () -. w0) /. float_of_int r.Serve.requests
  in
  List.iter
    (fun (name, budget, render) ->
      let words = per_req render in
      if words > budget then
        Alcotest.failf "%s: %.1f minor words per request, budget %.0f" name
          words budget)
    [
      ("events export", 10.0, fun () -> Ev.to_ndjson obs.Obs.Ctx.events);
      ("trace export", 100.0, fun () -> Obs.Tracer.to_json obs.Obs.Ctx.tracer);
      ("report", 40.0, fun () -> Serve.results_to_string r);
    ]

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_serve_obs () =
  let obs = Obs.Ctx.create () in
  let _r = get (Serve.run ~obs (spec ~duration_us:30_000.0 ~outage:outage_spec ())) in
  let prom = Obs.Metrics.to_prometheus obs.Obs.Ctx.registry in
  List.iter
    (fun name -> check_bool (name ^ " exported") true (contains prom name))
    [
      "qosalloc_cluster_requests_total";
      "qosalloc_cluster_node_saturation";
      "qosalloc_cluster_shed_total";
      "qosalloc_cluster_failover_total";
      "qosalloc_cluster_replication_lag_us";
      "qosalloc_cluster_latency_us";
      "qosalloc_cluster_retries_total";
      "qosalloc_cluster_breaker_opens_total";
      "qosalloc_cluster_heartbeats_total";
    ]

(* --- event log through the serve path -------------------------------------- *)

let events_ctx () = Obs.Ctx.create ~events:(Ev.recording ()) ()

(* Transition events carry (prev, next) state names; the log is valid
   when, per node, each event's [prev] is the previous event's [next]
   (starting from the creation state) — i.e. the flight recorder saw
   every state change, in order, with none invented or skipped. *)
let transitions sel evs =
  List.filter_map
    (fun e ->
      match (sel e.Ev.kind, e.Ev.node) with
      | Some pn, Some node -> Some (node, pn)
      | _ -> None)
    evs

let chained ~start l =
  let last : (int, string) Hashtbl.t = Hashtbl.create 8 in
  List.for_all
    (fun (node, (prev, next)) ->
      let expected = Option.value ~default:start (Hashtbl.find_opt last node) in
      Hashtbl.replace last node next;
      String.equal prev expected)
    l

let test_serve_eventlog () =
  (* Replication 1 under a kill-and-bounce campaign: failovers, breaker
     trips, detector verdicts, rejoins and a latency-SLO burn are all
     visible in one run — the ISSUE acceptance scenario. *)
  let outage = { outage_spec with Outages.permanent_frac = 0.34 } in
  let mk jobs =
    let obs = events_ctx () in
    let s =
      {
        (spec ~duration_us:100_000.0 ~seed:7 ~replication:1 ~jobs ~outage ())
        with
        Serve.slo = Some (Serve.default_slo ~availability:0.99 ~latency_us:500.0);
      }
    in
    let r = get (Serve.run ~obs s) in
    (r, obs.Obs.Ctx.events)
  in
  let r, log = mk 1 in
  let _, log4 = mk 4 in
  check_bool "NDJSON byte-identical at jobs 1 vs 4" true
    (String.equal (Ev.to_ndjson log) (Ev.to_ndjson log4));
  check_int "ring did not overflow" 0 (Ev.dropped log);
  let evs = Ev.events log in
  let count p = List.length (List.filter (fun e -> p e.Ev.kind) evs) in
  check_bool "failovers recorded" true
    (count (function Ev.Request_failover _ -> true | _ -> false) > 0);
  check_bool "rejoins recorded" true
    (count (function Ev.Node_rejoin _ -> true | _ -> false) > 0);
  check_bool "SLO burn alert fired" true
    (count (function
       | Ev.Slo_alert { state = "firing"; _ } -> true
       | _ -> false)
    > 0);
  check_int "one admission per request" r.Serve.requests
    (count (function Ev.Request_admitted _ -> true | _ -> false));
  check_int "one terminal event per request" r.Serve.requests
    (count (function
       | Ev.Request_completed _ | Ev.Request_degraded _ | Ev.Request_failed _
         -> true
       | _ -> false));
  let health =
    transitions
      (function Ev.Node_transition { prev; next } -> Some (prev, next) | _ -> None)
      evs
  and breaker =
    transitions
      (function
        | Ev.Breaker_transition { prev; next } -> Some (prev, next) | _ -> None)
      evs
  in
  check_bool "health verdicts chain from up, no step skipped" true
    (chained ~start:"up" health);
  check_bool "a node was suspected" true
    (List.exists (fun (_, (_, next)) -> String.equal next "suspect") health);
  check_bool "suspicion precedes the down verdict" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "suspect" && String.equal next "down")
       health);
  check_bool "a down node came back up" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "down" && String.equal next "up")
       health);
  check_bool "breaker states chain from closed, no step skipped" true
    (chained ~start:"closed" breaker);
  check_bool "a breaker tripped" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "closed" && String.equal next "open")
       breaker);
  check_bool "cooldown expiry went half-open" true
    (List.exists
       (fun (_, (prev, next)) ->
         String.equal prev "open" && String.equal next "half-open")
       breaker);
  check_bool "a missed SLO classifies as unrecovered loss" true
    (Serve.exit_code ~min_availability:0.0 r = 2);
  check_bool "slo reports present" true
    (List.exists (fun s -> not s.Obs.Slo.r_met) r.Serve.slo)

(* --- work stealing --------------------------------------------------------- *)

(* A single-type hot app drives its 3-node replica set past saturation
   while the rest of the cluster idles; stealing must convert sheds and
   backoff retries into donated work, at no availability cost, without
   perturbing the jobs/source digest contract. *)
let steal_spec ?(jobs = 1) ?(source = Serve.Pregenerated) ~enabled () =
  {
    (spec ~duration_us:10_000.0 ~seed:7 ~jobs ())
    with
    Serve.load_scale = 1000.0;
    steal = { Steal.default with Steal.enabled };
    source;
  }

let test_serve_steal () =
  let off = get (Serve.run (steal_spec ~enabled:false ())) in
  let on = get (Serve.run (steal_spec ~enabled:true ())) in
  check_int "same workload" off.Serve.requests on.Serve.requests;
  check_bool "saturation without stealing" true (off.Serve.sheds > 0);
  check_bool "steals happened" true (on.Serve.steals > 0);
  check_bool "sheds strictly decrease" true (on.Serve.sheds < off.Serve.sheds);
  check_bool "availability no worse" true
    (on.Serve.availability >= off.Serve.availability);
  check_int "every request answered" on.Serve.requests
    (on.Serve.full + on.Serve.degraded);
  check_bool "donations visible per node" true
    (List.exists (fun ns -> ns.Serve.ns_donated > 0) on.Serve.per_node);
  check_bool "thefts visible per node" true
    (List.exists (fun ns -> ns.Serve.ns_stolen > 0) on.Serve.per_node);
  (* Recovery actions occurred, so the verdict is degraded-recovered. *)
  check_int "steals move the exit code" 1
    (Serve.exit_code ~min_availability:0.99 on);
  (* The steal decision is made on the sequential control clock with a
     seeded tie-break: the report never depends on --jobs or on the
     arrival source. *)
  let d = Serve.results_digest on in
  check_bool "digest invariant at jobs=4" true
    (String.equal d (Serve.results_digest (get (Serve.run (steal_spec ~enabled:true ~jobs:4 ())))));
  check_bool "digest invariant when streaming" true
    (String.equal d
       (Serve.results_digest
          (get (Serve.run (steal_spec ~enabled:true ~source:Serve.Stream ())))))

(* Steal, shed, retry and failover in one run, digests pinned from the
   ladder as it stood before its stages became functions over a
   per-request record.  The bounce campaign leaves the detector behind
   ground truth, so suspects are on the path too: the first spec pins
   how a round's saturation flag resets, the second how suspects queue
   behind the up replicas. *)
let test_serve_ladder_digest () =
  let bounce ~kill ~mean ~down =
    {
      outage_spec with
      Outages.permanent_frac = kill;
      transient_mean_us = Some mean;
      transient_down_us = down;
    }
  in
  let hot =
    {
      (steal_spec ~enabled:true ()) with
      Serve.outage = bounce ~kill:0.34 ~mean:800.0 ~down:(100.0, 400.0);
    }
  in
  let suspects =
    {
      (spec ~duration_us:4_000.0 ~seed:6 ~nodes:5 ()) with
      Serve.load_scale = 1500.0;
      steal =
        { Steal.default with Steal.enabled = true; threshold = 0.5; seed = 6 };
      outage = bounce ~kill:0.3 ~mean:800.0 ~down:(100.0, 400.0);
    }
  in
  List.iter
    (fun (name, s, digest) ->
      List.iter
        (fun source ->
          let r = get (Serve.run { s with Serve.source }) in
          let name = name ^ " " ^ Serve.source_to_string source in
          check_bool (name ^ ": every rung is on the path") true
            (r.Serve.failovers > 0 && r.Serve.steals > 0 && r.Serve.sheds > 0
           && r.Serve.retries > 0);
          Alcotest.(check string) (name ^ ": pinned digest") digest
            (Serve.results_digest r))
        [ Serve.Pregenerated; Serve.Stream ])
    [
      ("hot", hot, "2d89abffde3ee0feb49b07efed4b1867");
      ("suspects", suspects, "11ad6c9e435199411f8790ae5791d916");
    ]

let test_serve_steal_events () =
  let obs = events_ctx () in
  let r = get (Serve.run ~obs (steal_spec ~enabled:true ())) in
  let evs = Ev.events obs.Obs.Ctx.events in
  let grants, denials =
    List.fold_left
      (fun (g, d) e ->
        match e.Ev.kind with
        | Ev.Request_steal { to_node = Some _; _ } -> (g + 1, d)
        | Ev.Request_steal { to_node = None; _ } -> (g, d + 1)
        | _ -> (g, d))
      (0, 0) evs
  in
  check_int "one event per steal" r.Serve.steals grants;
  check_int "one event per denial" r.Serve.steal_denials denials;
  check_bool "steals visible in NDJSON" true
    (contains (Ev.to_ndjson obs.Obs.Ctx.events) "\"event\":\"request-steal\"")

let test_serve_streaming_cap () =
  (* max_requests takes the first N of the merged arrival sequence —
     identical for either source, and O(apps) memory when streaming
     with retention off. *)
  let base = { (steal_spec ~enabled:false ()) with Serve.max_requests = Some 200 } in
  let pre = get (Serve.run base) in
  let st =
    get
      (Serve.run
         { base with Serve.source = Serve.Stream; retain_requests = false })
  in
  check_int "pregenerated capped" 200 pre.Serve.requests;
  check_int "streaming capped" 200 st.Serve.requests;
  check_bool "same availability" true
    (pre.Serve.availability = st.Serve.availability);
  check_int "no retained outcomes" 0 (Array.length st.Serve.outcomes);
  check_bool "retained run keeps outcomes" true
    (Array.length pre.Serve.outcomes = 200)

let test_serve_eventlog_absent_when_disabled () =
  (* A metrics-only context must stay on the no-op event sink: same
     report, nothing recorded. *)
  let obs = Obs.Ctx.create () in
  let r = get (Serve.run ~obs (spec ~outage:outage_spec ())) in
  check_bool "run unchanged" true (r.Serve.requests > 0);
  check_int "no events" 0 (Ev.recorded obs.Obs.Ctx.events)

(* --- replica-consistency property ------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

(* Reference model for the ring walk: identical splitmix64 placement,
   but scanning every nodes x vnodes point with no early exit.  The
   production walk stops as soon as every member has been seen; this
   model pins that the shortcut never changes a route. *)
let ref_mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let ref_hash2 a b =
  ref_mix
    (Int64.add (ref_mix (Int64.of_int a))
       (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int b)))

let ref_route ~nodes ~vnodes ~key ~replicas =
  let points =
    List.concat_map
      (fun (id, _) -> List.init vnodes (fun v -> (ref_hash2 id v, id)))
      nodes
  in
  let points =
    Array.of_list
      (List.sort
         (fun (h1, n1) (h2, n2) ->
           match Int64.unsigned_compare h1 h2 with
           | 0 -> compare n1 n2
           | c -> c)
         points)
  in
  let n = Array.length points in
  let h = ref_hash2 key 0x5eed in
  let s = ref 0 in
  while !s < n && Int64.unsigned_compare (fst points.(!s)) h < 0 do
    incr s
  done;
  let s = if !s = n then 0 else !s in
  (* Full scan: every point, no early exit. *)
  let seen = Hashtbl.create 8 in
  let order = ref [] in
  for i = 0 to n - 1 do
    let node = snd points.((s + i) mod n) in
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.add seen node ();
      order := node :: !order
    end
  done;
  let order = List.rev !order in
  let domains = Hashtbl.create 8 in
  let preferred, parked =
    List.fold_left
      (fun (pref, park) node ->
        let d = Option.value (List.assoc_opt node nodes) ~default:node in
        if Hashtbl.mem domains d then (pref, node :: park)
        else begin
          Hashtbl.add domains d ();
          (node :: pref, park)
        end)
      ([], []) order
  in
  let ranked = List.rev preferred @ List.rev parked in
  List.filteri (fun i _ -> i < replicas) ranked

(* Old list scans the outage timeline replaces: the reference the
   binary searches must agree with on every probe. *)
let scan_is_down intervals t =
  List.exists (fun (lo, hi) -> lo <= t && t < hi) intervals

let scan_next_failure intervals t s =
  List.find_map
    (fun (lo, _) -> if t < lo && lo <= t +. s then Some lo else None)
    intervals

let timeline_next_failure tl t s =
  match Outages.next_start tl ~after:t with
  | Some lo when lo <= t +. s -> Some lo
  | _ -> None

let timeline_agrees intervals probes =
  let tl = Outages.timeline intervals in
  List.for_all
    (fun t ->
      Outages.is_down tl t = scan_is_down intervals t
      && List.for_all
           (fun s ->
             timeline_next_failure tl t s = scan_next_failure intervals t s)
           [ 0.0; 250.0; 4_000.0; Float.infinity ])
    probes

let test_outages_timeline_edges () =
  let agrees name intervals =
    check_bool name true
      (timeline_agrees intervals
         (Float.neg_infinity :: Float.infinity
         :: List.concat_map (fun (lo, hi) -> [ lo; hi; lo -. 1.0 ]) intervals))
  in
  agrees "no outages" [];
  agrees "zero-length outage" [ (5.0, 5.0) ];
  agrees "bounce then permanent kill"
    [ (1.0, 2.0); (2.5, 2.5); (3.0, Float.infinity) ];
  let tl = Outages.timeline [ (1.0, 2.0); (3.0, Float.infinity) ] in
  check_bool "down at a start" true (Outages.is_down tl 1.0);
  check_bool "up at an end" false (Outages.is_down tl 2.0);
  check_bool "next start is strictly after" true
    (Outages.next_start tl ~after:1.0 = Some 3.0);
  check_bool "nothing after the last start" true
    (Outages.next_start tl ~after:3.0 = None);
  Alcotest.check_raises "overlapping intervals"
    (Invalid_argument "Outages.timeline: intervals not sorted and disjoint")
    (fun () -> ignore (Outages.timeline [ (1.0, 3.0); (2.0, 4.0) ]))

(* Random campaign shapes: kills, bounce storms (possibly zero-length
   or off), and a fleet large enough that some nodes see nothing. *)
let gen_outage_case =
  QCheck2.Gen.(
    let* seed = int_range 0 10_000 in
    let* nodes = int_range 1 8 in
    let* permanent_frac = oneofl [ 0.0; 0.2; 0.5; 1.0 ] in
    let* transient_mean_us = opt (oneofl [ 500.0; 3_000.0; 20_000.0 ]) in
    let* dlo = oneofl [ 0.0; 100.0; 1_000.0 ] in
    let* dspan = oneofl [ 0.0; 0.0; 2_000.0 ] in
    let* finite = bool in
    let* probes = list_size (int_range 0 20) (float_range 0.0 60_000.0) in
    return
      ( seed,
        nodes,
        {
          Outages.permanent_frac;
          permanent_window = (0.2, 0.7);
          transient_mean_us;
          transient_down_us = (dlo, dlo +. dspan);
        },
        finite,
        probes ))

let gen_route_case =
  QCheck2.Gen.(
    tup4 (int_range 1 8) (int_range 1 8) (int_range 1 4) (int_range 1 16))

let props =
  [
    (* For any seeded outage schedule, every successful (full-QoS)
       response is decision-identical to the single-node native engine
       over the whole case base: replication and failover never change
       an answer, only who serves it. *)
    prop "full responses match the single-node engine"
      QCheck2.Gen.(triple (int_range 0 10_000) bool (int_range 1 4))
      (fun (seed, storm, jobs) ->
        let outage =
          if storm then outage_spec else Outages.default_spec
        in
        let s = spec ~duration_us:20_000.0 ~seed ~jobs ~outage () in
        let r = get (Serve.run s) in
        let reference = get (native s.Serve.casebase) in
        let requests = Serve.workload s in
        check_int "trace and outcomes align" (Array.length requests)
          (Array.length r.Serve.outcomes);
        Array.for_all2
          (fun (_, _, request) outcome ->
            match outcome with
            | Serve.Failed _ -> false
            | Serve.Degraded { stale_impl; _ } -> (
                match reference.Engine.retrieve request with
                | Ok d -> stale_impl = Some d.Engine.impl_id
                | Error _ -> false)
            | Serve.Full { decision; _ } -> (
                match reference.Engine.retrieve request with
                | Ok d -> Engine.equal_decision d decision
                | Error _ -> false))
          requests r.Serve.outcomes);
    (* The flight recorder only ever runs in the sequential control
       phase, so its timestamps are nondecreasing — globally and hence
       per correlated node — at any worker count. *)
    prop "event timestamps are monotone per node"
      QCheck2.Gen.(triple (int_range 0 10_000) bool (int_range 1 4))
      (fun (seed, storm, jobs) ->
        let outage = if storm then outage_spec else Outages.default_spec in
        let obs = Obs.Ctx.create ~events:(Ev.recording ()) () in
        let s = spec ~duration_us:20_000.0 ~seed ~jobs ~outage () in
        let _ = get (Serve.run ~obs s) in
        let last_global = ref 0.0 in
        let last_node : (int, float) Hashtbl.t = Hashtbl.create 8 in
        List.for_all
          (fun e ->
            let ok = e.Ev.ts >= !last_global in
            last_global := e.Ev.ts;
            match e.Ev.node with
            | None -> ok
            | Some node ->
                let prev =
                  Option.value ~default:0.0 (Hashtbl.find_opt last_node node)
                in
                Hashtbl.replace last_node node e.Ev.ts;
                ok && e.Ev.ts >= prev)
          (Ev.events obs.Obs.Ctx.events));
    (* The early-exit ring walk must route every key exactly as the
       exhaustive full-scan reference at any cluster shape. *)
    prop "early-exit walk leaves every route unchanged"
      QCheck2.Gen.(
        tup4 (int_range 1 8) (int_range 1 16) (int_range 0 10_000)
          (int_range 1 8))
      (fun (node_count, vnodes, key, replicas) ->
        let nodes = List.init node_count (fun i -> (i, i mod 3)) in
        let ring = get (Ring.create ~vnodes ~nodes ()) in
        Ring.route ring ~key ~replicas = ref_route ~nodes ~vnodes ~key ~replicas);
    (* Pulling arrivals on demand must produce the byte-identical
       report to pregenerating the whole trace, with or without chaos
       or stealing in play. *)
    prop "streaming arrivals are byte-equivalent to pregenerated"
      QCheck2.Gen.(triple (int_range 0 10_000) bool bool)
      (fun (seed, storm, stealing) ->
        let outage = if storm then outage_spec else Outages.default_spec in
        let base =
          {
            (spec ~duration_us:20_000.0 ~seed ~outage ()) with
            Serve.steal = { Steal.default with Steal.enabled = stealing };
          }
        in
        let pre = get (Serve.run base) in
        let st = get (Serve.run { base with Serve.source = Serve.Stream }) in
        String.equal
          (Serve.results_to_string pre)
          (Serve.results_to_string st));
    (* The indexed outage timeline answers both heartbeat and attempt
       queries exactly as the list scans over [down_intervals] do,
       probed at every interval boundary and at random times. *)
    prop "outage timeline matches the interval scans" gen_outage_case
      (fun (seed, nodes, spec, finite, probes) ->
        let duration_us = 50_000.0 in
        let events =
          Outages.generate (Injector.create ~seed) ~nodes ~duration_us spec
        in
        List.for_all
          (fun node ->
            let intervals =
              Outages.down_intervals events
                ~duration_us:(if finite then duration_us else Float.infinity)
                ~node
            in
            let edges =
              List.concat_map (fun (lo, hi) -> [ lo; hi ]) intervals
            in
            timeline_agrees intervals (edges @ probes))
          (List.init nodes Fun.id));
    (* Routes precomputed at [Substrate.create] equal a fresh ring walk
       for every hosted type, the fallback walk serves unknown types,
       and hosting is exactly membership in the route. *)
    prop "substrate route table matches the ring" gen_route_case
      (fun (nodes, replication, fault_domains, vnodes) ->
        let cb = Desim.Apps.reference_casebase in
        let sub =
          get
            (Substrate.create ~vnodes ~fault_domains ~nodes ~replication
               ~engine:Engine.fixed_engine cb)
        in
        let ring =
          get
            (Ring.create ~vnodes
               ~nodes:(List.init nodes (fun i -> (i, i mod fault_domains)))
               ())
        in
        let route key =
          Ring.route ring ~key ~replicas:(min replication nodes)
        in
        let ids =
          List.map (fun (ft : Ftype.t) -> ft.Ftype.id) cb.Casebase.ftypes
        in
        let unknown = [ -1; 0; 1_000; 1_001 + nodes ] in
        List.for_all (fun id -> not (List.mem id ids)) unknown
        && Substrate.members sub = List.init nodes Fun.id
        && List.for_all
             (fun type_id ->
               Substrate.replicas_for sub ~type_id = route type_id)
             (ids @ unknown)
        && List.for_all
             (fun n ->
               let hosted = (Substrate.node sub n).Substrate.hosted_types in
               List.for_all
                 (fun type_id ->
                   List.mem type_id hosted
                   = List.mem n (Substrate.replicas_for sub ~type_id)
                   && Substrate.holds sub ~node:n ~type_id
                      = List.mem type_id hosted)
                 ids
               && List.for_all
                    (fun type_id -> not (Substrate.holds sub ~node:n ~type_id))
                    unknown)
             (List.init nodes Fun.id));
  ]

let () =
  Alcotest.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "route" `Quick test_ring_route;
          Alcotest.test_case "fault-domain diversity" `Quick
            test_ring_domain_diversity;
          Alcotest.test_case "spread" `Quick test_ring_spread;
        ] );
      ( "health",
        [ Alcotest.test_case "phi thresholds" `Quick test_health_thresholds ] );
      ( "breaker",
        [ Alcotest.test_case "open/half-open ladder" `Quick test_breaker_ladder ]
      );
      ( "backoff",
        [
          Alcotest.test_case "cap and jitter bounds" `Quick
            test_backoff_cap_and_jitter;
        ] );
      ( "outages",
        [
          Alcotest.test_case "seeded schedule" `Quick test_outages_schedule;
          Alcotest.test_case "timeline edge cases" `Quick
            test_outages_timeline_edges;
        ] );
      ( "substrate",
        [ Alcotest.test_case "placement" `Quick test_substrate_placement ] );
      ( "alloc-sim",
        [
          Alcotest.test_case "rtlsim retrieve budget" `Quick
            test_rtlsim_retrieve_budget;
          Alcotest.test_case "native retrieve budget" `Quick
            test_native_retrieve_budget;
          Alcotest.test_case "simulate budget" `Quick
            test_simulate_alloc_budget;
        ] );
      ( "serve",
        [
          Alcotest.test_case "clean run" `Quick test_serve_clean;
          Alcotest.test_case "chaos acceptance" `Quick
            test_serve_chaos_acceptance;
          Alcotest.test_case "degraded path" `Quick test_serve_degraded_path;
          Alcotest.test_case "ladder digest" `Quick test_serve_ladder_digest;
          Alcotest.test_case "allocation budget" `Quick test_serve_alloc_budget;
          Alcotest.test_case "export budget" `Quick test_serve_export_budget;
          Alcotest.test_case "negative outage durations" `Quick
            test_serve_rejects_negative_outages;
          Alcotest.test_case "obs metrics" `Quick test_serve_obs;
          Alcotest.test_case "event log" `Quick test_serve_eventlog;
          Alcotest.test_case "work stealing" `Quick test_serve_steal;
          Alcotest.test_case "steal events" `Quick test_serve_steal_events;
          Alcotest.test_case "streaming cap" `Quick test_serve_streaming_cap;
          Alcotest.test_case "event log disabled" `Quick
            test_serve_eventlog_absent_when_disabled;
        ] );
      ( "rejects",
        List.map
          (fun (name, duration_us, load_scale, expected) ->
            Alcotest.test_case name `Quick
              (test_serve_rejects ~duration_us ~load_scale expected))
          malformed_cases );
      ("properties", props);
    ]
