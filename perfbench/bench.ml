(* The qosalloc benchmark: four seeded workloads driven through the
   library's public entry points ([Cluster.Serve.run] and
   [Desim.Simulate.run]), timed from outside the library, with output
   checks on every run.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--commit ID]

   One process runs one workload until [--seconds] have passed.

   With [--trace 0] the run is untraced and the metrics are the
   end-to-end ones: passes cycle through three seeded instances of the
   workload, each pass preceded by a few set-ups (see [end_to_end] for
   how they are reduced).  With [--trace 1] the run repeats rounds of
   interleaved passes — untraced, engine-wrapped, arrival replay and,
   where the flight recorder is on, recorder-off — and reports the
   median of each per-layer metric over the rounds; spans of those
   passes are written to [.perfbench-out/] when the run ends.

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics].  Every line before
   it starts with ['#'].  README.md beside this file says why each
   workload exists and what each metric should move. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns /. 1e9

(* Minor words allocated by every domain, joined worker domains
   included. *)
let all_minor_words () = (Gc.quick_stat ()).Gc.minor_words
let major_collections () = (Gc.quick_stat ()).Gc.major_collections

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Every pass and every round of set-ups starts from a collected heap,
   as the first pass of a fresh process does.  Otherwise the set-ups
   and the next pass would pay for collecting the previous pass's
   garbage, which varies with how the collector's slices fall. *)
let settle () = Gc.full_major ()

let md5 s = Digest.to_hex (Digest.string s)
let get = function Ok x -> x | Error e -> failwith e

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

type target =
  | Serve of { spec : Cluster.Serve.spec; recorder : bool }
  | Alloc of Desim.Simulate.spec

type workload = {
  name : string;
  default_seed : int;
  why : string;
  target : int -> target;
}

(* The CLUSTER/OBS2 kill-and-bounce campaign: a third of the nodes die
   for good in the middle of the run, the rest bounce every ~20 ms. *)
let chaos_outage =
  {
    Faults.Outages.permanent_frac = 0.34;
    permanent_window = (0.2, 0.7);
    transient_mean_us = Some 20_000.0;
    transient_down_us = (1_000.0, 5_000.0);
  }

(* CLUSTER2's skewed mix: one hot Poisson application on a single
   function type next to the standard mp3 and video applications. *)
let hot_app =
  {
    Desim.Apps.automotive_ecu with
    Desim.Apps.app_id = "hot";
    arrival = Desim.Apps.Poisson;
    period_us = 1.3;
  }

let serve_base seed =
  { (Cluster.Serve.default_spec ()) with Cluster.Serve.seed; jobs = 1 }

let workloads =
  [
    {
      name = "serve-stream";
      default_seed = 5;
      why =
        "The per-request fast path: arrival pulls, native decisions, the \
         happy path of the ladder and Workload.Stats accumulation.";
      target =
        (fun seed ->
          Serve
            {
              spec =
                {
                  (serve_base seed) with
                  Cluster.Serve.duration_us = 3.0e6;
                  load_scale = 400.0;
                  source = Cluster.Serve.Stream;
                  max_requests = Some 50_000;
                  retain_requests = false;
                };
              recorder = false;
            });
    };
    {
      name = "serve-chaos";
      default_seed = 7;
      why =
        "The control phase and the flight recorder: outages, heartbeats, \
         failover and every export, with arrivals and decisions under 2%.";
      target =
        (fun seed ->
          Serve
            {
              spec =
                {
                  (serve_base seed) with
                  Cluster.Serve.duration_us = 10.0e6;
                  replication = 3;
                  outage = chaos_outage;
                  slo =
                    Some
                      (Cluster.Serve.default_slo ~availability:0.99
                         ~latency_us:500.0);
                };
              recorder = true;
            });
    };
    {
      name = "serve-hot";
      default_seed = 11;
      why =
        "The ladder's saturation path (steal, shed) on the materialised, \
         retained path, where rendering the report is a fifth of the run.";
      target =
        (fun seed ->
          Serve
            {
              spec =
                {
                  (serve_base seed) with
                  Cluster.Serve.duration_us = 50_000.0;
                  apps =
                    [ hot_app; Desim.Apps.mp3_player; Desim.Apps.video_scaler ];
                  steal =
                    {
                      Cluster.Steal.default with
                      Cluster.Steal.enabled = true;
                      seed;
                    };
                };
              recorder = false;
            });
    };
    {
      name = "alloc-sim";
      default_seed = 42;
      why =
        "The paper's run-time manager (bypass, negotiation, placement, \
         preemption) over cycle-true rtlsim retrieval; no serve workload \
         calls it.";
      target =
        (fun seed ->
          Alloc
            {
              (Desim.Simulate.default_spec ()) with
              Desim.Simulate.duration_us = 25.0e6;
              seed;
            });
    };
  ]

(* Report digests of the default seed and of one held-out seed.  A run
   on either seed must reproduce them exactly. *)
let held_out_seed = 2026

let recorded_digests =
  [
    (("serve-stream", 5), "6e9b8b1865a4f6a2030e5862b4f9083b");
    (("serve-stream", held_out_seed), "72b25871b5dd1403b63d67a0de4bcce0");
    (("serve-chaos", 7), "17f8e05ad0ee65c67548bf6389afca27");
    (("serve-chaos", held_out_seed), "100097b21fc6d352a38949e711ca4620");
    (("serve-hot", 11), "7239ec6da842b09f1222f5d298f67d11");
    (("serve-hot", held_out_seed), "b885dbd187838744b738f9bc5d44bf8f");
    (("alloc-sim", 42), "762a5f64ea82807d1274b2c39aa5fe39");
    (("alloc-sim", held_out_seed), "94d5c8ff0734e2bc916edbb6bc5f3fdc");
  ]

(* ------------------------------------------------------------------ *)
(* Spans of the traced run                                              *)
(* ------------------------------------------------------------------ *)

type span = {
  id : int;
  sname : string;
  parent : int;  (** -1 for a root. *)
  start_ns : int;
  mutable end_ns : int;
  args : (string * string) list;
}

(* Spans are kept only in a traced run. *)
let tracing = ref false
let spans : span list ref = ref []

let add_span ?(parent = -1) ?(args = []) sname ~start_ns ~end_ns =
  if not !tracing then -1
  else begin
    let id = List.length !spans in
    spans := { id; sname; parent; start_ns; end_ns; args } :: !spans;
    id
  end

let close_span id =
  List.iter (fun s -> if s.id = id then s.end_ns <- now_ns ()) !spans

(* Time [f] as one span; returns the span id, the elapsed ns and the
   result. *)
let timed_span ?parent ?args sname f =
  let t0 = now_ns () in
  let r = f () in
  let t1 = now_ns () in
  (add_span ?parent ?args sname ~start_ns:t0 ~end_ns:t1, t1 - t0, r)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let write_spans path =
  let oc = open_out path in
  output_string oc "{\"spans\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"id\":%d,\"name\":%s,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d,\
         \"args\":{%s}}"
        (if i = 0 then "" else ",\n")
        s.id (json_string s.sname) s.parent s.start_ns s.end_ns
        (String.concat ","
           (List.map
              (fun (k, v) -> json_string k ^ ":" ^ json_string v)
              s.args)))
    (List.rev !spans);
  output_string oc "\n]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Engine wrapper: per-node accumulation of the engine layer            *)
(* ------------------------------------------------------------------ *)

(* One accumulator per engine instance the factory builds.  An instance
   is driven from one domain only (the serve decision phase gives each
   node's engine to one worker), so plain mutable fields suffice; they
   are read after that domain has been joined.  Every field is an int
   so recording a call allocates nothing. *)
type engine_acc = {
  instance : int;
  mutable calls : int;
  mutable failures : int;
  mutable busy_ns : int;
  mutable words : int;
  mutable cycles : int;
  mutable score_sum : int;  (** Q15 raw scores of the decisions. *)
  mutable first_ns : int;
  mutable last_ns : int;
}

let wrap_factory (accs : engine_acc list ref)
    (factory : Qos_core.Engine.factory) : Qos_core.Engine.factory =
 fun cb ->
  match factory cb with
  | Error _ as e -> e
  | Ok (e : Qos_core.Engine.t) ->
      let a =
        {
          instance = List.length !accs;
          calls = 0;
          failures = 0;
          busy_ns = 0;
          words = 0;
          cycles = 0;
          score_sum = 0;
          first_ns = 0;
          last_ns = 0;
        }
      in
      accs := a :: !accs;
      let retrieve req =
        let w0 = Gc.minor_words () in
        let t0 = now_ns () in
        let r = e.Qos_core.Engine.retrieve req in
        let t1 = now_ns () in
        let w1 = Gc.minor_words () in
        if a.calls = 0 then a.first_ns <- t0;
        a.last_ns <- t1;
        a.calls <- a.calls + 1;
        a.busy_ns <- a.busy_ns + (t1 - t0);
        a.words <- a.words + int_of_float (w1 -. w0);
        (match r with
        | Ok d ->
            a.score_sum <- a.score_sum + Fxp.Q15.to_raw d.Qos_core.Engine.score;
            (match d.Qos_core.Engine.cycles with
            | Some c -> a.cycles <- a.cycles + c
            | None -> ())
        | Error _ -> a.failures <- a.failures + 1);
        r
      in
      Ok
        {
          e with
          Qos_core.Engine.retrieve;
          retrieve_batch = Qos_core.Engine.batch_of_single retrieve;
        }

let sum_accs f accs = List.fold_left (fun n a -> n + f a) 0 accs

(* ------------------------------------------------------------------ *)
(* One pass of a workload                                               *)
(* ------------------------------------------------------------------ *)

(* What a pass of a workload leaves behind.  [run_*] covers the call
   into the library, [render_ns] rendering its report and [export_ns]
   rendering the recorder's exports. *)
type pass = {
  requests : int;
  errors : int;  (** Operations that failed: engine errors. *)
  not_full : int;
      (** Not answered at full QoS: degraded plus failed, or refused. *)
  run_ns : int;
  render_ns : int;
  export_ns : int;
  run_words : float;
  total_words : float;
  majors : int;
  digest : string;
  export_digest : string;
  report_bytes : int;
  export_bytes : int;
  accounting_ok : bool;
  counters : (string * float) list;  (** Layer counts from the report. *)
  qos : (string * float) list;  (** Sim-time QoS outcomes. *)
  outcomes : Cluster.Serve.response array;  (** Serve, retained only. *)
}

let serve_pass ?parent ?(wrap = fun f -> f) ~recorder
    (spec : Cluster.Serve.spec) =
  let spec =
    { spec with Cluster.Serve.engine = wrap spec.Cluster.Serve.engine }
  in
  let obs =
    if recorder then
      Some
        (Obs.Ctx.create
           ~tracer:(Obs.Tracer.collecting ())
           ~events:(Obs.Events.recording ())
           ())
    else None
  in
  let w0 = all_minor_words () and m0 = major_collections () in
  let run_span, run_ns, report =
    timed_span ?parent "serve.run" (fun () ->
        get (Cluster.Serve.run ?obs spec))
  in
  let w1 = all_minor_words () in
  let _, render_ns, text =
    timed_span ?parent "report.render" (fun () ->
        Cluster.Serve.results_to_string report)
  in
  let _, export_ns, exports =
    timed_span ?parent "obs.export" (fun () ->
        match obs with
        | None -> []
        | Some o ->
            [
              Obs.Metrics.to_prometheus o.Obs.Ctx.registry;
              Obs.Metrics.to_json o.Obs.Ctx.registry;
              Obs.Tracer.to_json o.Obs.Ctx.tracer;
              Obs.Events.to_ndjson o.Obs.Ctx.events;
              Obs.Slo.reports_to_json report.Cluster.Serve.slo;
            ])
  in
  let w2 = all_minor_words () and m2 = major_collections () in
  let r = report in
  let latency name f =
    match r.Cluster.Serve.latency with Some s -> [ (name, f s) ] | None -> []
  in
  let full_scores =
    Array.fold_left
      (fun acc -> function
        | Cluster.Serve.Full { decision; _ } ->
            Fxp.Q15.to_float decision.Qos_core.Engine.score :: acc
        | Cluster.Serve.Degraded _ | Cluster.Serve.Failed _ -> acc)
      [] r.Cluster.Serve.outcomes
  in
  let mean_similarity =
    if full_scores = [] then []
    else
      [
        ( "mean_similarity",
          List.fold_left ( +. ) 0.0 full_scores
          /. float_of_int (List.length full_scores) );
      ]
  in
  let events_recorded, events_dropped =
    match obs with
    | Some o ->
        ( Obs.Events.recorded o.Obs.Ctx.events,
          Obs.Events.dropped o.Obs.Ctx.events )
    | None -> (0, 0)
  in
  let count n = float_of_int n in
  ( run_span,
    ({
       requests = r.Cluster.Serve.requests;
       errors = r.Cluster.Serve.failed;
       not_full = r.Cluster.Serve.degraded + r.Cluster.Serve.failed;
       run_ns;
       render_ns;
       export_ns;
       run_words = w1 -. w0;
       total_words = w2 -. w0;
       majors = m2 - m0;
       digest = md5 text;
       export_digest = md5 (String.concat "\x00" exports);
       report_bytes = String.length text;
       export_bytes = List.fold_left (fun n s -> n + String.length s) 0 exports;
       accounting_ok =
         r.Cluster.Serve.full + r.Cluster.Serve.degraded
         + r.Cluster.Serve.failed
         = r.Cluster.Serve.requests
         && List.fold_left
              (fun n (_, c) -> n + c)
              0 r.Cluster.Serve.degraded_reasons
            = r.Cluster.Serve.degraded;
       counters =
         [
           ("heartbeats", count r.Cluster.Serve.heartbeats);
           ("outage_events", count r.Cluster.Serve.outage_events);
           ("retries", count r.Cluster.Serve.retries);
           ("failovers", count r.Cluster.Serve.failovers);
           ("sheds", count r.Cluster.Serve.sheds);
           ("steals", count r.Cluster.Serve.steals);
           ("steal_denials", count r.Cluster.Serve.steal_denials);
           ("events_recorded", count events_recorded);
           ("events_dropped", count events_dropped);
         ];
       qos =
         latency "sim_latency_p50_us" (fun s -> s.Workload.Stats.p50)
         @ latency "sim_latency_p99_us" (fun s -> s.Workload.Stats.p99)
         @ latency "sim_latency_samples" (fun s -> count s.Workload.Stats.n)
         @ mean_similarity;
       outcomes = r.Cluster.Serve.outcomes;
     }
      : pass) )

let alloc_pass ?parent ?retrieval_engine (spec : Desim.Simulate.spec) =
  let spec =
    match retrieval_engine with
    | None -> spec
    | Some _ -> { spec with Desim.Simulate.retrieval_engine }
  in
  let w0 = all_minor_words () and m0 = major_collections () in
  let run_span, run_ns, r =
    timed_span ?parent "simulate.run" (fun () -> Desim.Simulate.run spec)
  in
  let w1 = all_minor_words () in
  let _, render_ns, text =
    timed_span ?parent "report.render" (fun () ->
        Format.asprintf "%a" Desim.Simulate.pp_report r)
  in
  let w2 = all_minor_words () and m2 = major_collections () in
  let t = r.Desim.Simulate.totals in
  let per_app_ok =
    List.for_all
      (fun (_, (m : Desim.Simulate.app_metrics)) ->
        m.Desim.Simulate.grants + m.Desim.Simulate.refusals
        = m.Desim.Simulate.requests)
      r.Desim.Simulate.per_app
  in
  let b = r.Desim.Simulate.bypass in
  ( run_span,
    {
      requests = t.Desim.Simulate.requests;
      errors = 0;
      not_full = t.Desim.Simulate.refusals;
      run_ns;
      render_ns;
      export_ns = 0;
      run_words = w1 -. w0;
      total_words = w2 -. w0;
      majors = m2 - m0;
      digest = md5 text;
      export_digest = md5 "";
      report_bytes = String.length text;
      export_bytes = 0;
      accounting_ok =
        t.Desim.Simulate.grants + t.Desim.Simulate.refusals
        = t.Desim.Simulate.requests
        && per_app_ok;
      counters =
        [
          ("bypass_hits", float_of_int b.Allocator.Bypass.hits);
          ("bypass_misses", float_of_int b.Allocator.Bypass.misses);
          ("extra_rounds", float_of_int t.Desim.Simulate.extra_rounds);
          ("preemptions", float_of_int t.Desim.Simulate.preemptions_suffered);
          ("refusals", float_of_int t.Desim.Simulate.refusals);
          ("events_fired", float_of_int r.Desim.Simulate.events_fired);
        ];
      qos = [ ("mean_similarity", Desim.Simulate.mean_similarity t) ];
      outcomes = [||];
    } )

let run_pass ?parent ?accs target =
  match target with
  | Serve { spec; recorder } ->
      let wrap = Option.map wrap_factory accs in
      serve_pass ?parent ?wrap ~recorder spec
  | Alloc spec ->
      let retrieval_engine =
        Option.map (fun accs -> wrap_factory accs Rtlsim.Engine.factory) accs
      in
      alloc_pass ?parent ?retrieval_engine spec

(* Host wall time of a pass: the run plus rendering its report and
   exports.  Setup is taken out (see [setup_once]). *)
let pass_ns p = p.run_ns + p.render_ns + p.export_ns

(* ------------------------------------------------------------------ *)
(* Setup                                                                *)
(* ------------------------------------------------------------------ *)

(* Everything before the first request: the serve substrate (ring plus
   per-node engine compile) or the simulate spec plus the retrieval
   engine.  The library builds the same thing again inside [run], so
   its median is taken out of each pass's time. *)
let substrate (spec : Cluster.Serve.spec) =
  get
    (Cluster.Substrate.create ~vnodes:spec.Cluster.Serve.vnodes
       ~fault_domains:spec.Cluster.Serve.fault_domains
       ~nodes:spec.Cluster.Serve.nodes
       ~replication:spec.Cluster.Serve.replication
       ~engine:spec.Cluster.Serve.engine spec.Cluster.Serve.casebase)

let setup_once target =
  let t0 = now_ns () in
  (match target () with
  | Serve { spec; _ } -> ignore (Sys.opaque_identity (substrate spec))
  | Alloc spec ->
      ignore
        (Sys.opaque_identity
           (get (Rtlsim.Engine.factory spec.Desim.Simulate.casebase))));
  now_ns () - t0

(* Set-ups made before each pass of an end-to-end run; [end_to_end]
   says which of them [setup_s] reports. *)
let setups_per_pass = 5

(* ------------------------------------------------------------------ *)
(* Workload layer: replay of the arrival stream                         *)
(* ------------------------------------------------------------------ *)

(* Arrival sources as [Cluster.Serve.run] builds them: per-app pull
   sources split from the root seed in apps order, merged by
   [Workload.Stream]. *)
let arrival_stream ~seed ~horizon apps =
  let root = Workload.Prng.create ~seed in
  Workload.Stream.create
    (List.map
       (fun p ->
         Desim.Apps.arrival_source p ~rng:(Workload.Prng.split root) ~horizon)
       apps)

(* The streaming replay pulls and drops each arrival, as the serve
   [Stream] source does. *)
let replay_stream (spec : Cluster.Serve.spec) =
  let stream =
    arrival_stream ~seed:spec.Cluster.Serve.seed
      ~horizon:spec.Cluster.Serve.duration_us
      (List.map
         (fun (p : Desim.Apps.profile) ->
           {
             p with
             Desim.Apps.period_us =
               p.Desim.Apps.period_us /. spec.Cluster.Serve.load_scale;
           })
         spec.Cluster.Serve.apps)
  in
  let cap = Option.value spec.Cluster.Serve.max_requests ~default:max_int in
  let rec go n =
    if n >= cap then n
    else
      match Workload.Stream.pull stream with
      | None -> n
      | Some item ->
          ignore (Sys.opaque_identity item);
          go (n + 1)
  in
  go 0

(* Replays the arrivals of a serve workload; [None] for alloc-sim,
   whose simulator generates its own arrivals and never calls the
   workload layer. *)
let replay ?parent target =
  match target with
  | Alloc _ -> None
  | Serve { spec; _ } ->
      let w0 = Gc.minor_words () in
      let _, ns, n =
        timed_span ?parent "workload.replay" (fun () ->
            match spec.Cluster.Serve.source with
            | Cluster.Serve.Stream -> replay_stream spec
            | Cluster.Serve.Pregenerated ->
                Array.length (Cluster.Serve.workload spec))
      in
      Some (n, ns, Gc.minor_words () -. w0)

(* ------------------------------------------------------------------ *)
(* Output checks                                                        *)
(* ------------------------------------------------------------------ *)

let checks : (string * bool) list ref = ref []
(* Repeated checks of one name fold into one line. *)
let check name ok =
  match List.assoc_opt name !checks with
  | Some prev ->
      checks :=
        (name, prev && ok) :: List.filter (fun (n, _) -> n <> name) !checks
  | None -> checks := (name, ok) :: !checks

(* A prefix of the workload's requests gets the same variant and Q15
   score from the serving engine as from the Q15 golden model.  For a
   serve workload the serving engine is the primary replica's, as the
   run routes it, and retained Full outcomes must carry the same
   decision; for alloc-sim it is the simulator's rtlsim engine. *)
let prefix = 2000

let same_decision a b =
  match (a, b) with
  | Ok (x : Qos_core.Engine.decision), Ok (y : Qos_core.Engine.decision) ->
      x.Qos_core.Engine.impl_id = y.Qos_core.Engine.impl_id
      && Fxp.Q15.to_raw x.Qos_core.Engine.score
         = Fxp.Q15.to_raw y.Qos_core.Engine.score
  | _ -> false

let check_engine_prefix target (first : pass) =
  match target with
  | Serve { spec; _ } ->
      let arrivals =
        Cluster.Serve.workload
          { spec with Cluster.Serve.max_requests = Some prefix }
      in
      let sub = substrate spec in
      let golden =
        get (Qos_core.Engine.fixed_engine spec.Cluster.Serve.casebase)
      in
      let serving_ok = ref (arrivals <> [||]) and outcomes_ok = ref true in
      Array.iteri
        (fun i (_, _, (req : Qos_core.Request.t)) ->
          let want = golden.Qos_core.Engine.retrieve req in
          let primary =
            List.hd
              (Cluster.Substrate.replicas_for sub
                 ~type_id:req.Qos_core.Request.type_id)
          in
          let node = Cluster.Substrate.node sub primary in
          (match node.Cluster.Substrate.engine with
          | Some e ->
              if not (same_decision (e.Qos_core.Engine.retrieve req) want) then
                serving_ok := false
          | None -> serving_ok := false);
          if i < Array.length first.outcomes then
            match first.outcomes.(i) with
            | Cluster.Serve.Full { decision; _ } ->
                if not (same_decision (Ok decision) want) then
                  outcomes_ok := false
            | Cluster.Serve.Degraded _ | Cluster.Serve.Failed _ -> ())
        arrivals;
      check "engine-prefix-matches-fixed" !serving_ok;
      check "retained-full-outcomes-match-fixed" !outcomes_ok
  | Alloc spec ->
      let items =
        Workload.Stream.drain ~max_items:(prefix / 4)
          (arrival_stream ~seed:spec.Desim.Simulate.seed
             ~horizon:spec.Desim.Simulate.duration_us spec.Desim.Simulate.apps)
      in
      let cb = spec.Desim.Simulate.casebase in
      let golden = get (Qos_core.Engine.fixed_engine cb) in
      let rtl = get (Rtlsim.Engine.factory cb) in
      check "engine-prefix-matches-fixed"
        (items <> []
        && List.for_all
             (fun (_, _, req) ->
               same_decision
                 (rtl.Qos_core.Engine.retrieve req)
                 (golden.Qos_core.Engine.retrieve req))
             items)

let check_digest w ~seed digest =
  match List.assoc_opt (w.name, seed) recorded_digests with
  | Some want -> check "digest-matches-recorded" (String.equal want digest)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

let json_number v =
  if not (Float.is_finite v) then "0"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let correct = List.for_all snd !checks in
  List.iter
    (fun (name, ok) ->
      Printf.printf "# check %-36s %s\n" name (if ok then "ok" else "FAIL"))
    (List.rev !checks);
  List.iter
    (fun (name, unit, v) ->
      Printf.printf "# %-32s %18s %s\n" name (json_number v) unit)
    metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
              (json_string name) (json_number v) (json_string unit))
          metrics))

let assoc0 k l = Option.value (List.assoc_opt k l) ~default:0.0
let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                       *)
(* ------------------------------------------------------------------ *)

(* A run measures [instances] seeded instances of its workload: the
   seed itself and seeds derived from it.  Passes cycle through them,
   so every instance samples the whole run, and a run averages over
   seeds as well as over time. *)
let instances = 3
let instance_seed seed i = seed + (i * 1_000_003)

let end_to_end w ~seed ~seconds =
  let targets =
    Array.init instances (fun i () -> w.target (instance_seed seed i))
  in
  let budget = int_of_float (seconds *. 1e9) and t0 = now_ns () in
  (* Each pass comes with the set-ups made just before it. *)
  let rec loop acc n =
    if n >= 2 * instances && now_ns () - t0 >= budget then acc
    else begin
      let i = n mod instances in
      let target = targets.(i) in
      settle ();
      let setups =
        List.init setups_per_pass (fun _ -> float_of_int (setup_once target))
      in
      settle ();
      let _, p = run_pass (target ()) in
      if n < instances then check_engine_prefix (target ()) p;
      Printf.printf
        "# pass %d: seed=%d requests=%d wall=%.4fs words/req=%.1f\n%!" (n + 1)
        (instance_seed seed i) p.requests (secs (pass_ns p))
        (p.total_words /. float_of_int p.requests);
      loop ((i, { p with outcomes = [||] }, setups) :: acc) (n + 1)
    end
  in
  let runs = loop [] 0 in
  let top_heap = (Gc.quick_stat ()).Gc.top_heap_words in
  let passes = List.map (fun (_, p, _) -> p) runs in
  check "accounting" (List.for_all (fun p -> p.accounting_ok) passes);
  (* Per instance, fastest first. *)
  let by_instance =
    List.init instances (fun i ->
        List.filter_map
          (fun (j, p, s) -> if i = j then Some (p, s) else None)
          runs
        |> List.sort (fun (a, _) (b, _) -> compare (pass_ns a) (pass_ns b)))
  in
  check "digest-repeats-across-passes"
    (List.for_all
       (fun ps ->
         let p0, _ = List.hd ps in
         List.for_all
           (fun (p, _) ->
             String.equal p.digest p0.digest
             && String.equal p.export_digest p0.export_digest)
           ps)
       by_instance);
  List.iteri
    (fun i ps ->
      let p, _ = List.hd ps in
      let seed = instance_seed seed i in
      Printf.printf "# seed %d digest %s\n" seed p.digest;
      check_digest w ~seed p.digest)
    by_instance;
  (* Another tenant of the host can only add time, and it does so in
     spells of seconds.  Each instance is therefore timed by its fastest
     pass, and the set-up median is taken over the set-ups made before
     the fastest quarter of each instance's passes: the quiet windows of
     the run. *)
  let setup_ns =
    median
      (List.concat_map
         (fun ps ->
           List.concat_map snd
             (List.filteri (fun k _ -> k < max 1 (List.length ps / 4)) ps))
         by_instance)
  in
  let fastest = List.map (fun ps -> fst (List.hd ps)) by_instance in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 fastest in
  let requests = sum (fun p -> p.requests) in
  let not_full = sum (fun p -> p.not_full) in
  let throughput =
    float_of_int requests
    /. secs (max 1 (sum (fun p -> pass_ns p - int_of_float setup_ns)))
  in
  let first = List.hd fastest in
  Printf.printf "# requests %d  requests_failed %d  failed_ratio %.6f\n"
    requests not_full
    (float_of_int not_full /. float_of_int requests);
  let qos_line name unit =
    match List.assoc_opt name first.qos with
    | Some v -> Printf.printf "# seed %d %-20s %.4f %s\n" seed name v unit
    | None -> Printf.printf "# seed %d %-20s n/a\n" seed name
  in
  qos_line "sim_latency_p50_us" "us (sim-time)";
  qos_line "sim_latency_p99_us" "us (sim-time)";
  qos_line "sim_latency_samples" "samples";
  qos_line "mean_similarity" "(0-1)";
  let attempted = List.fold_left (fun n p -> n + p.requests) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.errors) 0 passes in
  print_result ~attempted ~failed
    [
      ("throughput_rps", "req/s", throughput);
      ("setup_s", "s", setup_ns /. 1e9);
      ("peak_heap_mb", "MB", mb_of_words top_heap);
      ( "alloc_words_per_req",
        "words",
        median
          (List.map (fun p -> p.total_words /. float_of_int p.requests) passes)
      );
      ( "full_qos_ratio",
        "share",
        1.0 -. (float_of_int not_full /. float_of_int requests) );
    ]

(* ------------------------------------------------------------------ *)
(* Traced run                                                           *)
(* ------------------------------------------------------------------ *)

(* Layer values of one round of interleaved passes. *)
type round = {
  values : (string * string * float) list;  (** Name, unit, value. *)
  untraced : pass;
  traced : pass;
}

let traced_round target ~round_no ~traced_first =
  let root =
    add_span (Printf.sprintf "round%d" round_no) ~start_ns:(now_ns ()) ~end_ns:0
  in
  (* Alternate which of the untraced and the traced pass goes first, so
     heap state left by the previous pass does not favour one side. *)
  let pass_span name f =
    settle ();
    let id = add_span ~parent:root name ~start_ns:(now_ns ()) ~end_ns:0 in
    let r = f id in
    close_span id;
    r
  in
  let untraced_pass () =
    pass_span "pass.untraced" (fun parent -> snd (run_pass ~parent target))
  in
  let accs = ref [] in
  let traced_pass () =
    pass_span "pass.traced" (fun parent -> run_pass ~parent ~accs target)
  in
  let untraced, (traced_span, traced) =
    if traced_first then
      let t = traced_pass () in
      (untraced_pass (), t)
    else
      let u = untraced_pass () in
      (u, traced_pass ())
  in
  settle ();
  let replayed = replay ~parent:root target in
  let accs = List.rev !accs in
  List.iter
    (fun a ->
      if a.calls > 0 then
        ignore
          (add_span ~parent:traced_span
             (Printf.sprintf "engine.instance%d" a.instance)
             ~start_ns:a.first_ns ~end_ns:a.last_ns
             ~args:
               [
                 ("calls", string_of_int a.calls);
                 ("busy_ns", string_of_int a.busy_ns);
                 ("words", string_of_int a.words);
               ]))
    accs;
  let recorder_off =
    match target with
    | Serve { spec; recorder = true } ->
        Some
          (pass_span "pass.recorder_off" (fun parent ->
               snd (run_pass ~parent (Serve { spec; recorder = false }))))
    | Serve { recorder = false; _ } | Alloc _ -> None
  in
  let req = float_of_int traced.requests in
  let per_req x = x /. req in
  let engine_ns = float_of_int (sum_accs (fun a -> a.busy_ns) accs) in
  let engine_words = float_of_int (sum_accs (fun a -> a.words) accs) in
  let calls = sum_accs (fun a -> a.calls) accs in
  let wl_n, wl_ns, wl_words =
    match replayed with
    | Some (n, ns, words) -> (n, float_of_int ns, words)
    | None -> (0, 0.0, 0.0)
  in
  if replayed <> None then
    check "replayed-arrivals-equal-requests" (wl_n = traced.requests);
  let obs_ns, obs_words, off_words =
    match recorder_off with
    | Some off ->
        ( float_of_int (untraced.run_ns - off.run_ns),
          untraced.run_words -. off.run_words,
          off.run_words )
    | None -> (0.0, 0.0, 0.0)
  in
  let run_ns = float_of_int traced.run_ns in
  let is_serve = match target with Serve _ -> true | Alloc _ -> false in
  let c k = assoc0 k traced.counters in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  close_span root;
  let ns = "ns" and words = "words" and n = "count" and share = "share" in
  let values =
    [
      ("workload.ns_per_req", ns, per_req wl_ns);
      ("workload.words_per_req", words, per_req wl_words);
      ("engine.ns_per_req", ns, per_req engine_ns);
      ("engine.words_per_req", words, per_req engine_words);
      ("engine.calls", n, float_of_int calls);
      ("engine.errors", n, float_of_int (sum_accs (fun a -> a.failures) accs));
      ( "engine.cycles_per_req",
        "cycles",
        per_req (float_of_int (sum_accs (fun a -> a.cycles) accs)) );
      ( "cluster.ns_per_req",
        ns,
        if is_serve then per_req (run_ns -. wl_ns -. engine_ns -. obs_ns)
        else 0.0 );
      ( "cluster.words_per_req",
        words,
        if is_serve then
          per_req (traced.run_words -. wl_words -. engine_words -. obs_words)
        else 0.0 );
      ("cluster.heartbeats", n, c "heartbeats");
      ("cluster.outage_events", n, c "outage_events");
      ("cluster.retries", n, c "retries");
      ("cluster.failovers", n, c "failovers");
      ("cluster.sheds", n, c "sheds");
      ("cluster.steals", n, c "steals");
      ("cluster.steal_denials", n, c "steal_denials");
      ("cluster.retry_ratio", share, ratio (c "retries") req);
      ( "cluster.steal_hit_ratio",
        share,
        ratio (c "steals") (c "steals" +. c "steal_denials") );
      ("obs.ns_per_req", ns, per_req obs_ns);
      ("obs.words_per_req", words, per_req obs_words);
      ("obs.off_words_per_req", words, per_req off_words);
      ("obs.events_recorded", n, c "events_recorded");
      ("obs.events_dropped", n, c "events_dropped");
      ("obs.export_s", "s", secs traced.export_ns);
      ("obs.export_bytes", "bytes", float_of_int traced.export_bytes);
      ("report.render_s", "s", secs traced.render_ns);
      ("report.bytes", "bytes", float_of_int traced.report_bytes);
      ( "allocator.ns_per_req",
        ns,
        if is_serve then 0.0 else per_req (run_ns -. engine_ns) );
      ( "allocator.words_per_req",
        words,
        if is_serve then 0.0 else per_req (traced.run_words -. engine_words) );
      ( "allocator.bypass_hit_ratio",
        share,
        ratio (c "bypass_hits") (c "bypass_hits" +. c "bypass_misses") );
      ("allocator.extra_rounds", n, c "extra_rounds");
      ("allocator.preemptions", n, c "preemptions");
      ("allocator.refusals", n, c "refusals");
      ("desim.events_fired", n, c "events_fired");
      ("gc.major_collections", n, float_of_int untraced.majors);
      ("gc.minor_words", words, untraced.total_words);
      ( "trace.throughput_rps",
        "req/s",
        float_of_int traced.requests /. secs (pass_ns traced) );
      ( "trace.overhead_share",
        share,
        float_of_int (pass_ns traced - pass_ns untraced)
        /. float_of_int (pass_ns untraced) );
      ("qos.requests", n, req);
      ("qos.requests_failed", n, float_of_int traced.not_full);
      ("qos.failed_ratio", share, float_of_int traced.not_full /. req);
      ("qos.sim_latency_p50_us", "us", assoc0 "sim_latency_p50_us" traced.qos);
      ("qos.sim_latency_p99_us", "us", assoc0 "sim_latency_p99_us" traced.qos);
      ( "qos.sim_latency_samples",
        n,
        assoc0 "sim_latency_samples" traced.qos );
      ( "qos.mean_similarity",
        share,
        if is_serve then
          ratio
            (float_of_int (sum_accs (fun a -> a.score_sum) accs) *. Fxp.Q15.ulp)
            (float_of_int calls)
        else assoc0 "mean_similarity" traced.qos );
    ]
  in
  { values; untraced; traced }

let traced w ~seed ~seconds =
  let target () = w.target seed in
  let budget = int_of_float (seconds *. 1e9) and t0 = now_ns () in
  let rec loop acc n =
    if n >= 2 && now_ns () - t0 >= budget then List.rev acc
    else begin
      let r =
        traced_round (target ()) ~round_no:n ~traced_first:(n mod 2 = 1)
      in
      if n = 0 then check_engine_prefix (target ()) r.untraced;
      Printf.printf "# round %d: untraced=%.4fs traced=%.4fs\n%!" (n + 1)
        (secs (pass_ns r.untraced)) (secs (pass_ns r.traced));
      let drop p = { p with outcomes = [||] } in
      loop
        ({ r with untraced = drop r.untraced; traced = drop r.traced } :: acc)
        (n + 1)
    end
  in
  let rounds = loop [] 0 in
  let first = List.hd rounds in
  check "accounting"
    (List.for_all
       (fun r -> r.untraced.accounting_ok && r.traced.accounting_ok)
       rounds);
  check "traced-digest-equals-untraced"
    (List.for_all
       (fun r ->
         String.equal r.traced.digest first.untraced.digest
         && String.equal r.untraced.digest first.untraced.digest
         && String.equal r.traced.export_digest first.untraced.export_digest)
       rounds);
  check_digest w ~seed first.traced.digest;
  Printf.printf "# digest %s\n" first.traced.digest;
  let dir = ".perfbench-out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/spans-%s-seed%d.json" dir w.name seed in
  write_spans path;
  Printf.printf "# spans -> %s\n" path;
  let names = List.map (fun (name, unit, _) -> (name, unit)) first.values in
  let attempted =
    List.fold_left
      (fun n r -> n + r.untraced.requests + r.traced.requests)
      0 rounds
  in
  let failed =
    List.fold_left (fun n r -> n + r.untraced.errors + r.traced.errors) 0 rounds
  in
  print_result ~attempted ~failed
    (List.map
       (fun (name, unit) ->
         let value r =
           List.find_map
             (fun (k, _, v) -> if k = name then Some v else None)
             r.values
         in
         (name, unit, median (List.filter_map value rounds)))
       names)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1 \
     [--commit ID]\n"
    (String.concat "|" (List.map (fun w -> w.name) workloads));
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | [] -> acc
    | key :: value :: rest
      when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  let opts = parse [] args in
  let opt k = List.assoc_opt k opts in
  let int_opt k = Option.bind (opt k) int_of_string_opt in
  let w =
    match opt "workload" with
    | Some name -> (
        match List.find_opt (fun w -> w.name = name) workloads with
        | Some w -> w
        | None -> usage ())
    | None -> usage ()
  in
  let seed = Option.value (int_opt "seed") ~default:w.default_seed in
  let seconds =
    Option.value
      (Option.bind (opt "seconds") float_of_string_opt)
      ~default:10.0
  in
  let trace =
    match opt "trace" with
    | Some "1" -> true
    | Some "0" | None -> false
    | Some _ -> usage ()
  in
  Printf.printf "# host nproc=%d ocaml=%s word_size=%d commit=%s\n"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version Sys.word_size
    (Option.value (opt "commit") ~default:"unknown");
  Printf.printf "# workload %s seed %d trace %d: %s\n%!" w.name seed
    (if trace then 1 else 0) w.why;
  tracing := trace;
  if trace then traced w ~seed ~seconds else end_to_end w ~seed ~seconds
