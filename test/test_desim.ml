(* Tests for the discrete-event engine, the application models and the
   full-system simulation. *)

module H = Desim.Heap
module E = Desim.Engine
module A = Desim.Apps
module S = Desim.Simulate

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Heap ------------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = H.create () in
  check_bool "empty" true (H.is_empty h);
  List.iter
    (fun (t, v) -> H.push h ~time:t v)
    [ (5.0, "e"); (1.0, "a"); (3.0, "c"); (2.0, "b"); (4.0, "d") ];
  check_int "size" 5 (H.size h);
  check_bool "peek" true (H.min_time h = 1.0);
  let order = List.init 5 (fun _ -> H.pop_min h) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c"; "d"; "e" ] order;
  check_bool "drained" true (H.is_empty h && H.min_time h = Float.infinity)

let test_heap_stable_ties () =
  let h = H.create () in
  List.iter (fun v -> H.push h ~time:1.0 v) [ 1; 2; 3; 4 ];
  let order = List.init 4 (fun _ -> H.pop_min h) in
  Alcotest.(check (list int)) "ties fire in insertion order" [ 1; 2; 3; 4 ] order

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let heap_props =
  [
    prop "heap pops in non-decreasing time order"
      QCheck2.Gen.(list_size (int_range 0 200) (float_range 0.0 1000.0))
      (fun times ->
        let h = H.create () in
        List.iter (fun t -> H.push h ~time:t ()) times;
        let rec drain last =
          H.is_empty h
          ||
          let t = H.min_time h in
          H.pop_min h;
          t >= last && drain t
        in
        drain neg_infinity);
    (* Interleaved push / pop / min_time against a reference: the
       pending entries stable-sorted by time, so equal times must leave
       in insertion order.  Times come from a small set to force ties. *)
    prop "heap matches a stable sort under interleaved operations"
      QCheck2.Gen.(
        list_size (int_range 0 300)
          (oneof
             [
               map (fun t -> `Push (float_of_int t)) (int_range 0 6);
               return `Pop;
               return `Min;
             ]))
      (fun ops ->
        let h = H.create () in
        let pending = ref [] and next_id = ref 0 in
        let reference_min () =
          match List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) !pending with
          | [] -> None
          | first :: _ -> Some first
        in
        List.for_all
          (fun op ->
            match op with
            | `Push time ->
                H.push h ~time !next_id;
                pending := !pending @ [ (time, !next_id) ];
                incr next_id;
                H.size h = List.length !pending
            | `Min -> (
                match reference_min () with
                | None -> H.is_empty h && H.min_time h = Float.infinity
                | Some (time, _) -> H.min_time h = time)
            | `Pop -> (
                match reference_min () with
                | None -> H.is_empty h
                | Some ((time, id) as first) ->
                    pending := List.filter (fun e -> e != first) !pending;
                    let t = H.min_time h in
                    t = time && H.pop_min h = id))
          ops);
    prop "heap size tracks pushes and pops"
      QCheck2.Gen.(list_size (int_range 0 50) (float_range 0.0 10.0))
      (fun times ->
        let h = H.create () in
        List.iter (fun t -> H.push h ~time:t ()) times;
        H.size h = List.length times);
  ]

(* --- Engine ------------------------------------------------------------------- *)

let test_engine_ordering () =
  let engine = E.create () in
  let log = ref [] in
  E.schedule engine ~delay:10.0 (fun _ -> log := "late" :: !log);
  E.schedule engine ~delay:1.0 (fun e ->
      log := "early" :: !log;
      E.schedule e ~delay:2.0 (fun _ -> log := "nested" :: !log));
  let fired = E.run engine in
  check_int "three events" 3 fired;
  Alcotest.(check (list string))
    "order" [ "early"; "nested"; "late" ] (List.rev !log);
  check_bool "clock at last event" true (E.now engine = 10.0)

let test_engine_until () =
  let engine = E.create () in
  let count = ref 0 in
  List.iter
    (fun d -> E.schedule engine ~delay:d (fun _ -> incr count))
    [ 1.0; 2.0; 50.0 ];
  let fired = E.run ~until:10.0 engine in
  check_int "two within the horizon" 2 fired;
  check_int "one pending" 1 (E.pending engine)

let test_heap_pop_min_empty () =
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () ->
      ignore (H.pop_min (H.create () : unit H.t)))

(* NaN compares false against everything, so it must never reach the
   heap: one NaN entry would break the ordering for every other. *)
let test_engine_nan_time () =
  let engine = E.create () in
  Alcotest.check_raises "schedule_at NaN"
    (Invalid_argument "Engine.schedule_at: NaN time") (fun () ->
      E.schedule_at engine ~time:Float.nan (fun _ -> ()));
  check_int "nothing queued" 0 (E.pending engine)

let test_engine_validation () =
  let engine = E.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative or non-finite delay")
    (fun () -> E.schedule engine ~delay:(-1.0) (fun _ -> ()));
  E.schedule engine ~delay:5.0 (fun _ -> ());
  let _ = E.run engine in
  check_bool "schedule in the past rejected" true
    (try
       E.schedule_at engine ~time:1.0 (fun _ -> ());
       false
     with Invalid_argument _ -> true)

(* --- Apps --------------------------------------------------------------------- *)

let test_reference_casebase () =
  let stats = Qos_core.Casebase.stats A.reference_casebase in
  check_int "six function types" 6 stats.Qos_core.Casebase.type_count;
  check_int "three variants each" 18 stats.Qos_core.Casebase.impl_count;
  check_int "four applications" 4 (List.length A.standard_apps)

let test_instantiate_jitter () =
  let rng = Workload.Prng.create ~seed:3 in
  let template =
    {
      A.t_type_id = 1;
      t_constraints = [ (1, 16, 4, 1.0); (4, 40, 0, 2.0) ];
    }
  in
  for _ = 1 to 50 do
    let r = A.draw rng (A.compile template) in
    let c1 = Option.get (Qos_core.Request.find r 1) in
    let c4 = Option.get (Qos_core.Request.find r 4) in
    check_bool "jitter within bounds" true
      (c1.Qos_core.Request.value >= 12 && c1.Qos_core.Request.value <= 20);
    check_int "no jitter is exact" 40 c4.Qos_core.Request.value
  done

let test_instantiate_clamps () =
  let rng = Workload.Prng.create ~seed:3 in
  let template =
    { A.t_type_id = 1; t_constraints = [ (1, 1, 5, 1.0) ] }
  in
  for _ = 1 to 30 do
    let r = A.draw rng (A.compile template) in
    let c = Option.get (Qos_core.Request.find r 1) in
    check_bool "clamped at zero" true (c.Qos_core.Request.value >= 0)
  done

(* The per-arrival instantiation the compiled templates replaced:
   jitter in template order, clamp, then validate and sort through
   [Request.make].  Kept here as the oracle for [A.compile]/[A.draw]. *)
let reference_instantiate rng (template : A.template) =
  let jittered (aid, value, jitter, weight) =
    let value =
      if jitter = 0 then value
      else value + Workload.Prng.int_in rng ~lo:(-jitter) ~hi:jitter
    in
    (aid, min (max value 0) Qos_core.Attr.max_word, weight)
  in
  Qos_core.Util.ok_exn ~ctx:"reference"
    (Qos_core.Request.make ~type_id:template.A.t_type_id
       (List.map jittered template.A.t_constraints))

(* Random valid templates: distinct attribute IDs in random (unsorted)
   order, frequent zero jitter, nominal values at and beyond both ends
   of the word range so draws clamp at 0 and 65535. *)
let template_gen =
  let open QCheck2.Gen in
  let value =
    oneof
      [ int_range (-3) 3; int_range 65530 65540; int_range 0 Qos_core.Attr.max_word ]
  in
  let jitter = oneof [ return 0; int_range 1 8; int_range 0 70000 ] in
  let weight = float_range 0.05 4.0 in
  let* type_id = int_range 1 6 in
  let* attrs = shuffle_l [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ] in
  let* n = int_range 0 9 in
  let* constraints =
    flatten_l
      (List.map
         (fun aid ->
           map3 (fun v j w -> (aid, v, j, w)) value jitter weight)
         (List.filteri (fun i _ -> i < n) attrs))
  in
  return { A.t_type_id = type_id; t_constraints = constraints }

let apps_props =
  [
    prop "compiled templates draw what instantiation drew"
      QCheck2.Gen.(pair template_gen (int_range 0 10_000))
      (fun (template, seed) ->
        let oracle = Workload.Prng.create ~seed
        and rng = Workload.Prng.create ~seed in
        let compiled = A.compile template in
        List.for_all
          (fun _ ->
            Qos_core.Request.equal
              (reference_instantiate oracle template)
              (A.draw rng compiled))
          (List.init 20 Fun.id)
        (* Same number of draws taken: the streams stay in lockstep. *)
        && Int64.equal (Workload.Prng.int64 oracle) (Workload.Prng.int64 rng));
  ]

let test_cycle_round_robin () =
  let rng = Workload.Prng.create ~seed:5 in
  let cy = A.cycle A.mp3_player in
  let types = List.init 5 (fun _ -> (A.next rng cy).Qos_core.Request.type_id) in
  Alcotest.(check (list int)) "templates cycle in order" [ 3; 1; 3; 1; 3 ] types;
  Alcotest.check_raises "no templates"
    (Invalid_argument "Apps.next: profile has no templates") (fun () ->
      ignore (A.next rng (A.cycle { A.mp3_player with A.templates = [] })))

(* --- Simulation ------------------------------------------------------------------ *)

let test_simulation_deterministic () =
  let spec = S.default_spec () in
  let a = S.run spec in
  let b = S.run spec in
  check_bool "identical reports for identical seeds" true (a = b);
  let c = S.run { spec with S.seed = 43 } in
  check_bool "different seed, different trace" true (a <> c)

let test_simulation_consistency () =
  let report = S.run (S.default_spec ()) in
  let t = report.S.totals in
  check_int "grants + refusals = requests" t.S.requests
    (t.S.grants + t.S.refusals);
  check_bool "work happened" true (t.S.requests > 50);
  check_bool "similarity averages into [0,1]" true
    (S.mean_similarity t >= 0.0 && S.mean_similarity t <= 1.0);
  check_bool "grant rate into [0,1]" true
    (S.grant_rate t >= 0.0 && S.grant_rate t <= 1.0);
  check_bool "bypass tokens get hits in steady state" true
    (t.S.bypass_grants > 0);
  check_bool "per-app sums equal totals" true
    (t.S.requests
    = List.fold_left (fun acc (_, m) -> acc + m.S.requests) 0 report.S.per_app);
  check_bool "resident tasks non-negative" true
    (report.S.tasks_resident_at_end >= 0)

let test_simulation_short_horizon () =
  let spec = { (S.default_spec ()) with S.duration_us = 1_000.0 } in
  let report = S.run spec in
  check_bool "short run, little work" true (report.S.totals.S.requests < 10)

(* An infinite horizon would never end and a NaN or negative one would
   run nothing yet report success: both are rejected up front. *)
let test_simulation_rejects_bad_duration () =
  List.iter
    (fun duration_us ->
      let spec = { (S.default_spec ()) with S.duration_us } in
      match S.validate spec with
      | Ok () -> Alcotest.failf "duration %g accepted" duration_us
      | Error msg ->
          check_bool "names the command" true
            (String.starts_with ~prefix:"simulate: duration_us" msg);
          Alcotest.check_raises "run raises" (Invalid_argument msg) (fun () ->
              ignore (S.run spec)))
    [ infinity; Float.nan; -100.0; 0.0 ];
  check_bool "a finite horizon passes" true
    (S.validate (S.default_spec ()) = Ok ())

(* Utilization is kept per device position, so a repeated id would be
   sampled and printed twice and a zero capacity would print nan%.  The
   duplicate is rejected up front; a capacity <= 0 cannot reach the
   spec at all, since [Device.make] is the only constructor. *)
let test_simulation_rejects_bad_devices () =
  let dsp id =
    Qos_core.Util.ok_exn ~ctx:"device"
      (Allocator.Device.make ~device_id:id ~target:Qos_core.Target.Dsp
         ~capacity:2 ())
  in
  let spec =
    {
      (S.default_spec ()) with
      S.devices = (S.default_spec ()).S.devices @ [ dsp "dsp1"; dsp "dsp0" ];
    }
  in
  (match S.validate spec with
  | Ok () -> Alcotest.fail "duplicate device id accepted"
  | Error msg ->
      Alcotest.(check string)
        "names the duplicate" "simulate: duplicate device id \"dsp0\"" msg;
      Alcotest.check_raises "run raises" (Invalid_argument msg) (fun () ->
          ignore (S.run spec)));
  List.iter
    (fun capacity ->
      check_bool
        (Printf.sprintf "capacity %d refused" capacity)
        true
        (Result.is_error
           (Allocator.Device.make ~device_id:"dsp9" ~target:Qos_core.Target.Dsp
              ~capacity ())))
    [ 0; -1 ];
  check_bool "distinct ids pass" true
    (S.validate
       {
         (S.default_spec ()) with
         S.devices = (S.default_spec ()).S.devices @ [ dsp "dsp1" ];
       }
    = Ok ())

(* The fault-layer seam: [start] sees the initial arrivals queued and
   the root stream past the per-app splits, [retrieved] fires once per
   refusal or non-bypass grant, and [place] takes over every
   non-bypass grant in place of the default release. *)
let check_hooks_contract spec =
  let queued_at_start = ref (-1) and root_draw = ref (-1) in
  let retrievals = ref 0 and placements = ref 0 in
  let hooks =
    {
      S.start =
        (fun _ engine root ->
          queued_at_start := E.pending engine;
          root_draw := Workload.Prng.int root ~bound:1_000_000);
      retrieved = (fun _ _ -> incr retrievals);
      place =
        (fun manager engine _ grant ~release_at ->
          incr placements;
          check_bool "release after grant" true (release_at >= E.now engine);
          let task = grant.Allocator.Manager.task in
          let task_id = task.Allocator.Manager.task_id in
          E.schedule_at engine ~time:release_at (fun _ ->
              ignore (Allocator.Manager.release manager ~task_id)));
    }
  in
  let r = S.run ~hooks spec in
  let t = r.S.totals in
  check_int "initial arrivals queued" (List.length spec.S.apps)
    !queued_at_start;
  let expected_root = Workload.Prng.create ~seed:spec.S.seed in
  List.iter (fun _ -> ignore (Workload.Prng.split expected_root)) spec.S.apps;
  check_int "root stream past the app splits"
    (Workload.Prng.int expected_root ~bound:1_000_000)
    !root_draw;
  let placed = t.S.grants - t.S.bypass_grants in
  check_int "one readback per retrieval" (t.S.refusals + placed) !retrievals;
  check_int "one placement per non-bypass grant" placed !placements;
  check_int "tally counts every grant" t.S.grants
    (List.assoc "granted" r.S.event_counts);
  t

let test_simulation_hooks_contract () =
  let spec = { (S.default_spec ()) with S.duration_us = 50_000.0 } in
  ignore (check_hooks_contract spec);
  (* One small GPP refuses requests, so readbacks after refusals count. *)
  let gpp =
    match
      Allocator.Device.make ~device_id:"gpp0" ~target:Qos_core.Target.Gpp
        ~capacity:2 ()
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let tight = check_hooks_contract { spec with S.devices = [ gpp ] } in
  check_bool "the tight platform refuses" true (tight.S.refusals > 0)

let test_simulation_tight_system () =
  (* A platform with almost no resources refuses or degrades. *)
  let dev id target capacity =
    match Allocator.Device.make ~device_id:id ~target ~capacity () with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let spec =
    {
      (S.default_spec ()) with
      S.devices = [ dev "gpp0" Qos_core.Target.Gpp 2 ];
    }
  in
  let report = S.run spec in
  let generous = S.run (S.default_spec ()) in
  check_bool "tight system satisfies less or worse" true
    (S.grant_rate report.S.totals < S.grant_rate generous.S.totals
    || S.mean_similarity report.S.totals
       < S.mean_similarity generous.S.totals);
  check_bool "still simulates" true (report.S.totals.S.requests > 0)

let test_energy_accounting () =
  let report = S.run (S.default_spec ()) in
  check_bool "energy accumulated" true (report.S.totals.S.energy_uj_sum > 0.0);
  let per_app_total =
    List.fold_left
      (fun acc (_, m) -> acc +. m.S.energy_uj_sum)
      0.0 report.S.per_app
  in
  check_bool "per-app energies sum to total" true
    (Float.abs (per_app_total -. report.S.totals.S.energy_uj_sum) < 1e-6);
  (* A lower-power platform (ASIC/DSP rich) should cost less energy per
     grant than running everything on the GPP at 40 mW/slot... the FPGA
     variants dominate here, so simply check the software-only run
     differs. *)
  let dev id target capacity =
    match Allocator.Device.make ~device_id:id ~target ~capacity () with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let sw_only =
    S.run
      {
        (S.default_spec ()) with
        S.devices = [ dev "gpp0" Qos_core.Target.Gpp 8 ];
      }
  in
  check_bool "platform changes the energy picture" true
    (Float.abs
       (sw_only.S.totals.S.energy_uj_sum -. report.S.totals.S.energy_uj_sum)
    > 1.0)

module T = Desim.Tracefile

let test_trace_collection () =
  let spec = { (S.default_spec ()) with S.collect_trace = true } in
  let report = S.run spec in
  check_int "one row per request" report.S.totals.S.requests
    (List.length report.S.trace);
  let analysis = T.analyze report.S.trace in
  check_int "granted + bypass + refused = rows" analysis.T.total
    (analysis.T.granted + analysis.T.bypassed + analysis.T.refused);
  check_int "bypass rows match metrics" report.S.totals.S.bypass_grants
    analysis.T.bypassed;
  check_bool "rows are time-ordered" true
    (let rec ordered = function
       | [] | [ _ ] -> true
       | a :: (b :: _ as rest) ->
           a.T.time_us <= b.T.time_us && ordered rest
     in
     ordered report.S.trace);
  check_bool "no trace when disabled" true
    ((S.run (S.default_spec ())).S.trace = [])

let test_trace_csv_roundtrip () =
  let spec =
    { (S.default_spec ()) with S.collect_trace = true; S.duration_us = 50_000.0 }
  in
  let report = S.run spec in
  let csv = T.to_csv report.S.trace in
  match T.of_csv csv with
  | Error e -> Alcotest.fail e
  | Ok rows ->
      check_int "row count survives" (List.length report.S.trace)
        (List.length rows);
      check_bool "fields survive" true
        (List.for_all2
           (fun (a : T.row) (b : T.row) ->
             String.equal a.T.app_id b.T.app_id
             && a.T.type_id = b.T.type_id && a.T.outcome = b.T.outcome
             && a.T.impl_id = b.T.impl_id
             && String.equal a.T.device_id b.T.device_id
             && a.T.rounds = b.T.rounds
             && Float.abs (a.T.similarity -. b.T.similarity) < 1e-5
             && Float.abs (a.T.setup_us -. b.T.setup_us) < 1e-2)
           report.S.trace rows)

(* Generator producing rows whose float fields survive the %.3f / %.6f
   formatting of [to_csv] exactly, so equality (not tolerance) can be
   checked after the round-trip. *)
let trace_row_gen =
  let open QCheck2.Gen in
  let ident =
    let* len = int_range 1 8 in
    let* chars =
      list_size (return len)
        (oneof [ char_range 'a' 'z'; char_range '0' '9'; return '_' ])
    in
    return (String.init len (List.nth chars))
  in
  let milli = map (fun k -> float_of_int k /. 1000.0) (int_range 0 5_000_000) in
  let micro = map (fun k -> float_of_int k /. 1e6) (int_range 0 1_000_000) in
  let* time_us = milli in
  let* app_id = ident in
  let* type_id = int_range 0 99 in
  let* outcome = oneofl [ T.Granted; T.Granted_bypass; T.Refused ] in
  let* impl_id = int_range 0 99 in
  let* device_id = ident in
  let* similarity = micro in
  let* setup_us = milli in
  let* rounds = int_range 0 9 in
  return
    {
      T.time_us;
      app_id;
      type_id;
      outcome;
      impl_id;
      device_id;
      similarity;
      setup_us;
      rounds;
    }

let trace_props =
  [
    prop "trace CSV round-trips exactly over generated rows"
      QCheck2.Gen.(list_size (int_range 0 40) trace_row_gen)
      (fun rows ->
        match T.of_csv (T.to_csv rows) with
        | Error _ -> false
        | Ok back -> back = rows);
  ]

let test_trace_csv_field_validation () =
  let row id =
    {
      T.time_us = 1.0;
      app_id = id;
      type_id = 0;
      outcome = T.Granted;
      impl_id = 1;
      device_id = "dev0";
      similarity = 0.5;
      setup_us = 10.0;
      rounds = 1;
    }
  in
  List.iter
    (fun bad ->
      check_bool
        (Printf.sprintf "id %S rejected" bad)
        true
        (try
           ignore (T.to_csv [ row bad ]);
           false
         with Invalid_argument _ -> true))
    [ "a,b"; "a\nb"; "a\rb"; "a\"b" ];
  let bad_dev = { (row "ok") with T.device_id = "d\"ev" } in
  check_bool "device_id is validated too" true
    (try
       ignore (T.to_csv [ bad_dev ]);
       false
     with Invalid_argument _ -> true);
  check_bool "clean IDs pass" true
    (String.length (T.to_csv [ row "audio_app-0" ]) > 0)

let test_trace_csv_errors () =
  check_bool "bad header" true (Result.is_error (T.of_csv "nope\n1,2,3\n"));
  check_bool "bad row" true
    (Result.is_error
       (T.of_csv
          "time_us,app,type,outcome,impl,device,similarity,setup_us,rounds\nbad-line\n"));
  check_bool "unknown outcome" true (Result.is_error (T.outcome_of_string "maybe"));
  List.iter
    (fun o ->
      check_bool "outcome round-trip" true
        (T.outcome_of_string (T.outcome_to_string o) = Ok o))
    [ T.Granted; T.Granted_bypass; T.Refused ]

let test_utilization_metric () =
  let report = S.run (S.default_spec ()) in
  check_int "one entry per device" 5 (List.length report.S.mean_utilization);
  List.iter
    (fun (_, u) -> check_bool "fraction in [0,1]" true (u >= 0.0 && u <= 1.0))
    report.S.mean_utilization;
  check_bool "the DSP is the busiest device here" true
    (let u id = List.assoc id report.S.mean_utilization in
     u "dsp0" > u "gpp0")

let test_metrics_helpers () =
  check_bool "empty metrics" true (S.mean_similarity S.empty_metrics = 0.0);
  check_bool "empty rate" true (S.grant_rate S.empty_metrics = 0.0)

let () =
  Alcotest.run "desim"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "stable ties" `Quick test_heap_stable_ties;
          Alcotest.test_case "pop_min on empty" `Quick test_heap_pop_min_empty;
        ]
        @ heap_props );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "nan time" `Quick test_engine_nan_time;
        ] );
      ( "apps",
        [
          Alcotest.test_case "reference casebase" `Quick test_reference_casebase;
          Alcotest.test_case "jitter" `Quick test_instantiate_jitter;
          Alcotest.test_case "clamping" `Quick test_instantiate_clamps;
          Alcotest.test_case "cycle" `Quick test_cycle_round_robin;
        ]
        @ apps_props );
      ( "simulation",
        [
          Alcotest.test_case "deterministic" `Quick test_simulation_deterministic;
          Alcotest.test_case "consistency" `Quick test_simulation_consistency;
          Alcotest.test_case "short horizon" `Quick test_simulation_short_horizon;
          Alcotest.test_case "rejects bad duration" `Quick
            test_simulation_rejects_bad_duration;
          Alcotest.test_case "rejects bad devices" `Quick
            test_simulation_rejects_bad_devices;
          Alcotest.test_case "hooks contract" `Quick
            test_simulation_hooks_contract;
          Alcotest.test_case "tight system" `Quick test_simulation_tight_system;
          Alcotest.test_case "metric helpers" `Quick test_metrics_helpers;
          Alcotest.test_case "energy accounting" `Quick test_energy_accounting;
          Alcotest.test_case "trace collection" `Quick test_trace_collection;
          Alcotest.test_case "trace csv round-trip" `Quick
            test_trace_csv_roundtrip;
          Alcotest.test_case "trace csv errors" `Quick test_trace_csv_errors;
          Alcotest.test_case "trace csv field validation" `Quick
            test_trace_csv_field_validation;
          Alcotest.test_case "utilization metric" `Quick test_utilization_metric;
        ]
        @ trace_props );
    ]
