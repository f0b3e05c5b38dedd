(* Tests for the fault-injection library: the seed-driven injector,
   the golden-copy scrubber, and full campaigns exercising detection,
   recovery and graceful degradation end to end. *)

open Qos_core
module I = Faults.Injector
module S = Faults.Scrubber
module C = Faults.Campaign

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let get = function Ok x -> x | Error e -> Alcotest.fail e

(* --- Injector ---------------------------------------------------------------- *)

let test_injector_deterministic () =
  let run_one seed =
    let inj = I.create ~seed in
    let words = Array.make 64 0 in
    let flips = List.init 10 (fun _ -> I.flip_word inj words) in
    (flips, Array.copy words)
  in
  let f1, w1 = run_one 7 in
  let f2, w2 = run_one 7 in
  check_bool "same seed, same flips" true (f1 = f2);
  check_bool "same seed, same image" true (w1 = w2);
  let f3, _ = run_one 8 in
  check_bool "different seed, different flips" true (f1 <> f3)

let test_injector_flip_in_range () =
  let inj = I.create ~seed:1 in
  let words = Array.make 16 0xAAAA in
  for _ = 1 to 200 do
    let { I.flip_addr; flip_bit } = I.flip_word inj words in
    check_bool "addr in range" true (flip_addr >= 0 && flip_addr < 16);
    check_bool "bit in range" true (flip_bit >= 0 && flip_bit < 16);
    check_bool "stays a 16-bit word" true
      (words.(flip_addr) >= 0 && words.(flip_addr) <= 0xFFFF)
  done;
  Alcotest.check_raises "empty image rejected"
    (Invalid_argument "Injector.flip_word: empty image") (fun () ->
      ignore (I.flip_word inj [||]))

let test_injector_draw_clamps () =
  let inj = I.create ~seed:3 in
  for _ = 1 to 50 do
    check_bool "prob 0 never fires" false (I.draw inj ~prob:0.0);
    check_bool "prob 1 always fires" true (I.draw inj ~prob:1.0)
  done;
  (* The clamped draws consumed no randomness: the stream matches a
     fresh injector's. *)
  let fresh = I.create ~seed:3 in
  check_bool "degenerate draws are free" true
    (I.interval inj ~mean_us:100.0 = I.interval fresh ~mean_us:100.0)

(* --- Scrubber ---------------------------------------------------------------- *)

let scrubber () = get (S.create Scenario_audio.casebase Scenario_audio.request)

let test_scrubber_clean_at_start () =
  let s = scrubber () in
  check_bool "clean" true (S.clean s);
  check_int "no corrupted words" 0 (S.corrupted_words s);
  check_bool "checksum matches" true (S.checksum_matches s);
  check_int "no diagnostics" 0 (S.diagnose s)

let test_scrubber_detects_and_repairs () =
  let s = scrubber () in
  let inj = I.create ~seed:11 in
  let flip = I.flip_word inj (S.live s) in
  check_int "one corrupted word" 1 (S.corrupted_words s);
  check_bool "checksum mismatch" true (not (S.checksum_matches s));
  ignore flip;
  let rewritten = S.repair s in
  check_int "repair rewrote the word" 1 rewritten;
  check_bool "clean after repair" true (S.clean s);
  check_bool "checksum restored" true (S.checksum_matches s);
  (* A flip that cancels itself out is also invisible to the diff. *)
  let w = (S.live s).(0) in
  (S.live s).(0) <- w lxor 1;
  (S.live s).(0) <- w;
  check_bool "self-cancelling flip leaves it clean" true (S.clean s)

let test_scrubber_end_marker_corruption_diagnosed () =
  (* Smash a word to the reserved end marker: the semantic pass must
     object even though the checksum tier would already catch it. *)
  let s = scrubber () in
  (S.live s).(1) <- 0xFFFF;
  check_bool "diagnosed" true (S.diagnose s > 0);
  ignore (S.repair s);
  check_int "clean again" 0 (S.diagnose s)

(* --- Campaigns --------------------------------------------------------------- *)

let base_spec ?(duration_us = 60_000.0) ?(seed = 42) () =
  let base =
    { (Desim.Simulate.default_spec ()) with Desim.Simulate.duration_us; seed }
  in
  { (C.default_spec ()) with C.base }

let test_campaign_clean () =
  let r = C.run (base_spec ()) in
  check_bool "verdict clean" true (C.classify r = C.Clean);
  check_int "exit 0" 0 (C.exit_code r);
  check_bool "workload ran" true (r.C.requests > 0 && r.C.grants > 0);
  check_bool "no corruption counters" true
    (r.C.corruption.C.seu_injected = 0
    && r.C.corruption.C.undetected_retrievals = 0);
  check_bool "full availability" true
    (List.for_all (fun a -> a.C.av_availability = 1.0) r.C.availability)

let test_campaign_deterministic () =
  let spec =
    {
      (base_spec ~seed:7 ()) with
      C.seu_mean_interval_us = Some 2_000.0;
      scrub_period_us = Some 5_000.0;
      reconfig_fail_prob = 0.1;
      device_faults =
        [
          {
            C.df_device_id = "dsp0";
            df_at_us = 20_000.0;
            df_kind = `Transient 15_000.0;
          };
        ];
    }
  in
  let j1 = C.to_json (C.run spec) in
  let j2 = C.to_json (C.run spec) in
  check_bool "byte-identical reports" true (String.equal j1 j2);
  check_bool "trailing newline" true (j1.[String.length j1 - 1] = '\n')

let test_campaign_seu_with_scrubbing () =
  let spec =
    {
      (base_spec ()) with
      C.seu_mean_interval_us = Some 2_000.0;
      scrub_period_us = Some 5_000.0;
    }
  in
  let r = C.run spec in
  check_bool "upsets injected" true (r.C.corruption.C.seu_injected > 0);
  check_bool "scrubbing ran" true (r.C.corruption.C.scrub_runs > 0);
  check_bool "repairs happened" true (r.C.corruption.C.scrub_repairs > 0);
  check_bool "corrupted retrievals detected" true
    (r.C.corruption.C.detected_retrievals > 0);
  check_int "zero undetected retrievals" 0
    r.C.corruption.C.undetected_retrievals;
  check_bool "degraded but recovered" true
    (C.classify r = C.Degraded_recovered);
  check_int "exit 1" 1 (C.exit_code r)

let test_campaign_seu_without_scrubbing () =
  let spec = { (base_spec ()) with C.seu_mean_interval_us = Some 2_000.0 } in
  let r = C.run spec in
  check_bool "upsets injected" true (r.C.corruption.C.seu_injected > 0);
  check_int "no scrubbing" 0 r.C.corruption.C.scrub_runs;
  check_bool "silent corruption consumed" true
    (r.C.corruption.C.undetected_retrievals > 0);
  check_bool "unrecovered loss" true (C.classify r = C.Unrecovered_loss);
  check_int "exit 2" 2 (C.exit_code r)

let test_campaign_retry_recovers () =
  let spec = { (base_spec ()) with C.reconfig_fail_prob = 0.1 } in
  let r = C.run spec in
  check_bool "loads failed" true (r.C.recovery.C.failed_loads > 0);
  check_bool "retries happened" true (r.C.recovery.C.retries > 0);
  check_bool "loads recovered" true (r.C.recovery.C.recovered_loads > 0);
  check_int "nothing lost" 0 r.C.recovery.C.lost_allocations;
  check_bool "recovery time recorded" true
    (r.C.recovery.C.mean_recovery_us >= spec.C.retry.C.backoff_base_us);
  check_bool "degraded but recovered" true
    (C.classify r = C.Degraded_recovered)

let test_campaign_retries_exhausted () =
  let spec =
    {
      (base_spec ~duration_us:30_000.0 ()) with
      C.reconfig_fail_prob = 0.95;
      retry = { (C.default_retry) with C.max_retries = 0 };
    }
  in
  let r = C.run spec in
  check_bool "allocations lost" true (r.C.recovery.C.lost_allocations > 0);
  check_int "no retries allowed" 0 r.C.recovery.C.retries;
  check_bool "unrecovered loss" true (C.classify r = C.Unrecovered_loss);
  check_int "exit 2" 2 (C.exit_code r)

let test_campaign_permanent_device_failure () =
  let spec =
    {
      (base_spec ()) with
      C.device_faults =
        [ { C.df_device_id = "dsp0"; df_at_us = 20_000.0; df_kind = `Permanent } ];
    }
  in
  let r = C.run spec in
  check_bool "tasks relocated" true (r.C.degradation.C.relocations > 0);
  check_int "one delta per relocation" r.C.degradation.C.relocations
    (List.length r.C.degradation.C.similarity_deltas);
  check_bool "relocation degrades QoS" true
    (List.exists (fun d -> d > 0.0) r.C.degradation.C.similarity_deltas);
  check_int "no lost tasks" 0 r.C.degradation.C.lost_tasks;
  let dsp =
    List.find (fun a -> String.equal a.C.av_device_id "dsp0") r.C.availability
  in
  check_int "one failure" 1 dsp.C.av_failures;
  check_bool "down to the end" true
    (Float.abs (dsp.C.av_downtime_us -. 40_000.0) < 1e-6);
  check_bool "availability fraction" true
    (Float.abs (dsp.C.av_availability -. (1.0 /. 3.0)) < 1e-6);
  check_bool "degraded but recovered" true
    (C.classify r = C.Degraded_recovered)

let test_campaign_transient_device_failure () =
  let spec =
    {
      (base_spec ()) with
      C.device_faults =
        [
          {
            C.df_device_id = "dsp0";
            df_at_us = 20_000.0;
            df_kind = `Transient 15_000.0;
          };
        ];
    }
  in
  let r = C.run spec in
  let dsp =
    List.find (fun a -> String.equal a.C.av_device_id "dsp0") r.C.availability
  in
  check_bool "downtime equals the transient window" true
    (Float.abs (dsp.C.av_downtime_us -. 15_000.0) < 1e-6);
  check_bool "mttr equals downtime for one failure" true
    (Float.abs (dsp.C.av_mttr_us -. 15_000.0) < 1e-6);
  check_bool "restored event recorded" true
    (List.assoc "device-restored" r.C.event_counts = 1)

(* A fault-free campaign runs Simulate's allocation loop with idle fault
   hooks, so it must see the plain simulation's workload verbatim. *)
let test_campaign_lockstep_with_simulate () =
  List.iter
    (fun (seed, placement) ->
      let base =
        { (Desim.Simulate.default_spec ()) with Desim.Simulate.seed; placement }
      in
      let sim = Desim.Simulate.run base in
      let r = C.run { (C.default_spec ()) with C.base } in
      let t = sim.Desim.Simulate.totals in
      let what field =
        Printf.sprintf "seed %d, placement %s: %s" seed
          (Option.fold ~none:"off"
             ~some:Allocator.Placement.policy_to_string placement)
          field
      in
      check_int (what "requests") t.Desim.Simulate.requests r.C.requests;
      check_int (what "grants") t.Desim.Simulate.grants r.C.grants;
      check_int (what "bypass grants") t.Desim.Simulate.bypass_grants
        r.C.bypass_grants;
      check_int (what "refusals") t.Desim.Simulate.refusals r.C.refusals;
      check_int (what "events fired") sim.Desim.Simulate.events_fired
        r.C.events_fired)
    (List.concat_map
       (fun seed ->
         [ (seed, None); (seed, Some Allocator.Placement.First_fit) ])
       [ 1; 42; 2026 ])

(* MD5 of [to_json] over one spec per fault path, recorded when the
   campaign still had its own copy of the allocation loop: running on
   Simulate's loop must not move a byte of any report. *)
let test_campaign_digest_matrix () =
  let spec ?(duration_us = 60_000.0) ?engine ~seed edit =
    let base =
      {
        (Desim.Simulate.default_spec ()) with
        Desim.Simulate.duration_us;
        seed;
        retrieval_engine = Option.map (fun n -> get (Engines.of_name n)) engine;
      }
    in
    edit { (C.default_spec ()) with C.base }
  in
  let fail ?dur device at =
    {
      C.df_device_id = device;
      df_at_us = at;
      df_kind =
        (match dur with None -> `Permanent | Some d -> `Transient d);
    }
  in
  let jitter j s =
    { s with C.retry = { s.C.retry with C.backoff_jitter = j } }
  in
  List.iter
    (fun (name, spec, digest) ->
      Alcotest.(check string)
        name digest
        (Digest.to_hex (Digest.string (C.to_json (C.run spec)))))
    [
      ( "flash and bitstream errors, deadline misses",
        spec ~seed:3 (fun s ->
            {
              s with
              C.flash_error_prob = 0.2;
              reconfig_fail_prob = 0.2;
              load_deadline_us = Some 50.0;
            }),
        "eac0f18c72180759c2b1f5ce108c7d21" );
      ( "retries exhausted",
        spec ~duration_us:30_000.0 ~seed:5 (fun s ->
            {
              s with
              C.reconfig_fail_prob = 0.95;
              retry = { s.C.retry with C.max_retries = 0 };
            }),
        "2bf44d0594332a3defb83a7534e410e0" );
      ( "permanent and transient device failures",
        spec ~seed:11 (fun s ->
            {
              s with
              C.device_faults =
                [ fail "dsp0" 20_000.0; fail ~dur:15_000.0 "fpga0" 10_000.0 ];
            }),
        "556066b983b329477989a62037c72a4c" );
      ( "seu with scrubbing",
        spec ~seed:42 (fun s ->
            {
              s with
              C.seu_mean_interval_us = Some 2_000.0;
              scrub_period_us = Some 5_000.0;
            }),
        "9b3510c716f81904d07adfb98db22519" );
      ( "seu without scrubbing",
        spec ~seed:42 (fun s ->
            { s with C.seu_mean_interval_us = Some 2_000.0 }),
        "1e967c2d3807c2c5c32a79d493f1ad4d" );
      ( "jitter 0",
        spec ~seed:2026 (fun s ->
            jitter 0.0 { s with C.reconfig_fail_prob = 0.3 }),
        "8461c6994883833d6c08a73a962b9d23" );
      ( "jitter 0.5",
        spec ~seed:2026 (fun s ->
            jitter 0.5 { s with C.reconfig_fail_prob = 0.3 }),
        "200b02ffa18f2017cf57f523215ee2d5" );
      ( "native engine",
        spec ~seed:9 ~engine:"native" (fun s ->
            {
              s with
              C.reconfig_fail_prob = 0.1;
              seu_mean_interval_us = Some 3_000.0;
              scrub_period_us = Some 4_000.0;
            }),
        "561d11549963511f82cd1565236b8d60" );
      ( "lost tasks under retried load failures",
        spec ~duration_us:100_000.0 ~seed:1 (fun s ->
            {
              s with
              C.device_faults =
                [
                  fail "dsp0" 5_000.0;
                  fail "fpga0" 6_000.0;
                  fail ~dur:2_000.0 "gpp0" 7_000.0;
                ];
              reconfig_fail_prob = 0.2;
              flash_error_prob = 0.1;
              retry =
                {
                  s.C.retry with
                  C.max_retries = 5;
                  backoff_base_us = 100.0;
                  backoff_factor = 3.0;
                  backoff_cap_us = 2_000.0;
                };
            }),
        "06c2c9f4eca5a07d50fca5c68c5af225" );
    ]

(* Every malformed field is a diagnostic, never a hang or a crash deep
   inside the run. *)
let test_campaign_rejects_malformed_specs () =
  let retry edit s = { s with C.retry = edit s.C.retry } in
  let fail df_at_us df_kind s =
    {
      s with
      C.device_faults = [ { C.df_device_id = "dsp0"; df_at_us; df_kind } ];
    }
  in
  let duration_us d s =
    { s with C.base = { s.C.base with Desim.Simulate.duration_us = d } }
  in
  List.iter
    (fun (field, edit) ->
      let spec = edit (base_spec ()) in
      match C.validate spec with
      | Ok () -> Alcotest.failf "malformed %s accepted" field
      | Error msg ->
          check_bool (field ^ " named") true
            (String.starts_with ~prefix:("faults: " ^ field) msg);
          Alcotest.check_raises (field ^ ": run raises") (Invalid_argument msg)
            (fun () -> ignore (C.run spec)))
    [
      ("duration_us", duration_us infinity);
      ( "seu_mean_interval_us",
        fun s -> { s with C.seu_mean_interval_us = Some 0.0 } );
      ("scrub_period_us", fun s -> { s with C.scrub_period_us = Some 0.0 });
      ("reconfig_fail_prob", fun s -> { s with C.reconfig_fail_prob = 1.5 });
      ("flash_error_prob", fun s -> { s with C.flash_error_prob = Float.nan });
      ("load_deadline_us", fun s -> { s with C.load_deadline_us = Some (-1.) });
      ("max_retries", retry (fun r -> { r with C.max_retries = -1 }));
      ("backoff_base_us", retry (fun r -> { r with C.backoff_base_us = nan }));
      ("backoff_factor", retry (fun r -> { r with C.backoff_factor = 0.5 }));
      ( "backoff_cap_us",
        retry (fun r -> { r with C.backoff_cap_us = infinity }) );
      ("backoff_jitter", retry (fun r -> { r with C.backoff_jitter = 1.0 }));
      ("device fault time", fail Float.nan `Permanent);
      ("device fault duration", fail 100.0 (`Transient (-50.0)));
    ];
  check_bool "the default spec passes" true (C.validate (base_spec ()) = Ok ())

let test_verdict_strings () =
  check_bool "clean" true (C.verdict_to_string C.Clean = "clean");
  check_bool "degraded" true
    (C.verdict_to_string C.Degraded_recovered = "degraded-recovered");
  check_bool "loss" true
    (C.verdict_to_string C.Unrecovered_loss = "unrecovered-loss")

let () =
  Alcotest.run "faults"
    [
      ( "injector",
        [
          Alcotest.test_case "deterministic" `Quick test_injector_deterministic;
          Alcotest.test_case "flips in range" `Quick test_injector_flip_in_range;
          Alcotest.test_case "draw clamps" `Quick test_injector_draw_clamps;
        ] );
      ( "scrubber",
        [
          Alcotest.test_case "clean at start" `Quick test_scrubber_clean_at_start;
          Alcotest.test_case "detects and repairs" `Quick
            test_scrubber_detects_and_repairs;
          Alcotest.test_case "end-marker corruption diagnosed" `Quick
            test_scrubber_end_marker_corruption_diagnosed;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "clean" `Quick test_campaign_clean;
          Alcotest.test_case "deterministic" `Quick test_campaign_deterministic;
          Alcotest.test_case "seu with scrubbing" `Quick
            test_campaign_seu_with_scrubbing;
          Alcotest.test_case "seu without scrubbing" `Quick
            test_campaign_seu_without_scrubbing;
          Alcotest.test_case "retry recovers" `Quick test_campaign_retry_recovers;
          Alcotest.test_case "retries exhausted" `Quick
            test_campaign_retries_exhausted;
          Alcotest.test_case "permanent device failure" `Quick
            test_campaign_permanent_device_failure;
          Alcotest.test_case "transient device failure" `Quick
            test_campaign_transient_device_failure;
          Alcotest.test_case "verdict strings" `Quick test_verdict_strings;
          Alcotest.test_case "lockstep with simulate" `Quick
            test_campaign_lockstep_with_simulate;
          Alcotest.test_case "digest matrix" `Quick test_campaign_digest_matrix;
          Alcotest.test_case "rejects malformed specs" `Quick
            test_campaign_rejects_malformed_specs;
        ] );
    ]
