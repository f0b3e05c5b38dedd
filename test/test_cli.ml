(* Integration tests driving the real qosalloc binary: every subcommand
   is exercised end to end, including the export -> verify golden flow
   and the engine differential test. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let binary = "../bin/qosalloc.exe"

let tmp_dir = Filename.concat (Filename.get_temp_dir_name ()) "qosalloc-cli-test"

let run_cli ?timeout_s args =
  (* Capture combined output; return (exit code, output).  With
     [timeout_s] a run that does not end is killed and exits 124. *)
  let out_file = Filename.temp_file "qosalloc" ".out" in
  let command =
    Printf.sprintf "%s%s %s > %s 2>&1"
      (Option.fold ~none:"" ~some:(Printf.sprintf "timeout %d ") timeout_s)
      (Filename.quote binary) args (Filename.quote out_file)
  in
  let code = Sys.command command in
  let output = In_channel.with_open_text out_file In_channel.input_all in
  Sys.remove out_file;
  (code, output)

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec at i = i + m <= n && (String.sub haystack i m = needle || at (i + 1)) in
  at 0

let test_retrieve () =
  let code, out = run_cli "retrieve -n 3" in
  check_int "exit code" 0 code;
  check_bool "dsp first" true (contains out "impl 2 on dsp: S = 0.9640");
  check_bool "three rows" true (contains out "3. impl 3 on gpp");
  let code, out = run_cli "retrieve -e rtl" in
  check_int "rtl exit code" 0 code;
  check_bool "rtl cycle stats" true (contains out "cycles=")

let test_retrieve_all_engines_agree () =
  List.iter
    (fun engine ->
      let code, out = run_cli ("retrieve -e " ^ engine) in
      check_int (engine ^ " exit") 0 code;
      (* float/fixed/rtl print "impl 2 ...", the soft core "impl=2". *)
      check_bool
        (engine ^ " picks impl 2")
        true
        (contains out "impl 2" || contains out "impl=2"))
    [ "float"; "fixed"; "rtl"; "sw" ]

let test_layout_and_resources () =
  let code, out = run_cli "layout" in
  check_int "layout exit" 0 code;
  check_bool "accounting printed" true (contains out "request=11w");
  let code, out = run_cli "resources" in
  check_int "resources exit" 0 code;
  check_bool "table 2 numbers" true (contains out "slices=441")

let test_trace () =
  let code, out = run_cli "trace" in
  check_int "trace exit" 0 code;
  check_bool "winner traced" true (contains out "new best: impl 2")

(* The cycle trace, the VCD waveform and the profile, pinned byte for
   byte over the paper request and one that skips a type and misses
   attributes (attribute 9 is in no schema).  The digests were recorded
   before the machine formatted trace lines only when tracing.  The
   VCD path in stdout is replaced by FILE. *)
let test_trace_outputs_pinned () =
  let odd = Filename.concat tmp_dir "odd.req" in
  Out_channel.with_open_text odd (fun oc ->
      Out_channel.output_string oc
        "request 2\n  want 2 1 2\n  want 3 1 1\n  want 4 30 1\n  want 9 5 1\n");
  let vcd = Filename.concat tmp_dir "pinned.vcd" in
  let md5 s = Digest.to_hex (Digest.string s) in
  let rec replace_all s sub by =
    let n = String.length s and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i ->
        String.sub s 0 i ^ by
        ^ replace_all (String.sub s (i + m) (n - i - m)) sub by
  in
  List.iter
    (fun (args, out_digest, vcd_digest) ->
      if Sys.file_exists vcd then Sys.remove vcd;
      let args = replace_all (replace_all args "ODD" odd) "FILE" vcd in
      let code, out = run_cli args in
      check_int (args ^ " exit") 0 code;
      Alcotest.(check string)
        (args ^ " stdout") out_digest
        (md5 (replace_all out vcd "FILE"));
      Option.iter
        (fun want ->
          Alcotest.(check string)
            (args ^ " vcd") want
            (Digest.to_hex (Digest.file vcd)))
        vcd_digest)
    [
      ("trace", "bbffba02950153a07043edd9b0fde2b2", None);
      ( "trace --vcd FILE",
        "3672b5a99cd899f4dd26a28f12e0b96e",
        Some "522e956c021d1fcba77c3d7e7e54ecc9" );
      ( "trace --compacted --divider --restart-scan --vcd FILE",
        "8ddd7f01ae77d0e37d3f338483467a28",
        Some "79a9f66b438931cde19dc91a8d78024e" );
      ("trace -r ODD", "6a9708bcabc887af22807ee62b31f102", None);
      ("trace -r ODD --restart-scan", "9ab631e057b86cdd712d02a5ac55b246", None);
      ( "trace -r ODD --compacted --divider --vcd FILE",
        "180a8658a3517fa63828449fb2a987b7",
        Some "fc2c34db9b5a95b151febdad962cc5ee" );
      ("profile", "b4e369c8762fd922564c1f4f1441a9d6", None);
      ("profile --format json", "2304899c8a316e4cdaf35a2ead00fe59", None);
      ("profile --compacted --divider", "2ca2cbb2e6cb294ce54cc2588b172a19", None);
      ("profile -r ODD --format json", "a0a1b24bd1fb444a43304f8a74f0274b", None);
    ]

let test_export_verify_roundtrip () =
  let dir = Filename.concat tmp_dir "export" in
  let code, _ = run_cli (Printf.sprintf "export -o %s -f hex -f coe" dir) in
  check_int "export exit" 0 code;
  check_bool "vhdl written" true
    (Sys.file_exists (Filename.concat dir "qos_retrieval_unit.vhd"));
  check_bool "manifest written" true
    (Sys.file_exists (Filename.concat dir "qos_manifest.txt"));
  let code, out = run_cli (Printf.sprintf "verify -i %s" dir) in
  check_int "verify exit" 0 code;
  check_bool "verify passes" true (contains out "VERIFY: PASS")

let test_verify_detects_corruption () =
  let dir = Filename.concat tmp_dir "corrupt" in
  let code, _ = run_cli (Printf.sprintf "export -o %s" dir) in
  check_int "export exit" 0 code;
  (* Flip one data word in the request image (the bitwidth value). *)
  let path = Filename.concat dir "qos_req_mem.hex" in
  let text = In_channel.with_open_text path In_channel.input_all in
  let corrupted =
    match String.split_on_char '\n' text with
    | type_word :: aid :: _value :: rest ->
        String.concat "\n" (type_word :: aid :: "0008" :: rest)
    | _ -> Alcotest.fail "unexpected hex layout"
  in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc corrupted);
  let code, out = run_cli (Printf.sprintf "verify -i %s" dir) in
  check_bool "verify fails on corruption" true
    (code <> 0 && contains out "VERIFY: FAIL")

let fixture name = Filename.concat "../examples/data" name

let test_lint_clean_exit0 () =
  let code, out =
    run_cli
      (Printf.sprintf "lint -c %s -r %s" (fixture "audio.cb")
         (fixture "paper.req"))
  in
  check_int "clean fixtures exit 0" 0 code;
  check_bool "totals line" true (contains out "lint: 0 error(s), 0 warning(s)");
  (* The elaborated netlist IR rides along: the six structural passes
     report their coverage as an info diagnostic and stay clean. *)
  check_bool "netlist passes ran" true (contains out "info[netlist]");
  check_bool "all six IR passes" true (contains out "6 IR passes");
  (* The built-in scenario is the same data and is equally clean. *)
  let code, out = run_cli "lint" in
  check_int "built-in scenario exit 0" 0 code;
  check_bool "built-in scenario covers the netlist" true
    (contains out "info[netlist]")

let test_lint_warning_exit1 () =
  (* Constrain an attribute the schema does not describe: a
     cross-structure warning, not an error. *)
  let req = Filename.concat tmp_dir "unknown_attr.req" in
  Out_channel.with_open_text req (fun oc ->
      Out_channel.output_string oc "request 1\n  want 1 16 1\n  want 9 5 1\n");
  let code, out = run_cli (Printf.sprintf "lint -r %s" req) in
  check_int "warning exit 1" 1 code;
  check_bool "warning printed" true (contains out "warning[");
  check_bool "no errors" true (contains out "0 error(s)")

let test_lint_error_exit2 () =
  let dir = Filename.concat tmp_dir "lint-raw" in
  let code, _ = run_cli (Printf.sprintf "export -o %s -f hex" dir) in
  check_int "export exit" 0 code;
  let cb_hex = Filename.concat dir "qos_cb_mem.hex" in
  let req_hex = Filename.concat dir "qos_req_mem.hex" in
  (* Pristine raw images lint clean... *)
  let code, _ =
    run_cli
      (Printf.sprintf "lint --cb-hex %s --req-hex %s --supp-base 58" cb_hex
         req_hex)
  in
  check_int "raw clean exit 0" 0 code;
  (* ...then corrupt the first tree pointer (word 1). *)
  let text = In_channel.with_open_text cb_hex In_channel.input_all in
  let corrupted =
    match String.split_on_char '\n' text with
    | w0 :: _w1 :: rest -> String.concat "\n" (w0 :: "ffff" :: rest)
    | _ -> Alcotest.fail "unexpected hex layout"
  in
  Out_channel.with_open_text cb_hex (fun oc ->
      Out_channel.output_string oc corrupted);
  let code, out =
    run_cli
      (Printf.sprintf "lint --cb-hex %s --req-hex %s --supp-base 58" cb_hex
         req_hex)
  in
  check_int "corrupted raw exit 2" 2 code;
  check_bool "error names the word" true (contains out "cb_mem[0x0001]")

let test_lint_unencodable_exit2 () =
  (* Attribute id 0xffff passes the schema but collides with the image
     end marker, so the scenario cannot be encoded.  That used to abort
     the CLI before any diagnostic was printed; it must now surface as
     an ordinary lint error with exit code 2. *)
  let req = Filename.concat tmp_dir "unencodable.req" in
  Out_channel.with_open_text req (fun oc ->
      Out_channel.output_string oc "request 1\n  want 65535 16 1\n");
  let code, out = run_cli (Printf.sprintf "lint -r %s" req) in
  check_int "unencodable scenario exit 2" 2 code;
  check_bool "encode failure reported as diagnostic" true
    (contains out "error[image]");
  let code, out = run_cli (Printf.sprintf "lint --format=json -r %s" req) in
  check_int "json mode same exit code" 2 code;
  check_bool "json carries the error" true
    (contains out "\"severity\":\"error\"")

let test_lint_json_stable () =
  let args =
    Printf.sprintf "lint --format=json -c %s -r %s" (fixture "audio.cb")
      (fixture "paper.req")
  in
  let code1, out1 = run_cli args in
  let code2, out2 = run_cli args in
  check_int "json exit" 0 code1;
  check_int "json exit again" 0 code2;
  check_bool "deterministic output" true (out1 = out2);
  check_bool "diagnostics array" true (contains out1 "\"diagnostics\"");
  check_bool "totals" true
    (contains out1 "\"errors\":0" && contains out1 "\"warnings\":0");
  check_bool "one trailing newline" true
    (String.length out1 > 1
    && out1.[String.length out1 - 1] = '\n'
    && out1.[String.length out1 - 2] <> '\n')

let test_difftest () =
  let code, out = run_cli "difftest -n 50 --seed 7" in
  check_int "difftest exit" 0 code;
  check_bool "all agree" true (contains out "50/50 scenarios agree")

let test_simulate_and_analyze () =
  let csv = Filename.concat tmp_dir "trace.csv" in
  let code, out =
    run_cli (Printf.sprintf "simulate --duration-us 50000 --trace-csv %s" csv)
  in
  check_int "simulate exit" 0 code;
  check_bool "report printed" true (contains out "TOTAL");
  check_bool "utilization printed" true (contains out "utilization:");
  let code, out = run_cli (Printf.sprintf "analyze -i %s" csv) in
  check_int "analyze exit" 0 code;
  check_bool "per-app breakdown" true (contains out "ecu")

let test_faults_clean_exit0 () =
  let code, out = run_cli "faults --duration-us 30000" in
  check_int "clean campaign exit 0" 0 code;
  check_bool "verdict printed" true (contains out "verdict=clean");
  check_bool "no fault activity" true (contains out "relocations=0")

let test_faults_degraded_exit1 () =
  (* A permanent dsp0 failure: tasks are relocated to the next-best
     variant, QoS degrades, nothing is lost. *)
  let code, out = run_cli "faults --duration-us 60000 --fail dsp0@20000" in
  check_int "degraded campaign exit 1" 1 code;
  check_bool "verdict" true (contains out "verdict=degraded-recovered");
  check_bool "relocations with similarity deltas" true
    (contains out "relocations=2" && contains out "delta mean=");
  check_bool "availability reported" true
    (contains out "availability: dsp0 failures=1")

let test_faults_unrecovered_exit2 () =
  (* SEUs without scrubbing: retrievals silently consume corruption. *)
  let code, out = run_cli "faults --duration-us 60000 --seu-mean-us 2000" in
  check_int "unrecovered campaign exit 2" 2 code;
  check_bool "verdict" true (contains out "verdict=unrecovered-loss");
  check_bool "silent corruption counted" true (contains out "undetected=29");
  (* The same upsets with scrubbing on are all caught. *)
  let code, out =
    run_cli
      "faults --duration-us 60000 --seu-mean-us 2000 --scrub-period-us 5000"
  in
  check_int "scrubbed campaign exit 1" 1 code;
  check_bool "nothing undetected" true (contains out "undetected=0")

let test_faults_json_deterministic () =
  let args =
    "faults --duration-us 60000 --seed 7 --seu-mean-us 2000 \
     --scrub-period-us 5000 --reconfig-fail-prob 0.1 --fail dsp0@20000+15000 \
     --format=json"
  in
  let code1, out1 = run_cli args in
  let code2, out2 = run_cli args in
  check_int "exit stable" code1 code2;
  check_int "degraded-recovered" 1 code1;
  check_bool "byte-identical json" true (String.equal out1 out2);
  check_bool "report sections present" true
    (contains out1 "\"corruption\""
    && contains out1 "\"recovery\""
    && contains out1 "\"degradation\""
    && contains out1 "\"availability\"");
  check_bool "one trailing newline" true
    (String.length out1 > 1
    && out1.[String.length out1 - 1] = '\n'
    && out1.[String.length out1 - 2] <> '\n')

let test_faults_rejects_unknown_device () =
  let code, out = run_cli "faults --fail nope@1000" in
  check_bool "nonzero exit" true (code <> 0);
  check_bool "names the device" true (contains out "nope")

let test_demo_feeds_retrieve () =
  let cb = Filename.concat tmp_dir "demo.cb" in
  let code, out = run_cli "demo" in
  check_int "demo exit" 0 code;
  (* Split the demo output into case base and request files. *)
  let idx =
    let rec find i =
      if i + 8 > String.length out then Alcotest.fail "no request in demo"
      else if String.sub out i 8 = "request " then i
      else find (i + 1)
    in
    find 0
  in
  Out_channel.with_open_text cb (fun oc ->
      Out_channel.output_string oc (String.sub out 0 idx));
  let req = Filename.concat tmp_dir "demo.req" in
  Out_channel.with_open_text req (fun oc ->
      Out_channel.output_string oc
        (String.sub out idx (String.length out - idx)));
  let code, out = run_cli (Printf.sprintf "retrieve -c %s -r %s" cb req) in
  check_int "retrieve on demo files" 0 code;
  check_bool "same winner" true (contains out "impl 2 on dsp")

let read_file path = In_channel.with_open_text path In_channel.input_all

let test_profile_exit_codes () =
  let code, out = run_cli "profile" in
  check_int "profile exit 0" 0 code;
  check_bool "breakdown printed" true (contains out "total-cycles=131");
  check_bool "phase sum checked" true (contains out "consistent=true");
  check_bool "linearity verdict" true (contains out "linear=true");
  let code, out = run_cli "profile --max-cycles 10" in
  check_int "budget violation exit 1" 1 code;
  check_bool "violation named" true (contains out "cycle budget exceeded");
  let code, _ = run_cli "profile --max-cycles 131" in
  check_int "budget met exit 0" 0 code;
  let code, out = run_cli "profile --format=json" in
  check_int "json exit 0" 0 code;
  check_bool "json envelope" true
    (contains out "\"total_cycles\":131" && contains out "\"linearity\"");
  (* Config toggles reach the machine: restart scanning costs cycles. *)
  let code, out = run_cli "profile --restart-scan" in
  check_int "restart-scan exit 0" 0 code;
  check_bool "restart scan is slower" true (contains out "total-cycles=143")

let test_observability_flags () =
  let prom = Filename.concat tmp_dir "sim.prom" in
  let trace = Filename.concat tmp_dir "sim_trace.json" in
  let args =
    Printf.sprintf
      "simulate --duration-us 20000 --seed 11 --metrics %s --trace-out %s" prom
      trace
  in
  let code, out = run_cli args in
  check_int "instrumented simulate exit 0" 0 code;
  check_bool "report still printed" true (contains out "TOTAL");
  let prom1 = read_file prom and trace1 = read_file trace in
  check_bool "prometheus families present" true
    (contains prom1 "# TYPE qosalloc_alloc_events_total counter"
    && contains prom1 "qosalloc_sim_queue_depth"
    && contains prom1 "qosalloc_setup_time_us_bucket");
  check_bool "chrome trace envelope" true
    (contains trace1 "{\"traceEvents\":["
    && contains trace1 "\"ph\":\"B\""
    && contains trace1 "\"cat\":\"qosalloc\"");
  (* Same seed and flags: byte-identical exports. *)
  let code, _ = run_cli args in
  check_int "second run exit 0" 0 code;
  check_bool "metrics byte-identical" true (String.equal prom1 (read_file prom));
  check_bool "trace byte-identical" true (String.equal trace1 (read_file trace));
  (* The .json metrics flavour switches the export format. *)
  let mjson = Filename.concat tmp_dir "sim_metrics.json" in
  let code, _ =
    run_cli
      (Printf.sprintf "simulate --duration-us 20000 --seed 11 --metrics %s"
         mjson)
  in
  check_int "json metrics exit 0" 0 code;
  check_bool "json metrics envelope" true
    (contains (read_file mjson) "{\"metrics\":[");
  (* Instrumentation must not perturb the simulation itself. *)
  let plain_args = "simulate --duration-us 20000 --seed 11" in
  let _, plain_out = run_cli plain_args in
  check_bool "same report with and without instrumentation" true
    (String.equal out plain_out)

let test_parallel_flags () =
  (* The sharded front-end's result report is byte-identical across
     --jobs settings; only the perf section (shards, makespan) moves. *)
  let out_for jobs =
    let path = Filename.concat tmp_dir (Printf.sprintf "par_%d.txt" jobs) in
    let code, out =
      run_cli
        (Printf.sprintf
           "simulate --duration-us 2000 --seed 42 --jobs %d --par-out %s" jobs
           path)
    in
    check_int "simulate --jobs exit 0" 0 code;
    check_bool "PAR section printed" true
      (contains out "=== PAR (sharded retrieval front-end) ===");
    let digest =
      List.find
        (fun l -> contains l "PAR results digest:")
        (String.split_on_char '\n' out)
    in
    (digest, read_file path)
  in
  let d1, r1 = out_for 1 in
  let d2, r2 = out_for 2 in
  let d4, r4 = out_for 4 in
  check_bool "digest invariant 1=2" true (String.equal d1 d2);
  check_bool "digest invariant 2=4" true (String.equal d2 d4);
  check_bool "results byte-identical 1=4" true (String.equal r1 r4);
  check_bool "results byte-identical 1=2" true (String.equal r1 r2);
  check_bool "result lines carry outcomes" true
    (contains r1 "via=retrieval" && contains r1 "app=");
  (* --batch alone also triggers the section; a bad jobs count dies. *)
  let code, out = run_cli "simulate --duration-us 2000 --batch 4" in
  check_int "batch-only exit 0" 0 code;
  check_bool "batch-only prints PAR" true (contains out "=== PAR");
  let code, _ = run_cli "simulate --duration-us 2000 --jobs 0" in
  check_int "jobs 0 rejected" 1 code

(* A spec the run rejects is an input error: a one-line diagnostic
   and exit 2, never an uncaught exception (exit 125) or a run that
   never ends (killed by the timeout, exit 124). *)
let check_rejected command args =
  let line = command ^ " " ^ args in
  let code, out = run_cli ~timeout_s:20 line in
  check_int (line ^ ": exit 2") 2 code;
  check_bool (line ^ ": diagnostic") true
    (contains out ("qosalloc: " ^ command ^ ":"));
  check_bool (line ^ ": no uncaught exception") false
    (contains out "uncaught exception")

let test_serve_malformed_input () =
  List.iter (check_rejected "serve")
    [
      "--load-scale 0 --stream --requests 100";
      "--load-scale nan --stream --requests 100";
      "--duration-us inf --stream --requests 100";
      "--duration-us nan";
      "--kill-frac 0.34 --bounce-mean-us 20000 --backoff-jitter 2";
      "--kill-frac 0.34 --bounce-mean-us 20000 --backoff-jitter=-1";
      "--kill-frac 0.34 --bounce-mean-us 20000 --backoff-us 0";
      "--kill-frac 0.34 --bounce-mean-us 20000 --backoff-factor 0.5";
      "--kill-frac 0.34 --bounce-mean-us 20000 --backoff-cap-us nan";
      "--bounce-mean-us=0";
      "--slo=2:500";
      "--bounce-down-us=nan,5";
    ]

(* Every serve export of a chaos run with both SLO trackers, pinned byte
   for byte: the exporters write straight into one buffer, and these
   digests were recorded from the per-event Printf formatters they
   replaced.  The run misses its latency objective, hence exit 2. *)
let test_serve_exports_pinned () =
  let path name = Filename.concat tmp_dir ("pinned_" ^ name) in
  let code, _ =
    run_cli
      (Printf.sprintf
         "serve --duration-us 100000 --seed 3 --kill-frac 0.34 \
          --bounce-mean-us 20000 --slo 0.99:500 --out %s --events-out %s \
          --trace-out %s --metrics %s --slo-out %s"
         (path "out.txt") (path "events.ndjson") (path "trace.json")
         (path "metrics.prom") (path "slo.json"))
  in
  check_int "latency objective missed" 2 code;
  List.iter
    (fun (name, digest) ->
      Alcotest.(check string)
        (name ^ " digest") digest
        (Digest.to_hex (Digest.file (path name))))
    [
      ("out.txt", "cf208a97fc434a79baadaa3a3e376e51");
      ("events.ndjson", "bde116a339712b54f7009911e4979968");
      ("trace.json", "e33eff9cca743b4c1df5d66ec55d36c5");
      ("metrics.prom", "7ea2c81aa85634a48caede629e0cfd67");
      ("slo.json", "4d72493a3ce5b72a94efb0a758e84016");
    ]

(* The same contract for the single-system commands.  Without it, an
   infinite horizon or a zero scrub period never finishes, a zero SEU
   mean or a negative outage crashes (exit 125), and a NaN or negative
   duration, a NaN fault time or a probability above 1 runs anyway. *)
let test_faults_simulate_malformed_input () =
  List.iter (check_rejected "faults")
    [
      "--scrub-period-us 0";
      "--duration-us inf";
      "--duration-us nan";
      "--duration-us=-100";
      "--seu-mean-us 0";
      "--seu-mean-us=-5";
      "--backoff-jitter 2";
      "--fail dsp0@100+-50";
      "--fail dsp0@nan";
      "--backoff-us nan --reconfig-fail-prob 0.5";
      "--reconfig-fail-prob 1.5";
    ];
  List.iter (check_rejected "simulate")
    [ "--duration-us inf"; "--duration-us nan"; "--duration-us=-100" ]

let test_faults_observability () =
  let prom = Filename.concat tmp_dir "faults.prom" in
  let code, _ =
    run_cli
      (Printf.sprintf
         "faults --duration-us 60000 --fail dsp0@20000+15000 --metrics %s" prom)
  in
  check_int "degraded campaign exit preserved" 1 code;
  let text = read_file prom in
  check_bool "MTTR histogram exported" true
    (contains text "# TYPE qosalloc_device_mttr_us histogram");
  check_bool "relocation counter exported" true
    (contains text "qosalloc_alloc_events_total{event=\"relocated\"}");
  (* A campaign is a Simulate run, so it exports Simulate's series too. *)
  check_bool "simulate queue gauge exported" true
    (contains text "# TYPE qosalloc_sim_queue_depth gauge");
  (* The flight log of the golden campaign, recorded before campaigns
     ran on Simulate's loop, is pinned byte for byte. *)
  let events = Filename.concat tmp_dir "faults_events.ndjson" in
  let code, _ =
    run_cli
      (Printf.sprintf
         "faults --duration-us 60000 --seed 7 --seu-mean-us 2000 \
          --scrub-period-us 5000 --reconfig-fail-prob 0.1 \
          --fail dsp0@20000+15000 --events-out %s"
         events)
  in
  check_int "golden campaign exit" 1 code;
  Alcotest.(check string)
    "flight log digest" "2d2437faa1683dc76a03c19a67b323cc"
    (Digest.to_hex (Digest.file events))

let test_bad_input_fails_cleanly () =
  let bad = Filename.concat tmp_dir "bad.cb" in
  Out_channel.with_open_text bad (fun oc ->
      Out_channel.output_string oc "bogus nonsense\n");
  let code, out = run_cli (Printf.sprintf "retrieve -c %s" bad) in
  check_bool "nonzero exit" true (code <> 0);
  check_bool "names the file and line" true (contains out "bad.cb")

let () =
  (try Sys.mkdir tmp_dir 0o755 with Sys_error _ -> ());
  Alcotest.run "cli"
    [
      ( "subcommands",
        [
          Alcotest.test_case "retrieve" `Quick test_retrieve;
          Alcotest.test_case "all engines agree" `Quick
            test_retrieve_all_engines_agree;
          Alcotest.test_case "layout and resources" `Quick
            test_layout_and_resources;
          Alcotest.test_case "trace" `Quick test_trace;
          Alcotest.test_case "trace outputs pinned" `Quick
            test_trace_outputs_pinned;
          Alcotest.test_case "simulate and analyze" `Quick
            test_simulate_and_analyze;
          Alcotest.test_case "faults clean exit 0" `Quick
            test_faults_clean_exit0;
          Alcotest.test_case "faults degraded exit 1" `Quick
            test_faults_degraded_exit1;
          Alcotest.test_case "faults unrecovered exit 2" `Quick
            test_faults_unrecovered_exit2;
          Alcotest.test_case "serve malformed input exit 2" `Quick
            test_serve_malformed_input;
          Alcotest.test_case "serve exports pinned" `Quick
            test_serve_exports_pinned;
          Alcotest.test_case "faults/simulate malformed input exit 2" `Quick
            test_faults_simulate_malformed_input;
          Alcotest.test_case "faults stable json" `Quick
            test_faults_json_deterministic;
          Alcotest.test_case "faults unknown device" `Quick
            test_faults_rejects_unknown_device;
          Alcotest.test_case "demo feeds retrieve" `Quick
            test_demo_feeds_retrieve;
          Alcotest.test_case "bad input" `Quick test_bad_input_fails_cleanly;
        ] );
      ( "observability",
        [
          Alcotest.test_case "profile exit codes" `Quick
            test_profile_exit_codes;
          Alcotest.test_case "metrics and trace flags" `Quick
            test_observability_flags;
          Alcotest.test_case "faults metrics" `Quick test_faults_observability;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs determinism" `Quick test_parallel_flags;
        ] );
      ( "lint",
        [
          Alcotest.test_case "clean fixtures exit 0" `Quick
            test_lint_clean_exit0;
          Alcotest.test_case "warning exit 1" `Quick test_lint_warning_exit1;
          Alcotest.test_case "error exit 2" `Quick test_lint_error_exit2;
          Alcotest.test_case "unencodable exit 2" `Quick
            test_lint_unencodable_exit2;
          Alcotest.test_case "stable json" `Quick test_lint_json_stable;
        ] );
      ( "golden flow",
        [
          Alcotest.test_case "export/verify round-trip" `Quick
            test_export_verify_roundtrip;
          Alcotest.test_case "verify detects corruption" `Quick
            test_verify_detects_corruption;
          Alcotest.test_case "difftest" `Quick test_difftest;
        ] );
    ]
