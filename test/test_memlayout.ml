(* Tests for the Fig. 4/5 RAM image layouts and the Table 3 accounting. *)

open Qos_core

let get = function Ok x -> x | Error e -> Alcotest.fail e
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cb = Scenario_audio.casebase
let request = Scenario_audio.request

(* --- Ram ----------------------------------------------------------------- *)

let test_ram () =
  let ram = Memlayout.Ram.of_array [| 1; 2; 3 |] in
  check_int "size" 3 (Memlayout.Ram.size ram);
  check_int "read" 2 (Memlayout.Ram.read ram 1);
  check_int "access counted" 1 (Memlayout.Ram.access_count ram);
  check_int "peek" 3 (Memlayout.Ram.peek ram 2);
  check_int "peek not counted" 1 (Memlayout.Ram.access_count ram);
  Memlayout.Ram.reset_access_count ram;
  check_int "reset" 0 (Memlayout.Ram.access_count ram);
  Alcotest.check_raises "oob read"
    (Invalid_argument "Ram.read: address 7 out of bounds") (fun () ->
      ignore (Memlayout.Ram.read ram 7));
  Alcotest.check_raises "negative word"
    (Invalid_argument "Ram.of_array: word -1 out of range") (fun () ->
      ignore (Memlayout.Ram.of_array [| -1 |]))

(* --- Request image ------------------------------------------------------- *)

let test_request_roundtrip () =
  let words = get (Memlayout.encode_request request) in
  (* type + 3 attrs x 3 words + end = 11 *)
  check_int "request words" 11 (Array.length words);
  check_int "first word is type" 1 words.(0);
  check_int "terminated" Memlayout.end_marker words.(Array.length words - 1);
  let decoded = get (Memlayout.decode_request words) in
  check_int "decoded type" 1 decoded.Memlayout.req_type_id;
  (match decoded.Memlayout.req_constraints with
  | [ (1, 16, w1); (3, 1, w2); (4, 40, w3) ] ->
      (* Equal weights: each is Q15 of 1/3. *)
      check_int "w1" 10923 w1;
      check_int "w2" 10923 w2;
      check_int "w3" 10923 w3
  | _ -> Alcotest.fail "unexpected decoded constraints");
  (* Empty request still has type + end marker. *)
  let empty = get (Request.make ~type_id:5 []) in
  let words = get (Memlayout.encode_request empty) in
  check_int "empty request words" 2 (Array.length words)

let test_request_decode_errors () =
  check_bool "too short" true
    (Result.is_error (Memlayout.decode_request [| 1 |]));
  check_bool "no end marker" true
    (Result.is_error (Memlayout.decode_request [| 1; 2; 3; 4 |]));
  check_bool "truncated block" true
    (Result.is_error (Memlayout.decode_request [| 1; 2; 3 |]))

(* --- Supplemental image --------------------------------------------------- *)

let test_supplemental_roundtrip () =
  let words = get (Memlayout.encode_supplemental cb.Casebase.schema) in
  (* 4 attributes x 4 words + end = 17 *)
  check_int "supplemental words" 17 (Array.length words);
  let decoded = get (Memlayout.decode_supplemental words) in
  check_int "blocks" 4 (List.length decoded);
  (match decoded with
  | (1, 8, 16, r1) :: _ ->
      check_int "recip dmax 8" 3641 r1
  | _ -> Alcotest.fail "unexpected first block");
  (match List.rev decoded with
  | (4, 8, 44, r4) :: _ -> check_int "recip dmax 36" 886 r4
  | _ -> Alcotest.fail "unexpected last block")

(* --- Tree image ----------------------------------------------------------- *)

let test_tree_roundtrip () =
  let layout = get (Memlayout.encode_tree cb) in
  let decoded = get (Memlayout.decode_tree layout.Memlayout.words) in
  (match decoded with
  | [ (1, impls1); (2, impls2) ] ->
      check_int "type 1 impls" 3 (List.length impls1);
      check_int "type 2 impls" 2 (List.length impls2);
      (match impls1 with
      | (1, attrs) :: _ ->
          Alcotest.(check (list (pair int int)))
            "impl 1 attrs" [ (1, 16); (2, 0); (3, 2); (4, 44) ] attrs
      | _ -> Alcotest.fail "unexpected first impl")
  | _ -> Alcotest.fail "unexpected tree");
  (* Directories agree with the decoded pointers. *)
  check_int "type directory size" 2
    (List.length layout.Memlayout.type_directory);
  check_int "impl directory size" 5
    (List.length layout.Memlayout.impl_directory)

let test_tree_word_structure () =
  let layout = get (Memlayout.encode_tree cb) in
  let words = layout.Memlayout.words in
  (* Level 0: (1, ptr) (2, ptr) END *)
  check_int "type id 1" 1 words.(0);
  check_int "type id 2" 2 words.(2);
  check_int "level 0 end" Memlayout.end_marker words.(4);
  (* First type's level-1 list starts right after level 0. *)
  check_int "type 1 pointer" 5 words.(1);
  check_int "impl id at pointer" 1 words.(5)

let test_value_collision_rejected () =
  let schema =
    get
      (Attr.Schema.of_list
         [ get (Attr.descriptor ~id:1 ~name:"x" ~lower:0 ~upper:65535) ])
  in
  let impl = get (Impl.make ~id:1 ~target:Target.Fpga [ (1, 65535) ]) in
  let ft = get (Ftype.make ~id:1 ~name:"f" [ impl ]) in
  let bad = get (Casebase.make ~name:"bad" ~schema [ ft ]) in
  check_bool "encode_tree rejects end-marker value" true
    (Result.is_error (Memlayout.encode_tree bad));
  check_bool "supplemental rejects end-marker bound" true
    (Result.is_error (Memlayout.encode_supplemental schema))

(* --- System image ---------------------------------------------------------- *)

let test_build_system () =
  let image = get (Memlayout.build_system cb request) in
  check_int "tree base" 0 image.Memlayout.tree_base;
  let tree_words = Array.length image.Memlayout.layout.Memlayout.words in
  check_int "supplemental base" tree_words image.Memlayout.supplemental_base;
  check_int "cb_mem = tree + supplemental" (tree_words + 17)
    (Array.length image.Memlayout.cb_mem);
  check_int "req_mem" 11 (Array.length image.Memlayout.req_mem)

let test_cb_image_reuse () =
  let cb_image = get (Memlayout.encode_cb cb) in
  let a = get (Memlayout.attach_request cb_image request) in
  let b =
    get (Memlayout.attach_request cb_image Scenario_audio.relaxed_request)
  in
  check_bool "same CB words shared" true
    (a.Memlayout.cb_mem == b.Memlayout.cb_mem);
  check_bool "matches build_system" true
    (let direct = get (Memlayout.build_system cb request) in
     direct.Memlayout.cb_mem = a.Memlayout.cb_mem
     && direct.Memlayout.req_mem = a.Memlayout.req_mem
     && direct.Memlayout.supplemental_base = a.Memlayout.supplemental_base)

let test_reconstruct_system () =
  let image = get (Memlayout.build_system cb request) in
  let rebuilt =
    get
      (Memlayout.reconstruct_system ~cb_mem:image.Memlayout.cb_mem
         ~req_mem:image.Memlayout.req_mem
         ~supplemental_base:image.Memlayout.supplemental_base)
  in
  check_bool "directories match" true
    (rebuilt.Memlayout.layout.Memlayout.type_directory
     = image.Memlayout.layout.Memlayout.type_directory
    && rebuilt.Memlayout.layout.Memlayout.impl_directory
       = image.Memlayout.layout.Memlayout.impl_directory);
  check_bool "words match" true
    (rebuilt.Memlayout.cb_mem = image.Memlayout.cb_mem
    && rebuilt.Memlayout.req_mem = image.Memlayout.req_mem);
  check_bool "bad base rejected" true
    (Result.is_error
       (Memlayout.reconstruct_system ~cb_mem:image.Memlayout.cb_mem
          ~req_mem:image.Memlayout.req_mem ~supplemental_base:0));
  check_bool "oversized base rejected" true
    (Result.is_error
       (Memlayout.reconstruct_system ~cb_mem:image.Memlayout.cb_mem
          ~req_mem:image.Memlayout.req_mem
          ~supplemental_base:(Array.length image.Memlayout.cb_mem + 1)))

(* --- Accounting (Table 3) --------------------------------------------------- *)

let test_account_paper_example () =
  let acc = get (Memlayout.account cb request) in
  check_int "request words" 11 acc.Memlayout.request_words;
  check_int "supplemental words" 17 acc.Memlayout.supplemental_words;
  (* level 0: 2*2+1 = 5; level 1: (2*3+1) + (2*2+1) = 12;
     level 2: 3 impls x (2*4+1) + 2 impls x (2*3+1) = 27 + 14 = 41. *)
  check_int "level 0" 5 acc.Memlayout.tree_level0_words;
  check_int "level 1" 12 acc.Memlayout.tree_level1_words;
  check_int "level 2" 41 acc.Memlayout.tree_level2_words;
  check_int "total" 58 acc.Memlayout.tree_total_words;
  check_int "bytes" 116 (Memlayout.bytes_of_words 58)

let test_worst_case_formulas () =
  (* Table 3 configuration: 15 types, 10 impls, 10 attrs. *)
  let full =
    Memlayout.worst_case_tree_words ~types:15 ~impls_per_type:10
      ~attrs_per_impl:10 ~include_end_markers:true ~include_pointers:true
  in
  check_int "full accounting" 3496 full;
  let bare =
    Memlayout.worst_case_tree_words ~types:15 ~impls_per_type:10
      ~attrs_per_impl:10 ~include_end_markers:false ~include_pointers:false
  in
  (* 15 + 150 + 3000 = 3165 words. *)
  check_int "bare accounting" 3165 bare;
  (* The paper's request: 10 attributes worst case = 1 + 30 + 1. *)
  check_int "request worst case" 32
    (Memlayout.worst_case_request_words ~attrs_per_request:10
       ~include_end_marker:true);
  (* The paper reports 64 bytes for the request: 32 words x 2. *)
  check_int "request bytes" 64 (Memlayout.bytes_of_words 32)

let test_worst_case_matches_encoder () =
  (* The closed-form formula must agree with the real encoder on a
     fully populated generated tree. *)
  let cb = Workload.Generator.sized_casebase ~seed:7 ~types:5 ~impls:4 ~attrs:6 in
  let layout = get (Memlayout.encode_tree cb) in
  let formula =
    Memlayout.worst_case_tree_words ~types:5 ~impls_per_type:4 ~attrs_per_impl:6
      ~include_end_markers:true ~include_pointers:true
  in
  check_int "formula = encoder" formula
    (Array.length layout.Memlayout.words)

(* --- Properties -------------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let generated seed =
  let rng = Workload.Prng.create ~seed in
  let schema =
    Workload.Generator.schema rng
      { Workload.Generator.attr_count = 6; max_bound = 400 }
  in
  Workload.Generator.casebase rng ~schema
    {
      Workload.Generator.type_count = 4;
      impls_per_type = (0, 5);
      attrs_per_impl = (0, 6);
    }

(* [load_cb] builds its RAM over the encoder's array without the range
   scan of [Ram.of_array], so every emitted word must be in range by
   construction: values up to the largest storable word, reciprocals,
   pointers and end markers. *)
let wide seed =
  let rng = Workload.Prng.create ~seed in
  let schema =
    Workload.Generator.schema rng
      { Workload.Generator.attr_count = 8; max_bound = Memlayout.max_value_word }
  in
  Workload.Generator.casebase rng ~schema
    {
      Workload.Generator.type_count = 6;
      impls_per_type = (0, 8);
      attrs_per_impl = (0, 8);
    }

let props =
  [
    prop "encode_cb emits only 16-bit words" (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        List.for_all
          (fun cb ->
            match (Memlayout.encode_cb cb, Memlayout.load_cb cb) with
            | Ok image, Ok (ram, supplemental_base) ->
                Array.for_all
                  (fun w -> w >= 0 && w <= 0xFFFF)
                  image.Memlayout.cb_words
                && Memlayout.Ram.to_array ram = image.Memlayout.cb_words
                && supplemental_base = image.Memlayout.cb_supplemental_base
            | _ -> false)
          [ generated seed; wide seed ]);
    prop "tree round-trips on generated case bases"
      (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let cb = generated seed in
        match Memlayout.encode_tree cb with
        | Error _ -> false
        | Ok layout -> (
            match Memlayout.decode_tree layout.Memlayout.words with
            | Error _ -> false
            | Ok decoded ->
                let expected =
                  List.map
                    (fun (ft : Ftype.t) ->
                      ( ft.Ftype.id,
                        List.map
                          (fun (impl : Impl.t) -> (impl.Impl.id, impl.Impl.attrs))
                          ft.Ftype.impls ))
                    cb.Casebase.ftypes
                in
                decoded = expected));
    prop "supplemental round-trips" (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let cb = generated seed in
        match Memlayout.encode_supplemental cb.Casebase.schema with
        | Error _ -> false
        | Ok words -> (
            match Memlayout.decode_supplemental words with
            | Error _ -> false
            | Ok blocks ->
                List.for_all2
                  (fun (d : Attr.descriptor) (id, lo, hi, recip) ->
                    d.id = id && d.lower = lo && d.upper = hi
                    && recip = Fxp.Q15.to_raw (Fxp.Q15.recip_succ (Attr.dmax d)))
                  (Attr.Schema.descriptors cb.Casebase.schema)
                  blocks));
    prop "request round-trips" (QCheck2.Gen.int_range 0 50_000) (fun seed ->
        let rng = Workload.Prng.create ~seed in
        let schema =
          Workload.Generator.schema rng
            { Workload.Generator.attr_count = 8; max_bound = 500 }
        in
        let req =
          Workload.Generator.request rng ~schema ~type_id:2
            {
              Workload.Generator.constraints = (1, 8);
              weight_profile = `Random;
              value_slack = 0.1;
            }
        in
        match Memlayout.encode_request req with
        | Error _ -> false
        | Ok words -> (
            match Memlayout.decode_request words with
            | Error _ -> false
            | Ok decoded ->
                decoded.Memlayout.req_type_id = req.Request.type_id
                && List.for_all2
                     (fun (aid, v, w) (daid, dv, dw) ->
                       aid = daid && v = dv
                       && dw = Fxp.Q15.to_raw (Fxp.Q15.of_float w))
                     (Request.normalized_weights req)
                     decoded.Memlayout.req_constraints));
    prop "reconstructed images drive the hardware identically"
      (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let cb = Workload.Generator.sized_casebase ~seed ~types:2 ~impls:3 ~attrs:4 in
        let req = Workload.Generator.sized_request ~seed cb in
        match Memlayout.build_system cb req with
        | Error _ -> false
        | Ok image -> (
            match
              Memlayout.reconstruct_system ~cb_mem:image.Memlayout.cb_mem
                ~req_mem:image.Memlayout.req_mem
                ~supplemental_base:image.Memlayout.supplemental_base
            with
            | Error _ -> false
            | Ok rebuilt -> (
                match
                  (Rtlsim.Machine.run image, Rtlsim.Machine.run rebuilt)
                with
                | Ok a, Ok b ->
                    a.Rtlsim.Machine.best_impl_id = b.Rtlsim.Machine.best_impl_id
                    && Fxp.Q15.equal a.Rtlsim.Machine.best_score
                         b.Rtlsim.Machine.best_score
                | Error _, Error _ -> true
                | _ -> false)));
    prop "encoded images lint clean (image + range passes)"
      (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let cb = Workload.Generator.sized_casebase ~seed ~types:3 ~impls:3 ~attrs:5 in
        let req = Workload.Generator.sized_request ~seed cb in
        match Memlayout.build_system cb req with
        | Error _ -> false
        | Ok image ->
            let diags =
              Analysis.Driver.lint_raw ~cb_mem:image.Memlayout.cb_mem
                ~req_mem:image.Memlayout.req_mem
                ~supplemental_base:image.Memlayout.supplemental_base
            in
            Analysis.Diagnostic.errors diags = 0
            && Analysis.Diagnostic.warnings diags = 0);
    prop "any single corrupted word is caught by the verifier"
      (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let cb = Workload.Generator.sized_casebase ~seed ~types:3 ~impls:3 ~attrs:5 in
        let req = Workload.Generator.sized_request ~seed cb in
        match Memlayout.build_system cb req with
        | Error _ -> false
        | Ok image ->
            (* Overwrite one non-marker word (chosen by the seed, in
               either memory) with the reserved end marker; the image
               pass must flag it. *)
            let cb_mem = Array.copy image.Memlayout.cb_mem in
            let req_mem = Array.copy image.Memlayout.req_mem in
            let target = if seed mod 2 = 0 then cb_mem else req_mem in
            let n = Array.length target in
            let rec pick i tries =
              if tries >= n then None
              else if target.(i mod n) <> Memlayout.end_marker then
                Some (i mod n)
              else pick (i + 1) (tries + 1)
            in
            (match pick (seed / 2) 0 with
            | None -> true (* image is all markers; nothing to corrupt *)
            | Some idx ->
                target.(idx) <- Memlayout.end_marker;
                let diags =
                  Analysis.Driver.lint_raw ~cb_mem ~req_mem
                    ~supplemental_base:image.Memlayout.supplemental_base
                in
                Analysis.Diagnostic.errors diags
                + Analysis.Diagnostic.warnings diags
                > 0));
    prop "all list structures are end-terminated"
      (QCheck2.Gen.int_range 0 50_000)
      (fun seed ->
        let cb = generated seed in
        match Memlayout.encode_tree cb with
        | Error _ -> false
        | Ok layout ->
            let words = layout.Memlayout.words in
            Array.length words > 0
            && words.(Array.length words - 1) = Memlayout.end_marker);
  ]

let test_checksum () =
  Alcotest.(check int) "empty image" 0 (Memlayout.checksum [||]);
  let words = [| 0x1234; 0x0001; 0xFFFF |] in
  Alcotest.(check int)
    "deterministic" (Memlayout.checksum words) (Memlayout.checksum words);
  (* Position-sensitive: swapping two words must change the sum. *)
  let swapped = [| 0x0001; 0x1234; 0xFFFF |] in
  Alcotest.(check bool)
    "detects swapped words" true
    (Memlayout.checksum words <> Memlayout.checksum swapped);
  (* A single-bit flip anywhere is detected. *)
  let flipped = Array.copy words in
  flipped.(2) <- flipped.(2) lxor 0x0100;
  Alcotest.(check bool)
    "detects a bit flip" true
    (Memlayout.checksum words <> Memlayout.checksum flipped);
  (* Words are masked to 16 bits before summing. *)
  Alcotest.(check int)
    "masks to 16 bits"
    (Memlayout.checksum [| 0x1234 |])
    (Memlayout.checksum [| 0x71234 |])

let () =
  Alcotest.run "memlayout"
    [
      ("ram", [ Alcotest.test_case "ram model" `Quick test_ram ]);
      ( "request",
        [
          Alcotest.test_case "round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "decode errors" `Quick test_request_decode_errors;
        ] );
      ( "supplemental",
        [ Alcotest.test_case "round-trip" `Quick test_supplemental_roundtrip ] );
      ( "tree",
        [
          Alcotest.test_case "round-trip" `Quick test_tree_roundtrip;
          Alcotest.test_case "word structure" `Quick test_tree_word_structure;
          Alcotest.test_case "value collision" `Quick
            test_value_collision_rejected;
        ] );
      ( "system",
        [
          Alcotest.test_case "build" `Quick test_build_system;
          Alcotest.test_case "reconstruct" `Quick test_reconstruct_system;
          Alcotest.test_case "cb image reuse" `Quick test_cb_image_reuse;
        ] );
      ("checksum", [ Alcotest.test_case "fletcher" `Quick test_checksum ]);
      ( "accounting",
        [
          Alcotest.test_case "paper example" `Quick test_account_paper_example;
          Alcotest.test_case "worst-case formulas" `Quick
            test_worst_case_formulas;
          Alcotest.test_case "formula matches encoder" `Quick
            test_worst_case_matches_encoder;
        ] );
      ("properties", props);
    ]
