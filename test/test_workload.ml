(* Tests for the deterministic PRNG and the workload generators. *)

open Qos_core
module P = Workload.Prng
module G = Workload.Generator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- PRNG ------------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = P.create ~seed:123 and b = P.create ~seed:123 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Int64.equal (P.int64 a) (P.int64 b))
  done;
  let c = P.create ~seed:124 in
  check_bool "different seed diverges" true
    (not (Int64.equal (P.int64 (P.create ~seed:123)) (P.int64 c)))

(* Known-answer vectors: the first draws of each kind for a few seeds,
   as the splitmix64 generator has always produced them.  Every seeded
   workload, trace and digest in the repository rests on this stream,
   so a change to the state's representation must leave it bit for bit
   as it is. *)
let prng_vectors =
  [
    ( 0,
      [ (-2152535657050944081L); 7960286522194355700L; 487617019471545679L ],
      [ 823; 796; 679 ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6 ],
      [ 0x1.57b7f750f28adp+4; 0x1.69795bce7f0d7p+2; 0x1.1252def4e24bap-2 ],
      [ 9; (-26); 24 ],
      ((-6411193824288604561L), 7960286522194355700L) );
    ( 1,
      [ (-7995527694508729151L); (-4689498862643123097L); (-534904783426661026L) ],
      [ 657; 711; 878 ],
      [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1 ],
      [ 0x1.0b8592cae461p+3; 0x1.b642882d6d9b2p+3; 0x1.1b3e8de0b0958p+5 ],
      [ (-34); (-14); (-13) ],
      (6791897765849424158L, (-4689498862643123097L)) );
    ( 42,
      [ (-4767286540954276203L); 2949826092126892291L; 5139283748462763858L ],
      [ 605; 291; 954 ],
      [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2 ],
      [ 0x1.b0fed1f9294abp+3; 0x1.be12543309a76p+0; 0x1.a200306cb2dccp+1 ],
      [ (-20); 6; (-8) ],
      (6332618229526065668L, 2949826092126892291L) );
    ( 2026,
      [ (-2622126769270649565L); 8699989649721214301L; (-6136402475954816882L) ],
      [ 339; 397; 926 ],
      [ 0x1.b738ab3123291p-1; 0x1.e2f249f7b4d5p-2; 0x1.55ae3ceb9bc57p-1 ],
      [ 0x1.3824f3b9046f6p+4; 0x1.984a4e82244ffp+2; 0x1.60352f496eaecp+3 ],
      [ (-33); 18; (-13) ],
      (7959393617856205470L, 8699989649721214301L) );
    ( (-5),
      [ 1635312068028924514L; (-8161798454662654712L); (-2167467587980096447L) ],
      [ 514; 96; 457 ],
      [ 0x1.6b1cba95fc6p-4; 0x1.1d76ef18db002p-1; 0x1.c3d7376cc88c1p-1 ],
      [ 0x1.db487ff014c13p-1; 0x1.04ef7ad982302p+3; 0x1.569ccfbf2beecp+4 ],
      [ 12; (-34); 35 ],
      ((-5970105824593227592L), (-8161798454662654712L)) );
  ]

let test_prng_known_answers () =
  let draws3 seed f =
    let rng = P.create ~seed in
    List.init 3 (fun _ -> f rng)
  in
  let bits = List.map Int64.bits_of_float in
  List.iter
    (fun (seed, int64s, ints, floats, exps, int_ins, (child, parent)) ->
      let name what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check (list int64)) (name "int64") int64s (draws3 seed P.int64);
      Alcotest.(check (list int))
        (name "int ~bound:1000") ints
        (draws3 seed (fun r -> P.int r ~bound:1000));
      Alcotest.(check (list int64))
        (name "float bits") (bits floats) (bits (draws3 seed P.float));
      Alcotest.(check (list int64))
        (name "exponential bits") (bits exps)
        (bits (draws3 seed (fun r -> P.exponential r ~mean:10.0)));
      Alcotest.(check (list int))
        (name "int_in [-40, 40]") int_ins
        (draws3 seed (fun r -> P.int_in r ~lo:(-40) ~hi:40));
      let rng = P.create ~seed in
      let c = P.split rng in
      Alcotest.(check (pair int64 int64))
        (name "split child, then parent") (child, parent)
        (P.int64 c, P.int64 rng))
    prng_vectors

let test_prng_copy_and_split () =
  let a = P.create ~seed:9 in
  let _ = P.int64 a in
  let b = P.copy a in
  check_bool "copy continues identically" true
    (Int64.equal (P.int64 a) (P.int64 b));
  let parent = P.create ~seed:9 in
  let child = P.split parent in
  check_bool "split stream differs from parent" true
    (not (Int64.equal (P.int64 parent) (P.int64 child)))

let test_prng_bounds () =
  let rng = P.create ~seed:5 in
  for _ = 1 to 1000 do
    let v = P.int rng ~bound:7 in
    check_bool "int in [0,7)" true (v >= 0 && v < 7);
    let w = P.int_in rng ~lo:3 ~hi:9 in
    check_bool "int_in [3,9]" true (w >= 3 && w <= 9);
    let f = P.float rng in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0);
    let e = P.exponential rng ~mean:10.0 in
    check_bool "exponential non-negative and finite" true
      (e >= 0.0 && Float.is_finite e)
  done;
  Alcotest.check_raises "bad bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (P.int rng ~bound:0));
  Alcotest.check_raises "bad range" (Invalid_argument "Prng.int_in: lo > hi")
    (fun () -> ignore (P.int_in rng ~lo:5 ~hi:4));
  Alcotest.check_raises "bad mean"
    (Invalid_argument "Prng.exponential: mean must be positive") (fun () ->
      ignore (P.exponential rng ~mean:0.0))

let test_prng_collections () =
  let rng = P.create ~seed:11 in
  let original = [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let shuffled = P.shuffle rng original in
  check_bool "shuffle is a permutation" true
    (List.sort compare shuffled = original);
  check_int "choose picks a member" 0
    (if List.mem (P.choose rng original) original then 0 else 1);
  Alcotest.check_raises "choose empty"
    (Invalid_argument "Prng.choose: empty list") (fun () ->
      ignore (P.choose rng ([] : int list)));
  let sample = P.sample_without_replacement rng ~k:3 original in
  check_int "sample size" 3 (List.length sample);
  check_bool "sample distinct" true
    (List.length (List.sort_uniq compare sample) = 3);
  check_bool "sample keeps original order" true
    (List.sort compare sample = sample);
  check_bool "oversized sample returns all" true
    (P.sample_without_replacement rng ~k:99 original = original);
  check_bool "k=0 returns nothing" true
    (P.sample_without_replacement rng ~k:0 original = [])

(* Deterministic chi-square check: with rejection sampling every
   residue of a non-power-of-two bound is exactly equally likely, so a
   fixed-seed draw of 100k samples over 10 bins must sit well under the
   p = 0.001 critical value for 9 degrees of freedom (27.88).  The old
   [raw mod bound] path was biased for bounds not dividing 2^62. *)
let test_prng_uniformity () =
  let bins = 10 and draws = 100_000 in
  let rng = P.create ~seed:2026 in
  let counts = Array.make bins 0 in
  for _ = 1 to draws do
    let v = P.int rng ~bound:bins in
    counts.(v) <- counts.(v) + 1
  done;
  let expected = float_of_int draws /. float_of_int bins in
  let chi2 =
    Array.fold_left
      (fun acc o ->
        let d = float_of_int o -. expected in
        acc +. (d *. d /. expected))
      0.0 counts
  in
  check_bool
    (Printf.sprintf "chi-square %.2f under critical 27.88" chi2)
    true (chi2 < 27.88);
  Array.iter (fun c -> check_bool "every residue reached" true (c > 0)) counts

(* [hi - lo + 1] used to overflow silently for extreme ranges and feed
   a negative bound downstream; now it is a clean [Invalid_argument]. *)
let test_prng_int_in_overflow () =
  let rng = P.create ~seed:3 in
  check_bool "widest legal range works" true
    (let v = P.int_in rng ~lo:min_int ~hi:(-2) in
     v >= min_int && v <= -2);
  check_bool "max_int range works" true
    (let v = P.int_in rng ~lo:0 ~hi:(max_int - 1) in
     v >= 0);
  Alcotest.check_raises "min_int..0 overflows"
    (Invalid_argument
       (Printf.sprintf
          "Prng.int_in: range [%d, %d] spans more than max_int values" min_int 0))
    (fun () -> ignore (P.int_in rng ~lo:min_int ~hi:0));
  Alcotest.check_raises "full int range overflows"
    (Invalid_argument
       (Printf.sprintf
          "Prng.int_in: range [%d, %d] spans more than max_int values" min_int
          max_int))
    (fun () -> ignore (P.int_in rng ~lo:min_int ~hi:max_int))

(* --- Generators ----------------------------------------------------------------- *)

let test_generated_schema () =
  let rng = P.create ~seed:21 in
  let schema = G.schema rng { G.attr_count = 12; max_bound = 500 } in
  check_int "cardinal" 12 (Attr.Schema.cardinal schema);
  List.iter
    (fun (d : Attr.descriptor) ->
      check_bool "bounds ordered" true (d.Attr.lower <= d.Attr.upper);
      check_bool "within max_bound" true (d.Attr.upper <= 500))
    (Attr.Schema.descriptors schema)

let test_generated_casebase_valid () =
  (* Casebase.make validates conformance, so construction succeeding is
     itself the property; double-check the shape. *)
  let rng = P.create ~seed:22 in
  let schema = G.schema rng G.default_schema_spec in
  let cb = G.casebase rng ~schema G.default_casebase_spec in
  let stats = Casebase.stats cb in
  check_int "types" 15 stats.Casebase.type_count;
  check_int "impls" 150 stats.Casebase.impl_count;
  check_int "attrs per impl" 10 stats.Casebase.max_attrs_per_impl

let test_sized_casebase () =
  let cb = G.sized_casebase ~seed:1 ~types:4 ~impls:3 ~attrs:5 in
  let stats = Casebase.stats cb in
  check_int "types" 4 stats.Casebase.type_count;
  check_int "impls" 12 stats.Casebase.impl_count;
  check_int "attr entries" (12 * 5) stats.Casebase.attr_entry_count;
  let req = G.sized_request ~seed:1 cb in
  check_int "request width" 5 (Request.constraint_count req);
  check_int "request targets type 1" 1 req.Request.type_id

let test_request_spec () =
  let rng = P.create ~seed:30 in
  let schema = G.schema rng { G.attr_count = 8; max_bound = 100 } in
  for _ = 1 to 50 do
    let req =
      G.request rng ~schema ~type_id:3
        { G.constraints = (2, 5); weight_profile = `Random; value_slack = 0.0 }
    in
    let n = Request.constraint_count req in
    check_bool "constraint count in range" true (n >= 2 && n <= 5);
    List.iter
      (fun (c : Request.constr) ->
        check_bool "weight positive" true (c.Request.weight > 0.0);
        let d = Option.get (Attr.Schema.find schema c.Request.attr) in
        check_bool "no-slack values within bounds" true
          (c.Request.value >= d.Attr.lower && c.Request.value <= d.Attr.upper))
      req.Request.constraints
  done

let test_request_slack_can_exceed_bounds () =
  let rng = P.create ~seed:31 in
  let schema = G.schema rng { G.attr_count = 4; max_bound = 50 } in
  let out_of_bounds = ref false in
  for _ = 1 to 200 do
    let req =
      G.request rng ~schema ~type_id:1
        { G.constraints = (4, 4); weight_profile = `Equal; value_slack = 1.0 }
    in
    List.iter
      (fun (c : Request.constr) ->
        let d = Option.get (Attr.Schema.find schema c.Request.attr) in
        if c.Request.value < d.Attr.lower || c.Request.value > d.Attr.upper then
          out_of_bounds := true)
      req.Request.constraints
  done;
  check_bool "slack produces out-of-bounds values" true !out_of_bounds

(* --- Stats ------------------------------------------------------------------- *)

module St = Workload.Stats

let test_stats_known_values () =
  let s = Option.get (St.summarize [ 1.0; 2.0; 3.0; 4.0 ]) in
  check_int "n" 4 s.St.n;
  check_bool "mean" true (Float.abs (s.St.mean -. 2.5) < 1e-9);
  check_bool "stddev (population)" true
    (Float.abs (s.St.stddev -. sqrt 1.25) < 1e-9);
  check_bool "min/max" true (s.St.minimum = 1.0 && s.St.maximum = 4.0);
  check_bool "p50 nearest rank" true (s.St.p50 = 2.0);
  check_bool "p99 is max here" true (s.St.p99 = 4.0);
  check_bool "empty" true (St.summarize [] = None);
  check_bool "mean empty" true (St.mean [] = None)

let test_stats_nonfinite () =
  (* A stray NaN/inf is skipped and counted, not allowed to poison the
     whole summary (a single bad sample used to erase a million good
     ones). *)
  let s = Option.get (St.summarize [ 1.0; Float.nan; 3.0 ]) in
  check_int "finite n" 2 s.St.n;
  check_int "nonfinite counted" 1 s.St.nonfinite;
  check_bool "mean over finite only" true
    (Float.abs (s.St.mean -. 2.0) < 1e-9);
  let s2 =
    Option.get (St.summarize [ Float.infinity; 5.0; Float.neg_infinity ])
  in
  check_int "inf skipped" 2 s2.St.nonfinite;
  check_bool "max unpolluted" true (s2.St.maximum = 5.0);
  (* All-nonfinite input has no finite samples to summarise. *)
  check_bool "all nonfinite" true (St.summarize [ Float.nan ] = None);
  let acc = St.create () in
  St.add acc Float.nan;
  St.add acc 2.0;
  check_int "acc nonfinite_count" 1 (St.nonfinite_count acc);
  let f = Option.get (St.finalize acc) in
  check_int "acc finite n" 1 f.St.n;
  check_int "acc nonfinite carried" 1 f.St.nonfinite;
  (* The flag stays visible in the rendering, but only when nonzero. *)
  let contains hay needle =
    let hn = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= hn && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let rendered = Format.asprintf "%a" St.pp_summary f in
  check_bool "pp flags nonfinite" true (contains rendered "nonfinite=1")

let test_percentile () =
  let values = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  check_bool "p0 is min" true (St.percentile values ~p:0.0 = Some 1.0);
  check_bool "p100 is max" true (St.percentile values ~p:100.0 = Some 5.0);
  check_bool "p50 median" true (St.percentile values ~p:50.0 = Some 3.0);
  check_bool "empty" true (St.percentile [] ~p:50.0 = None);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Stats.percentile: p outside [0, 100]") (fun () ->
      ignore (St.percentile values ~p:101.0))

let test_percentile_edges () =
  (* Singleton: every percentile is the one value. *)
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "singleton p%.0f" p)
        true
        (St.percentile [ 7.5 ] ~p = Some 7.5))
    [ 0.0; 50.0; 100.0 ];
  (* Percentiles must not depend on input order. *)
  let sorted = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  let shuffled = [ 4.0; 1.0; 5.0; 3.0; 2.0 ] in
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "order-independent p%.0f" p)
        true
        (St.percentile sorted ~p = St.percentile shuffled ~p))
    [ 0.0; 10.0; 25.0; 50.0; 90.0; 99.0; 100.0 ];
  (* p=0 of an unsorted list is still the minimum, not the first. *)
  check_bool "p0 unsorted" true
    (St.percentile [ 9.0; 2.0; 7.0 ] ~p:0.0 = Some 2.0);
  check_bool "p100 unsorted" true
    (St.percentile [ 9.0; 2.0; 7.0 ] ~p:100.0 = Some 9.0)

let test_percentile_nearest_rank_boundary () =
  (* Nearest-rank is ceil(p*n/100), but p*n/100 computed in binary
     floats can land epsilon above the exact integer — 99.9*1000/100
     evaluates to 999.0000000000001, whose ceiling selects rank 1000
     instead of 999.  The guarded ceiling must return the exact-rank
     element. *)
  let thousand = List.init 1000 (fun i -> float_of_int (i + 1)) in
  check_bool "p99.9 of 1..1000 is 999" true
    (St.percentile thousand ~p:99.9 = Some 999.0);
  let two_thousand = List.init 2000 (fun i -> float_of_int (i + 1)) in
  check_bool "p99.9 of 1..2000 is 1998" true
    (St.percentile two_thousand ~p:99.9 = Some 1998.0);
  (* Exact ranks that were never at risk must not drift down. *)
  check_bool "p90 of 1..1000 is 900" true
    (St.percentile thousand ~p:90.0 = Some 900.0);
  check_bool "p99 of 1..1000 is 990" true
    (St.percentile thousand ~p:99.0 = Some 990.0);
  check_bool "p100 of 1..1000 is 1000" true
    (St.percentile thousand ~p:100.0 = Some 1000.0)

let test_acc_streaming () =
  let values = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  let acc = St.create () in
  List.iter (St.add acc) values;
  check_int "count" 5 (St.count acc);
  let streamed = Option.get (St.finalize acc) in
  let batch = Option.get (St.summarize values) in
  check_bool "finalize matches summarize" true (streamed = batch);
  (* Finalize is a snapshot: adding more and re-finalizing works. *)
  St.add acc 100.0;
  let grown = Option.get (St.finalize acc) in
  check_int "snapshot grows" 6 grown.St.n;
  check_bool "new max" true (grown.St.maximum = 100.0);
  (* Growth beyond the initial buffer. *)
  let big = St.create () in
  for i = 1 to 1000 do
    St.add big (float_of_int i)
  done;
  let s = Option.get (St.finalize big) in
  check_int "big n" 1000 s.St.n;
  check_bool "big p95" true (s.St.p95 = 950.0);
  (* Non-finite values are skipped and counted, never poison. *)
  St.add big Float.nan;
  let after = Option.get (St.finalize big) in
  check_int "nan skipped" 1000 after.St.n;
  check_int "nan counted" 1 after.St.nonfinite;
  check_bool "p95 unchanged" true (after.St.p95 = 950.0)

let test_pp_summary_golden () =
  match St.summarize [ 5.0; 1.0; 3.0; 2.0; 4.0 ] with
  | None -> Alcotest.fail "summarize returned None"
  | Some s ->
      Alcotest.(check string)
        "golden rendering"
        "n=5 mean=3.000 sd=1.414 min=1.000 p50=3.000 p90=5.000 p95=5.000 p99=5.000 max=5.000"
        (Format.asprintf "%a" St.pp_summary s)

(* --- Stream ------------------------------------------------------------------ *)

module Sm = Workload.Stream

let list_source items =
  let rest = ref items in
  fun () ->
    match !rest with
    | [] -> None
    | x :: tl ->
        rest := tl;
        Some x

let test_stream_merge_order () =
  let a = list_source [ (1.0, "a1"); (4.0, "a2"); (9.0, "a3") ] in
  let b = list_source [ (2.0, "b1"); (4.0, "b2"); (5.0, "b3") ] in
  let t = Sm.create [ a; b ] in
  let got = Sm.drain t in
  Alcotest.(check (list (triple int (float 0.0) string)))
    "merged by (time, source index)"
    [
      (0, 1.0, "a1");
      (1, 2.0, "b1");
      (0, 4.0, "a2");
      (1, 4.0, "b2");
      (1, 5.0, "b3");
      (0, 9.0, "a3");
    ]
    got;
  check_int "pulled counts everything" 6 (Sm.pulled t)

let test_stream_peek_and_cap () =
  let a = list_source [ (1.0, 'x'); (2.0, 'y'); (3.0, 'z') ] in
  let t = Sm.create [ a ] in
  check_bool "peek does not consume" true
    (Sm.peek t = Some (0, 1.0, 'x') && Sm.peek t = Some (0, 1.0, 'x'));
  check_bool "pull returns the peeked item" true (Sm.pull t = Some (0, 1.0, 'x'));
  (* max_items counts pulls already made on this stream. *)
  let rest = Sm.drain ~max_items:2 t in
  check_int "cap honours earlier pulls" 1 (List.length rest);
  check_int "pulled total" 2 (Sm.pulled t);
  let tail = Sm.drain t in
  check_int "drain resumes after cap" 1 (List.length tail);
  check_bool "exhausted" true (Sm.pull t = None)

let test_stream_empty_and_exhausted () =
  let t = Sm.create [] in
  check_bool "no sources" true (Sm.pull t = None);
  (* A source must never be called again once it returned None. *)
  let calls_after_none = ref 0 in
  let fused_done = ref false in
  let fused () =
    if !fused_done then (
      incr calls_after_none;
      None)
    else (
      fused_done := true;
      None)
  in
  let live = list_source [ (1.0, 0) ] in
  let t2 = Sm.create [ fused; live ] in
  ignore (Sm.drain t2);
  check_int "exhausted source never re-pulled" 0 !calls_after_none

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name gen f)

let props =
  [
    prop "generated case bases always encode to RAM images"
      (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let rng = P.create ~seed in
        let schema = G.schema rng { G.attr_count = 5; max_bound = 900 } in
        let cb =
          G.casebase rng ~schema
            {
              G.type_count = 2;
              impls_per_type = (0, 4);
              attrs_per_impl = (0, 5);
            }
        in
        Result.is_ok (Memlayout.encode_tree cb));
    prop "same seed, same casebase" (QCheck2.Gen.int_range 0 100_000)
      (fun seed ->
        let build () =
          G.sized_casebase ~seed ~types:2 ~impls:2 ~attrs:3
        in
        Casebase.equal (build ()) (build ()));
    prop "exponential has roughly the requested mean"
      (QCheck2.Gen.int_range 0 1000)
      (fun seed ->
        let rng = P.create ~seed in
        let n = 2000 in
        let total = ref 0.0 in
        for _ = 1 to n do
          total := !total +. P.exponential rng ~mean:100.0
        done;
        let mean = !total /. float_of_int n in
        mean > 80.0 && mean < 120.0);
  ]

let stats_props =
  [
    prop "summary bounds ordering"
      QCheck2.Gen.(list_size (int_range 1 100) (float_range (-1000.0) 1000.0))
      (fun values ->
        match St.summarize values with
        | None -> false
        | Some s ->
            s.St.minimum <= s.St.p50
            && s.St.p50 <= s.St.p90
            && s.St.p90 <= s.St.p95
            && s.St.p95 <= s.St.p99
            && s.St.p99 <= s.St.maximum
            && s.St.minimum <= s.St.mean
            && s.St.mean <= s.St.maximum
            && s.St.stddev >= 0.0);
    (* [finalize] sorts with its own float-specialised heap sort; the
       summary must match one computed with the stdlib sort and folds,
       bit for bit — signed zeros included, so the two sorts must also
       agree on how they order values that compare equal. *)
    prop "finalize matches the stdlib sort bit for bit"
      QCheck2.Gen.(
        list_size (int_range 1 300)
          (oneof
             [
               float_range (-50.0) 50.0;
               oneofl [ 0.0; -0.0; 1.0; -1.0 ];
               map float_of_int (int_range (-5) 5);
             ]))
      (fun values ->
        let acc = St.create () in
        List.iter (St.add acc) values;
        let s = Option.get (St.finalize acc) in
        let sorted = Array.of_list values in
        Array.sort Float.compare sorted;
        let n = Array.length sorted in
        let fn = float_of_int n in
        let mu = Array.fold_left ( +. ) 0.0 sorted /. fn in
        let var =
          Array.fold_left (fun a v -> a +. ((v -. mu) ** 2.0)) 0.0 sorted /. fn
        in
        let at p =
          let x = p *. fn /. 100.0 in
          let rank =
            max 1 (int_of_float (Float.ceil (x -. (1e-9 *. Float.max 1.0 x))))
          in
          sorted.(min (n - 1) (rank - 1))
        in
        let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
        same s.St.mean mu
        && same s.St.stddev (sqrt var)
        && same s.St.minimum sorted.(0)
        && same s.St.maximum sorted.(n - 1)
        && same s.St.p50 (at 50.0)
        && same s.St.p90 (at 90.0)
        && same s.St.p95 (at 95.0)
        && same s.St.p99 (at 99.0));
    prop "percentile is a member of the sample"
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 50) (float_range 0.0 100.0))
          (float_range 0.0 100.0))
      (fun (values, p) ->
        match St.percentile values ~p with
        | None -> false
        | Some v -> List.mem v values);
  ]

let stream_props =
  [
    (* Times are drawn from a tiny integer range so cross-source ties
       are common — the tie-break (lower source index first) is the
       part that makes streaming byte-equivalent to pregeneration. *)
    prop "drain equals a stable sort of the concatenated sources"
      QCheck2.Gen.(
        list_size (int_range 0 5) (list_size (int_range 0 20) (int_range 0 8)))
      (fun raw ->
        let sources =
          List.map (fun ts -> List.sort compare (List.map float_of_int ts)) raw
        in
        let srcs =
          List.map
            (fun ts -> list_source (List.mapi (fun j t -> (t, j)) ts))
            sources
        in
        let got = Sm.drain (Sm.create srcs) in
        let expected =
          List.concat
            (List.mapi (fun i ts -> List.mapi (fun j t -> (i, t, j)) ts) sources)
          |> List.stable_sort (fun (i1, t1, _) (i2, t2, _) ->
                 compare (t1, i1) (t2, i2))
        in
        got = expected);
  ]

let () =
  Alcotest.run "workload"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "known answers" `Quick test_prng_known_answers;
          Alcotest.test_case "copy and split" `Quick test_prng_copy_and_split;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "collections" `Quick test_prng_collections;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "int_in overflow guard" `Quick
            test_prng_int_in_overflow;
        ] );
      ( "generator",
        [
          Alcotest.test_case "schema" `Quick test_generated_schema;
          Alcotest.test_case "casebase" `Quick test_generated_casebase_valid;
          Alcotest.test_case "sized casebase" `Quick test_sized_casebase;
          Alcotest.test_case "request spec" `Quick test_request_spec;
          Alcotest.test_case "request slack" `Quick
            test_request_slack_can_exceed_bounds;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known_values;
          Alcotest.test_case "nonfinite skipped and counted" `Quick
            test_stats_nonfinite;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "nearest-rank float boundary" `Quick
            test_percentile_nearest_rank_boundary;
          Alcotest.test_case "streaming accumulator" `Quick test_acc_streaming;
          Alcotest.test_case "pp_summary golden" `Quick test_pp_summary_golden;
        ] );
      ( "stream",
        [
          Alcotest.test_case "merge order" `Quick test_stream_merge_order;
          Alcotest.test_case "peek and max_items" `Quick
            test_stream_peek_and_cap;
          Alcotest.test_case "empty and exhausted" `Quick
            test_stream_empty_and_exhausted;
        ] );
      ("properties", props @ stats_props @ stream_props);
    ]
