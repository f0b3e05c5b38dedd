module Q = Fxp.Q15
module Ram = Memlayout.Ram

type config = {
  resume_scan : bool;
  compacted : bool;
  use_divider : bool;
  overlap_compute : bool;
  registered_bram : bool;
}

let paper_config =
  {
    resume_scan = true;
    compacted = false;
    use_divider = false;
    overlap_compute = false;
    registered_bram = false;
  }

let pipelined_config = { paper_config with compacted = true; overlap_compute = true }

let divider_cycles = 18

let cycle_limit = 50_000_000

let trace_limit = 20_000

type phase = Tree_walk | Attr_scan | Mac | Mem_stall

let all_phases = [ Tree_walk; Attr_scan; Mac; Mem_stall ]

let phase_name = function
  | Tree_walk -> "tree-walk"
  | Attr_scan -> "attr-scan"
  | Mac -> "mac"
  | Mem_stall -> "mem-stall"

type phase_cycles = {
  tree_walk : int;
  attr_scan : int;
  mac : int;
  mem_stall : int;
}

let phase_cycles_get p c =
  match p with
  | Tree_walk -> c.tree_walk
  | Attr_scan -> c.attr_scan
  | Mac -> c.mac
  | Mem_stall -> c.mem_stall

type stats = {
  cycles : int;
  cb_accesses : int;
  req_accesses : int;
  mult_ops : int;
  alu_ops : int;
  impls_visited : int;
  attrs_matched : int;
  attrs_missing : int;
  phases : phase_cycles;
}

type outcome = {
  best_impl_id : int;
  best_score : Fxp.Q15.t;
  stats : stats;
  trace : string list;
  waveform : Vcd.change list;
}

let waveform_signals =
  [
    { Vcd.signal_name = "cb_addr"; width = 16 };
    { Vcd.signal_name = "req_addr"; width = 16 };
    { Vcd.signal_name = "local_s"; width = 16 };
    { Vcd.signal_name = "acc"; width = 16 };
    { Vcd.signal_name = "best_id"; width = 16 };
    { Vcd.signal_name = "best_score"; width = 16 };
  ]

type error =
  | Type_not_found of int
  | No_implementations of int
  | Malformed_image of string

let error_to_string = function
  | Type_not_found id -> Printf.sprintf "function type %d not found in CB-MEM" id
  | No_implementations id ->
      Printf.sprintf "function type %d has an empty implementation list" id
  | Malformed_image m -> "malformed RAM image: " ^ m

let pp_stats ppf s =
  Format.fprintf ppf
    "cycles=%d cb=%d req=%d mult=%d alu=%d impls=%d matched=%d missing=%d"
    s.cycles s.cb_accesses s.req_accesses s.mult_ops s.alu_ops s.impls_visited
    s.attrs_matched s.attrs_missing

let pp_phases ppf c =
  Format.fprintf ppf "tree-walk=%d attr-scan=%d mac=%d mem-stall=%d"
    c.tree_walk c.attr_scan c.mac c.mem_stall

exception Halt of error

(* What the implementation walk keeps: the best-score/ID register pair
   of Fig. 7, or the k-deep ranked register file of the Sec. 5
   extension. *)
type select = Best | Ranked of int

type state = {
  cb : Ram.t;
  req : Ram.t;
  tree_base : int;
  supplemental_base : int;
  config : config;
  mutable trace_on : bool;
  mutable waveform_on : bool;
  mutable cycles : int;
  mutable mult_ops : int;
  mutable alu_ops : int;
  mutable impls_visited : int;
  mutable attrs_matched : int;
  mutable attrs_missing : int;
  mutable supp_pos : int;
  mutable cb_attr_pos : int;
  mutable rev_trace : string list;
  mutable trace_len : int;
  mutable rev_samples : Vcd.change list;
  (* Cycle attribution: which FSM region the next memory access belongs
     to, and the per-phase cycle counters.  Every [tick] is charged to
     exactly one phase, so the four counters sum to [cycles]. *)
  mutable cur_phase : phase;
  mutable ph_tree_walk : int;
  mutable ph_attr_scan : int;
  mutable ph_mac : int;
  mutable ph_mem_stall : int;
  (* The best register pair; [best_raw] is -1 before the first
     implementation, below every Q15 score. *)
  mutable best_id : int;
  mutable best_raw : int;
  mutable ranked : (int * Q.t) list;
}

let load ?(config = paper_config) ?(tree_base = 0) ~cb ~req ~supplemental_base
    () =
  {
    cb;
    req;
    tree_base;
    supplemental_base;
    config;
    trace_on = false;
    waveform_on = false;
    cycles = 0;
    mult_ops = 0;
    alu_ops = 0;
    impls_visited = 0;
    attrs_matched = 0;
    attrs_missing = 0;
    supp_pos = supplemental_base;
    cb_attr_pos = 0;
    rev_trace = [];
    trace_len = 0;
    rev_samples = [];
    cur_phase = Tree_walk;
    ph_tree_walk = 0;
    ph_attr_scan = 0;
    ph_mac = 0;
    ph_mem_stall = 0;
    best_id = 0;
    best_raw = -1;
    ranked = [];
  }

(* Everything a run reads before it writes; the scan pointers are set
   per implementation by [eval_impl]. *)
let reset m ~trace ~waveform =
  Ram.reset_access_count m.cb;
  Ram.reset_access_count m.req;
  m.trace_on <- trace;
  m.waveform_on <- waveform;
  m.cycles <- 0;
  m.mult_ops <- 0;
  m.alu_ops <- 0;
  m.impls_visited <- 0;
  m.attrs_matched <- 0;
  m.attrs_missing <- 0;
  m.rev_trace <- [];
  m.trace_len <- 0;
  m.rev_samples <- [];
  m.cur_phase <- Tree_walk;
  m.ph_tree_walk <- 0;
  m.ph_attr_scan <- 0;
  m.ph_mac <- 0;
  m.ph_mem_stall <- 0;
  m.best_id <- 0;
  m.best_raw <- -1;
  m.ranked <- []

let sample m signal value =
  if m.waveform_on then
    m.rev_samples <-
      { Vcd.at_cycle = m.cycles; signal; value } :: m.rev_samples

let end_marker = Memlayout.end_marker

(* The "not found" result of the list scans: no RAM word or bound
   difference can take this value. *)
let no_hit = min_int

let tick m n =
  m.cycles <- m.cycles + n;
  if m.cycles > cycle_limit then
    raise (Halt (Malformed_image "cycle limit exceeded (pointer loop?)"))

(* Charge [n] cycles to [phase].  All cycle accounting funnels through
   here so the phase split always sums to the total. *)
let charge m phase n =
  tick m n;
  match phase with
  | Tree_walk -> m.ph_tree_walk <- m.ph_tree_walk + n
  | Attr_scan -> m.ph_attr_scan <- m.ph_attr_scan + n
  | Mac -> m.ph_mac <- m.ph_mac + n
  | Mem_stall -> m.ph_mem_stall <- m.ph_mem_stall + n

let snapshot_phases m =
  {
    tree_walk = m.ph_tree_walk;
    attr_scan = m.ph_attr_scan;
    mac = m.ph_mac;
    mem_stall = m.ph_mem_stall;
  }

(* Callers test [m.trace_on] first, so an untraced run formats
   nothing. *)
let emit_trace m fmt =
  Printf.ksprintf
    (fun s ->
      if m.trace_len < trace_limit then (
        m.rev_trace <- Printf.sprintf "[%06d] %s" m.cycles s :: m.rev_trace;
        m.trace_len <- m.trace_len + 1)
      else if m.trace_len = trace_limit then (
        m.rev_trace <- "... trace truncated ..." :: m.rev_trace;
        m.trace_len <- m.trace_len + 1))
    fmt

(* One word from a memory port: one access.  Asynchronous (distributed
   RAM) reads cost one cycle; a registered block-RAM output adds a wait
   state (the mapping note in the generated VHDL). *)
let read m mem addr =
  charge m m.cur_phase 1;
  (* The block-RAM output register's wait state is a memory stall, not
     useful phase work. *)
  if m.config.registered_bram then charge m Mem_stall 1;
  sample m (if mem == m.cb then "cb_addr" else "req_addr") addr;
  try Ram.read mem addr
  with Invalid_argument msg -> raise (Halt (Malformed_image msg))

(* The second word of a pair read at [addr].  The compacted port
   (Sec. 5) delivers the pair in one access; the word-serial port needs
   two.  At the very end of the image the second word may not exist;
   it is then returned as the end marker without an access. *)
let read_second m mem addr =
  if addr + 1 >= Ram.size mem then end_marker
  else if m.config.compacted then Ram.peek mem (addr + 1)
  else read m mem (addr + 1)

(* In the pipelined variant the datapath operations execute in the
   shadow of the memory fetches (the FSM issues the next read while the
   ALU/multiplier work), so they are counted but cost no cycles. *)
let alu m n =
  m.alu_ops <- m.alu_ops + n;
  if not m.config.overlap_compute then charge m Mac n

let mult m =
  m.mult_ops <- m.mult_ops + 1;
  if not m.config.overlap_compute then charge m Mac 1

(* --- List scans --------------------------------------------------------- *)

(* Scan the level-0 type list for [rtype]; deliver the level-1 base. *)
let rec scan_type_list m addr rtype =
  let id = read m m.cb addr in
  let ptr = read_second m m.cb addr in
  if id = end_marker then raise (Halt (Type_not_found rtype))
  else if id = rtype then (
    if m.trace_on then
      emit_trace m "type-list: matched type %d -> impl list @%d" rtype ptr;
    ptr)
  else (
    if m.trace_on then emit_trace m "type-list: skip type %d @%d" id addr;
    scan_type_list m (addr + 2) rtype)

(* Find [aid] in the supplemental list (blocks of 4, ID-sorted) from
   [pos].  Returns the raw reciprocal word, or in divider mode the
   bound difference plus one, or [no_hit].  Advances the resume
   pointer per Sec. 4.1.  In compacted mode the second word of a pair
   is free, so reading only the leading ID costs the same as reading
   the pair. *)
let rec scan_supplemental m aid pos =
  let id = read m m.cb pos in
  if id = end_marker || id > aid then (
    m.supp_pos <- pos;
    no_hit)
  else if id < aid then scan_supplemental m aid (pos + 4)
  else (
    (* Matched: the next request attribute is strictly larger, so the
       resume pointer moves past this block. *)
    m.supp_pos <- pos + 4;
    if m.config.use_divider then
      let lower = read m m.cb (pos + 1) in
      let upper = read_second m m.cb (pos + 1) in
      upper - lower + 1
    else read m m.cb (pos + 3))

(* Find [aid] in the implementation's attribute list (pairs, ID-sorted)
   from [pos]: its value, or [no_hit]. *)
let rec scan_impl_attrs m aid pos =
  let id = read m m.cb pos in
  if id = end_marker || id > aid then (
    m.cb_attr_pos <- pos;
    no_hit)
  else if id < aid then scan_impl_attrs m aid (pos + 2)
  else begin
    m.cb_attr_pos <- pos + 2;
    if m.config.compacted then Ram.peek m.cb (pos + 1)
    else read m m.cb (pos + 1)
  end

(* --- Local similarity datapath ------------------------------------------ *)

let local_similarity m rvalue supp cbvalue =
  if supp = no_hit || cbvalue = no_hit then (
    m.attrs_missing <- m.attrs_missing + 1;
    alu m 1;
    (* the Si := 0 transition of Fig. 6 *)
    Q.zero)
  else if m.config.use_divider then (
    m.attrs_matched <- m.attrs_matched + 1;
    alu m 1;
    let d = Q.abs_diff_int rvalue cbvalue in
    let dm1 = supp in
    if dm1 <= 0 then raise (Halt (Malformed_image "supplemental bounds inverted"));
    charge m Mac divider_cycles;
    alu m 1;
    let raw = ((d lsl 15) + (dm1 / 2)) / dm1 in
    let raw = if raw > Q.to_raw Q.max_value then Q.to_raw Q.max_value else raw in
    Q.complement_to_one (Q.of_raw_exn raw))
  else (
    m.attrs_matched <- m.attrs_matched + 1;
    alu m 1;
    (* ABS difference *)
    let d = Q.abs_diff_int rvalue cbvalue in
    mult m;
    (* d * (1+dmax)^-1 *)
    alu m 1;
    (* 1 - x *)
    Q.complement_to_one (Q.mul_int (Q.of_raw_exn supp) d))

(* --- One implementation ------------------------------------------------- *)

(* Accumulate the weighted local similarities of the request attributes
   from [req_pos] on. *)
let rec eval_attrs m req_pos acc =
  let aid = read m m.req req_pos in
  if aid = end_marker then acc
  else begin
    (* In compacted mode (value, weight) arrive as the second/third
       word: the pair port fetches (aid, value) together, weight
       separately. *)
    let rvalue =
      if m.config.compacted then Ram.peek m.req (req_pos + 1)
      else read m m.req (req_pos + 1)
    in
    let weight_raw = read m m.req (req_pos + 2) in
    if m.trace_on then
      emit_trace m "req-attr: id=%d value=%d w=%d" aid rvalue weight_raw;
    let supp =
      scan_supplemental m aid
        (if m.config.resume_scan then m.supp_pos else m.supplemental_base)
    in
    let cbvalue = scan_impl_attrs m aid m.cb_attr_pos in
    let local = local_similarity m rvalue supp cbvalue in
    mult m;
    (* Si * wi *)
    alu m 1;
    (* S := S + Si*wi *)
    let acc = Q.add acc (Q.mul local (Q.of_raw_exn weight_raw)) in
    sample m "local_s" (Q.to_raw local);
    sample m "acc" (Q.to_raw acc);
    if m.trace_on then
      emit_trace m "local: s=%d acc=%d" (Q.to_raw local) (Q.to_raw acc);
    eval_attrs m (req_pos + 3) acc
  end

let eval_impl m attr_base =
  m.cur_phase <- Attr_scan;
  m.cb_attr_pos <- attr_base;
  m.supp_pos <- m.supplemental_base;
  eval_attrs m 1 Q.zero

(* --- Keeping the result ------------------------------------------------- *)

let keep_best m impl_id score =
  alu m 1;
  (* S > Smax comparison *)
  if Q.to_raw score > m.best_raw then begin
    sample m "best_id" impl_id;
    sample m "best_score" (Q.to_raw score);
    if m.trace_on then
      emit_trace m "new best: impl %d score %d" impl_id (Q.to_raw score);
    m.best_id <- impl_id;
    m.best_raw <- Q.to_raw score
  end

(* Insert into the descending-sorted register file.  Entries with equal
   scores keep case-base order (the new candidate lands behind them),
   matching the strict greater-than comparator chain.  One ALU cycle
   per comparison actually performed. *)
let insert_ranked m k kept impl_id score =
  let rec place prefix = function
    | [] ->
        alu m 1;
        (* compared against the empty slot *)
        List.rev_append prefix [ (impl_id, score) ]
    | ((_, s) as entry) :: rest ->
        alu m 1;
        if Q.compare score s > 0 then
          List.rev_append prefix ((impl_id, score) :: entry :: rest)
        else place (entry :: prefix) rest
  in
  let inserted = place [] kept in
  if List.length inserted > k then List.filteri (fun i _ -> i < k) inserted
  else inserted

let rec walk_impls m select pos =
  m.cur_phase <- Tree_walk;
  let impl_id = read m m.cb pos in
  let attr_ptr = read_second m m.cb pos in
  if impl_id <> end_marker then begin
    m.impls_visited <- m.impls_visited + 1;
    let score = eval_impl m attr_ptr in
    (match select with
    | Best -> keep_best m impl_id score
    | Ranked k -> m.ranked <- insert_ranked m k m.ranked impl_id score);
    walk_impls m select (pos + 2)
  end

(* --- Top level ----------------------------------------------------------- *)

let exec_select select ~trace ~waveform m =
  reset m ~trace ~waveform;
  match
    let rtype = read m m.req 0 in
    walk_impls m select (scan_type_list m m.tree_base rtype);
    if m.impls_visited = 0 then raise (Halt (No_implementations rtype))
  with
  | () -> Ok ()
  | exception Halt e -> Error e

let exec ?(trace = false) ?(waveform = false) m =
  exec_select Best ~trace ~waveform m

let best_impl_id m = m.best_id
let best_score m = Q.of_raw_exn m.best_raw
let cycles m = m.cycles

let stats m =
  {
    cycles = m.cycles;
    cb_accesses = Ram.access_count m.cb;
    req_accesses = Ram.access_count m.req;
    mult_ops = m.mult_ops;
    alu_ops = m.alu_ops;
    impls_visited = m.impls_visited;
    attrs_matched = m.attrs_matched;
    attrs_missing = m.attrs_missing;
    phases = snapshot_phases m;
  }

let outcome m =
  {
    best_impl_id = m.best_id;
    best_score = best_score m;
    stats = stats m;
    trace = List.rev m.rev_trace;
    waveform = List.rev m.rev_samples;
  }

(* Caller-owned images are copied into RAMs of their own. *)
let of_image ?config (image : Memlayout.system_image) =
  load ?config ~tree_base:image.tree_base ~cb:(Ram.of_array image.cb_mem)
    ~req:(Ram.of_array image.req_mem)
    ~supplemental_base:image.supplemental_base ()

let run ?config ?trace ?waveform image =
  let m = of_image ?config image in
  Result.map (fun () -> outcome m) (exec ?trace ?waveform m)

let retrieve ?config ?trace ?waveform casebase request =
  match Memlayout.build_system casebase request with
  | Error m -> Error (Malformed_image m)
  | Ok image -> run ?config ?trace ?waveform image

let retrieve_stream ?config casebase requests =
  match Memlayout.load_cb casebase with
  | Error m -> Error m
  | Ok (cb, supplemental_base) ->
      let req = Ram.blank () in
      let m = load ?config ~cb ~req ~supplemental_base () in
      Ok
        (List.map
           (fun request ->
             match Memlayout.write_request req request with
             | Error msg -> Error (Malformed_image msg)
             | Ok () -> Result.map (fun () -> outcome m) (exec m))
           requests)

(* --- N-most-similar retrieval (Sec. 5 extension) ------------------------- *)

type nbest_outcome = {
  ranked : (int * Fxp.Q15.t) list;
  nbest_stats : stats;
  nbest_trace : string list;
}

let run_nbest ?config ?(trace = false) ~k image =
  if k < 1 then invalid_arg "Machine.run_nbest: k must be at least 1"
  else
    let m = of_image ?config image in
    Result.map
      (fun () ->
        {
          ranked = m.ranked;
          nbest_stats = stats m;
          nbest_trace = List.rev m.rev_trace;
        })
      (exec_select (Ranked k) ~trace ~waveform:false m)

let retrieve_nbest ?config ?trace ~k casebase request =
  match Memlayout.build_system casebase request with
  | Error m -> Error (Malformed_image m)
  | Ok image -> run_nbest ?config ?trace ~k image
