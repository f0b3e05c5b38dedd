module E = Qos_core.Engine
module Request = Qos_core.Request
module Q = Fxp.Q15

let end_marker = Memlayout.end_marker
let q15_one = Q.to_raw Q.one
let q15_half = Q.to_raw Q.half
let raw_max = 65535

(* One function type's kernel inputs: the variant IDs and the word
   addresses of their ID-sorted level-2 attribute lists, both in image
   order (the hardware's strict greater-than best update makes the
   first maximum win, so order matters). *)
type ctype = { impl_ids : int array; impl_addrs : int array }

type t = {
  words : int array;  (* the elaborated CB-MEM ROM image *)
  types : (int, ctype) Hashtbl.t;
  supp_ids : int array;  (* ascending attribute IDs *)
  supp_recips : int array;  (* raw Q15 reciprocals, same order *)
  (* Per-request kernel inputs, one slot per constraint, grown on
     demand and reused by every retrieval over this [t]. *)
  mutable c_id : int array;
  mutable c_val : int array;
  mutable c_w : int array;
  mutable c_recip : int array;
}

let bram_image t = Array.copy t.words

(* Walk an END-terminated list of (a, b) word pairs. *)
let walk_pairs words addr =
  let rec go addr acc =
    if addr >= Array.length words || words.(addr) = end_marker then
      List.rev acc
    else go (addr + 2) ((words.(addr), words.(addr + 1)) :: acc)
  in
  go addr []

let compile_supplemental words base =
  let rec go addr acc =
    if addr >= Array.length words || words.(addr) = end_marker then
      List.rev acc
    else if addr + 3 >= Array.length words then
      Error "truncated supplemental block" :: []
    else go (addr + 4) (Ok (words.(addr), words.(addr + 3)) :: acc)
  in
  let blocks = go base [] in
  match List.find_opt Result.is_error blocks with
  | Some (Error e) -> Error e
  | _ ->
      let pairs = List.map Result.get_ok blocks in
      let ids = Array.of_list (List.map fst pairs) in
      let sorted = ref true in
      Array.iteri (fun i id -> if i > 0 && id <= ids.(i - 1) then sorted := false) ids;
      if not !sorted then Error "supplemental list is not ID-sorted"
      else Ok (ids, Array.of_list (List.map snd pairs))

let of_casebase cb =
  match Memlayout.encode_cb cb with
  | Error e -> Error e
  | Ok image -> (
      (* Round-trip the image through the elaborator: the kernels are
         compiled from the ROM module's own words, i.e. from the same
         IR that the VHDL printer and the netlist simulator consume. *)
      match Elaborate.rom_module ~name:"qos_cb_rom" ~words:image.Memlayout.cb_words with
      | Error e -> Error ("elaborate: " ^ e)
      | Ok rom -> (
          let rom_words =
            List.find_map
              (function Ir.Rom { rwords; _ } -> Some rwords | _ -> None)
              rom.Ir.cells
          in
          match rom_words with
          | None -> Error "elaborated ROM module has no Rom cell"
          | Some words ->
              if words <> image.Memlayout.cb_words then
                Error "IR ROM image diverges from the Memlayout encoding"
              else
                let layout = image.Memlayout.cb_layout in
                let types = Hashtbl.create 16 in
                List.iter
                  (fun (type_id, l1_addr) ->
                    let impls = walk_pairs words l1_addr in
                    Hashtbl.replace types type_id
                      {
                        impl_ids = Array.of_list (List.map fst impls);
                        impl_addrs = Array.of_list (List.map snd impls);
                      })
                  layout.Memlayout.type_directory;
                Result.map
                  (fun (supp_ids, supp_recips) ->
                    {
                      words = Array.copy words;
                      types;
                      supp_ids;
                      supp_recips;
                      c_id = [||];
                      c_val = [||];
                      c_w = [||];
                      c_recip = [||];
                    })
                  (compile_supplemental words image.Memlayout.cb_supplemental_base)))

let recip_of t aid =
  let lo = ref 0 and hi = ref (Array.length t.supp_ids - 1) in
  let found = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let v = t.supp_ids.(mid) in
    if v = aid then begin
      found := t.supp_recips.(mid);
      lo := !hi + 1
    end
    else if v < aid then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* The straight-line similarity kernel: one resume scan down the
   variant's ID-sorted level-2 list, inline Q15 arithmetic identical
   to Fxp.Q15 (mul_int/complement_to_one/mul/add with saturation and
   round-to-nearest). *)
let score_impl words start n c_id c_val c_w c_recip ~sorted =
  let acc = ref 0 in
  let p = ref start in
  for i = 0 to n - 1 do
    if not sorted then p := start;
    let aid = Array.unsafe_get c_id i in
    while
      Array.unsafe_get words !p <> end_marker
      && Array.unsafe_get words !p < aid
    do
      p := !p + 2
    done;
    let recip = Array.unsafe_get c_recip i in
    let local =
      if recip < 0 || Array.unsafe_get words !p <> aid then 0
      else begin
        let d = abs (Array.unsafe_get c_val i - Array.unsafe_get words (!p + 1)) in
        let m = recip * d in
        let m = if m > raw_max then raw_max else m in
        if m >= q15_one then 0 else q15_one - m
      end
    in
    let contrib = (local * Array.unsafe_get c_w i + q15_half) lsr 15 in
    let contrib = if contrib > raw_max then raw_max else contrib in
    let sum = !acc + contrib in
    acc := if sum > raw_max then raw_max else sum
  done;
  !acc

let retrieve t (request : Request.t) =
  match Hashtbl.find t.types request.Request.type_id with
  | exception Not_found -> Error (E.Unknown_type request.Request.type_id)
  | ct when Array.length ct.impl_ids = 0 ->
      Error (E.No_implementations request.Request.type_id)
  | ct ->
      (* [Request.normalized_weights] inline: the same left-to-right
         sum and per-constraint division, so the Q15 weights are
         bit-identical, without building the intermediate list. *)
      let constrs = request.Request.constraints in
      let count = List.length constrs in
      let total = ref 0.0 and rest = ref constrs in
      for _ = 1 to count do
        total := !total +. (List.hd !rest).Request.weight;
        rest := List.tl !rest
      done;
      let total = !total in
      let n = if total <= 0.0 then 0 else count in
      if Array.length t.c_id < n then begin
        t.c_id <- Array.make n 0;
        t.c_val <- Array.make n 0;
        t.c_w <- Array.make n 0;
        t.c_recip <- Array.make n 0
      end;
      let c_id = t.c_id and c_val = t.c_val and c_w = t.c_w in
      let c_recip = t.c_recip in
      let rest = ref constrs in
      for i = 0 to n - 1 do
        let c = List.hd !rest in
        c_id.(i) <- c.Request.attr;
        c_val.(i) <- c.Request.value;
        c_w.(i) <- Q.to_raw (Q.of_float (c.Request.weight /. total));
        c_recip.(i) <- recip_of t c.Request.attr;
        rest := List.tl !rest
      done;
      let sorted = ref true in
      for i = 1 to n - 1 do
        if c_id.(i) < c_id.(i - 1) then sorted := false
      done;
      let best = ref (-1) and best_id = ref 0 in
      for k = 0 to Array.length ct.impl_ids - 1 do
        let s =
          score_impl t.words ct.impl_addrs.(k) n c_id c_val c_w c_recip
            ~sorted:!sorted
        in
        if s > !best then begin
          best := s;
          best_id := ct.impl_ids.(k)
        end
      done;
      Ok
        {
          E.impl_id = !best_id;
          score = Q.of_raw_exn !best;
          cycles = None;
        }

let engine t =
  let retrieve = retrieve t in
  {
    E.name = "native";
    caps = { E.bit_accurate = true; reports_cycles = false };
    retrieve;
    retrieve_batch = E.batch_of_single retrieve;
    phase_cycles = None;
  }

let factory cb = Result.map engine (of_casebase cb)
