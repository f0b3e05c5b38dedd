open Qos_core

let end_marker = 0xFFFF
let max_value_word = 0xFFFE
let address_space = 0x10000

module Ram = struct
  (* [words] is mutable only so {!write_request} can grow a Req-MEM. *)
  type t = { mutable words : int array; mutable accesses : int }

  let of_array words =
    Array.iter
      (fun w ->
        if w < 0 || w > end_marker then
          invalid_arg (Printf.sprintf "Ram.of_array: word %d out of range" w))
      words;
    { words = Array.copy words; accesses = 0 }

  let blank () = { words = [| end_marker |]; accesses = 0 }

  let size t = Array.length t.words

  let read t addr =
    if addr < 0 || addr >= Array.length t.words then
      invalid_arg (Printf.sprintf "Ram.read: address %d out of bounds" addr)
    else (
      t.accesses <- t.accesses + 1;
      t.words.(addr))

  let peek t addr =
    if addr < 0 || addr >= Array.length t.words then
      invalid_arg (Printf.sprintf "Ram.peek: address %d out of bounds" addr)
    else t.words.(addr)

  let access_count t = t.accesses
  let reset_access_count t = t.accesses <- 0
  let to_array t = Array.copy t.words
end

type tree_layout = {
  words : int array;
  type_directory : (int * int) list;
  impl_directory : ((int * int) * int) list;
}

type decoded_request = {
  req_type_id : int;
  req_constraints : (int * int * int) list;
}

type decoded_supplemental = (int * int * int * int) list

type decoded_tree = (int * (int * (int * int) list) list) list

let ( let* ) = Result.bind

let encodable v = v >= 0 && v <= max_value_word

let refusal what v =
  Printf.sprintf "%s %d collides with the end marker or is negative" what v

let check_value what v = if encodable v then Ok v else Error (refusal what v)

(* --- Request list ------------------------------------------------------ *)

let encode_request (r : Request.t) =
  let normalized = Request.normalized_weights r in
  let* () =
    List.fold_left
      (fun acc (aid, v, _) ->
        let* () = acc in
        let* _ = check_value "request attribute id" aid in
        let* _ = check_value "request attribute value" v in
        Ok ())
      (Ok ()) normalized
  in
  let words =
    r.Request.type_id
    :: List.concat_map
         (fun (aid, v, w) -> [ aid; v; Fxp.Q15.to_raw (Fxp.Q15.of_float w) ])
         normalized
    @ [ end_marker ]
  in
  Ok (Array.of_list words)

(* [encode_request]'s refusals, in its order, without a list or an [Ok]
   box per word. *)
let rec check_constraints = function
  | [] -> Ok ()
  | (c : Request.constr) :: rest ->
      if not (encodable c.attr) then
        Error (refusal "request attribute id" c.attr)
      else if not (encodable c.value) then
        Error (refusal "request attribute value" c.value)
      else check_constraints rest

let write_request (ram : Ram.t) (r : Request.t) =
  (* [Request.normalized_weights] inline: the same left-to-right sum and
     per-constraint division, so the Q15 weights are bit-identical. *)
  let constrs = r.Request.constraints in
  let count = List.length constrs in
  let total = ref 0.0 and rest = ref constrs in
  for _ = 1 to count do
    total := !total +. (List.hd !rest).Request.weight;
    rest := List.tl !rest
  done;
  let total = !total in
  let n = if total <= 0.0 then 0 else count in
  match if n = 0 then Ok () else check_constraints constrs with
  | Error _ as e -> e
  | Ok () ->
      let len = (3 * n) + 2 in
      if Array.length ram.words < len then
        ram.words <- Array.make len end_marker;
      let w = ram.words in
      w.(0) <- r.Request.type_id;
      let rest = ref constrs in
      for i = 0 to n - 1 do
        let c = List.hd !rest and q15 = Fxp.Q15.of_float in
        w.((3 * i) + 1) <- c.Request.attr;
        w.((3 * i) + 2) <- c.Request.value;
        w.((3 * i) + 3) <- Fxp.Q15.to_raw (q15 (c.Request.weight /. total));
        rest := List.tl !rest
      done;
      (* The end marker, and clear what a longer request left behind. *)
      Array.fill w ((3 * n) + 1) (Array.length w - (3 * n) - 1) end_marker;
      Ok ()

let decode_request words =
  let n = Array.length words in
  if n < 2 then Error "request image too short"
  else
    let req_type_id = words.(0) in
    let rec loop i acc =
      if i >= n then Error "request image lacks an end marker"
      else if words.(i) = end_marker then Ok (List.rev acc)
      else if i + 2 >= n then Error "truncated request attribute block"
      else loop (i + 3) ((words.(i), words.(i + 1), words.(i + 2)) :: acc)
    in
    let* req_constraints = loop 1 [] in
    Ok { req_type_id; req_constraints }

(* --- Supplemental list -------------------------------------------------- *)

let encode_supplemental schema =
  let* blocks =
    List.fold_left
      (fun acc (d : Attr.descriptor) ->
        let* rev = acc in
        let* _ = check_value "supplemental attribute id" d.id in
        let* _ = check_value "supplemental lower bound" d.lower in
        let* _ = check_value "supplemental upper bound" d.upper in
        let recip = Fxp.Q15.to_raw (Fxp.Q15.recip_succ (Attr.dmax d)) in
        Ok ([ d.id; d.lower; d.upper; recip ] :: rev))
      (Ok []) (Attr.Schema.descriptors schema)
  in
  Ok (Array.of_list (List.concat (List.rev blocks) @ [ end_marker ]))

let decode_supplemental words =
  let n = Array.length words in
  let rec loop i acc =
    if i >= n then Error "supplemental image lacks an end marker"
    else if words.(i) = end_marker then Ok (List.rev acc)
    else if i + 3 >= n then Error "truncated supplemental block"
    else
      loop (i + 4)
        ((words.(i), words.(i + 1), words.(i + 2), words.(i + 3)) :: acc)
  in
  loop 0 []

(* --- Implementation tree ------------------------------------------------ *)

(* Address plan: level-0 list at 0, then each type's level-1 list in type
   order, then every level-2 attribute list in (type, impl) order.  All
   sizes are known up front, so pointers are computed in one pass. *)
let encode_tree (cb : Casebase.t) =
  let types = cb.ftypes in
  let level0_size = (2 * List.length types) + 1 in
  let level1_size (ft : Ftype.t) = (2 * List.length ft.impls) + 1 in
  let level2_size (impl : Impl.t) = (2 * Impl.attr_count impl) + 1 in
  let level1_total =
    List.fold_left (fun acc ft -> acc + level1_size ft) 0 types
  in
  (* Assign level-1 base addresses per type. *)
  let _, type_dir_rev =
    List.fold_left
      (fun (addr, acc) (ft : Ftype.t) ->
        (addr + level1_size ft, (ft.id, addr) :: acc))
      (level0_size, []) types
  in
  let type_directory = List.rev type_dir_rev in
  (* Assign level-2 base addresses per (type, impl). *)
  let total, impl_dir_rev =
    List.fold_left
      (fun (addr, acc) (ft : Ftype.t) ->
        List.fold_left
          (fun (addr, acc) (impl : Impl.t) ->
            (addr + level2_size impl, ((ft.id, impl.id), addr) :: acc))
          (addr, acc) ft.impls)
      (level0_size + level1_total, [])
      types
  in
  let impl_directory = List.rev impl_dir_rev in
  if total > address_space then
    Error
      (Printf.sprintf "tree image needs %d words, exceeding the 16-bit address space" total)
  else
    (* Hash the directories for O(1) pointer lookups while emitting. *)
    let type_dir_tbl = Hashtbl.create 16 in
    List.iter (fun (id, addr) -> Hashtbl.replace type_dir_tbl id addr) type_directory;
    let impl_dir_tbl = Hashtbl.create 64 in
    List.iter
      (fun (key, addr) -> Hashtbl.replace impl_dir_tbl key addr)
      impl_directory;
    let words = Array.make total end_marker in
    let pos = ref 0 in
    let emit w =
      words.(!pos) <- w;
      incr pos
    in
    let* () =
      (* Level 0. *)
      let* () =
        List.fold_left
          (fun acc (ft : Ftype.t) ->
            let* () = acc in
            let* _ = check_value "function-type id" ft.id in
            emit ft.id;
            emit (Hashtbl.find type_dir_tbl ft.id);
            Ok ())
          (Ok ()) types
      in
      emit end_marker;
      (* Level 1, per type. *)
      let* () =
        List.fold_left
          (fun acc (ft : Ftype.t) ->
            let* () = acc in
            let* () =
              List.fold_left
                (fun acc (impl : Impl.t) ->
                  let* () = acc in
                  let* _ = check_value "implementation id" impl.id in
                  emit impl.id;
                  emit (Hashtbl.find impl_dir_tbl (ft.id, impl.id));
                  Ok ())
                (Ok ()) ft.impls
            in
            emit end_marker;
            Ok ())
          (Ok ()) types
      in
      (* Level 2, per (type, impl). *)
      List.fold_left
        (fun acc (ft : Ftype.t) ->
          let* () = acc in
          List.fold_left
            (fun acc (impl : Impl.t) ->
              let* () = acc in
              let* () =
                List.fold_left
                  (fun acc (aid, v) ->
                    let* () = acc in
                    let* _ = check_value "attribute id" aid in
                    let* _ = check_value "attribute value" v in
                    emit aid;
                    emit v;
                    Ok ())
                  (Ok ()) impl.attrs
              in
              emit end_marker;
              Ok ())
            (Ok ()) ft.impls)
        (Ok ()) types
    in
    assert (!pos = total);
    Ok { words; type_directory; impl_directory }

(* The END-terminated pair list of a tree image starting at [start]. *)
let read_pairs words start =
  let n = Array.length words in
  let rec loop i acc =
    if i >= n then Error "tree list lacks an end marker"
    else if words.(i) = end_marker then Ok (List.rev acc)
    else if i + 1 >= n then Error "truncated tree pair"
    else loop (i + 2) ((words.(i), words.(i + 1)) :: acc)
  in
  loop start []

let decode_tree words =
  let read_pairs = read_pairs words in
  let* level0 = read_pairs 0 in
  List.fold_left
    (fun acc (type_id, l1_ptr) ->
      let* rev_types = acc in
      let* level1 = read_pairs l1_ptr in
      let* impls =
        List.fold_left
          (fun acc (impl_id, l2_ptr) ->
            let* rev_impls = acc in
            let* attrs = read_pairs l2_ptr in
            Ok ((impl_id, attrs) :: rev_impls))
          (Ok []) level1
      in
      Ok ((type_id, List.rev impls) :: rev_types))
    (Ok []) level0
  |> Result.map List.rev

(* --- System image ------------------------------------------------------- *)

type system_image = {
  cb_mem : int array;
  req_mem : int array;
  tree_base : int;
  supplemental_base : int;
  layout : tree_layout;
}

type cb_image = {
  cb_words : int array;
  cb_supplemental_base : int;
  cb_layout : tree_layout;
}

let encode_cb cb =
  let* layout = encode_tree cb in
  let* supplemental = encode_supplemental cb.Casebase.schema in
  let tree_words = Array.length layout.words in
  let cb_words = Array.append layout.words supplemental in
  if Array.length cb_words > address_space then
    Error "combined CB-MEM image exceeds the 16-bit address space"
  else
    Ok { cb_words; cb_supplemental_base = tree_words; cb_layout = layout }

(* The words are in range by construction: every stored id and value
   passed [check_value], pointers are below [address_space] and the
   reciprocals are Q15.  So the RAM is built over the fresh array, with
   no copy and no range scan, and the array goes nowhere else. *)
let load_cb cb =
  let* image = encode_cb cb in
  Ok ({ Ram.words = image.cb_words; accesses = 0 }, image.cb_supplemental_base)

let attach_request image request =
  let* req_mem = encode_request request in
  Ok
    {
      cb_mem = image.cb_words;
      req_mem;
      tree_base = 0;
      supplemental_base = image.cb_supplemental_base;
      layout = image.cb_layout;
    }

let build_system cb request =
  let* image = encode_cb cb in
  attach_request image request

let reconstruct_system ~cb_mem ~req_mem ~supplemental_base =
  if supplemental_base <= 0 || supplemental_base > Array.length cb_mem then
    Error "supplemental base outside the CB-MEM image"
  else
    let tree_words = Array.sub cb_mem 0 supplemental_base in
    let supplemental =
      Array.sub cb_mem supplemental_base
        (Array.length cb_mem - supplemental_base)
    in
    (* Validate all three structures by decoding them. *)
    let* _ = decode_tree tree_words in
    let* _ = decode_supplemental supplemental in
    let* _ = decode_request req_mem in
    (* Re-derive the directories by walking the pointer lists. *)
    let read_pairs = read_pairs tree_words in
    let* level0 = read_pairs 0 in
    let* impl_dir_rev =
      List.fold_left
        (fun acc (type_id, l1_ptr) ->
          let* rev = acc in
          let* level1 = read_pairs l1_ptr in
          Ok
            (List.fold_left
               (fun rev (impl_id, l2_ptr) ->
                 (((type_id, impl_id), l2_ptr) :: rev))
               rev level1))
        (Ok []) level0
    in
    Ok
      {
        cb_mem = Array.copy cb_mem;
        req_mem = Array.copy req_mem;
        tree_base = 0;
        supplemental_base;
        layout =
          {
            words = tree_words;
            type_directory = level0;
            impl_directory = List.rev impl_dir_rev;
          };
      }

(* --- Accounting (Table 3) ----------------------------------------------- *)

type accounting = {
  request_words : int;
  supplemental_words : int;
  tree_level0_words : int;
  tree_level1_words : int;
  tree_level2_words : int;
  tree_total_words : int;
}

let account cb request =
  let* layout = encode_tree cb in
  let* supplemental = encode_supplemental cb.Casebase.schema in
  let* req = encode_request request in
  let types = cb.Casebase.ftypes in
  let level0 = (2 * List.length types) + 1 in
  let level1 =
    List.fold_left
      (fun acc (ft : Ftype.t) -> acc + (2 * List.length ft.Ftype.impls) + 1)
      0 types
  in
  let total = Array.length layout.words in
  Ok
    {
      request_words = Array.length req;
      supplemental_words = Array.length supplemental;
      tree_level0_words = level0;
      tree_level1_words = level1;
      tree_level2_words = total - level0 - level1;
      tree_total_words = total;
    }

let bytes_of_words w = 2 * w

let worst_case_tree_words ~types ~impls_per_type ~attrs_per_impl
    ~include_end_markers ~include_pointers =
  let marker n = if include_end_markers then n else 0 in
  let pointer n = if include_pointers then n else 0 in
  let level0 = types + pointer types + marker 1 in
  let level1 = types * (impls_per_type + pointer impls_per_type + marker 1) in
  let level2 = types * impls_per_type * ((2 * attrs_per_impl) + marker 1) in
  level0 + level1 + level2

let worst_case_request_words ~attrs_per_request ~include_end_marker =
  1 + (3 * attrs_per_request) + if include_end_marker then 1 else 0

let pp_accounting ppf a =
  Format.fprintf ppf
    "request=%dw supplemental=%dw tree=%dw (l0=%d l1=%d l2=%d) total=%d bytes"
    a.request_words a.supplemental_words a.tree_total_words a.tree_level0_words
    a.tree_level1_words a.tree_level2_words
    (bytes_of_words
       (a.request_words + a.supplemental_words + a.tree_total_words))

(* Fletcher-16 over the 16-bit words, widened so the scrubber can
   compare full images in O(n) without rescanning structure.  The
   implementation lives in [Qos_core.Util] so the faults scrubber and
   this module share one copy. *)
let checksum = Qos_core.Util.fletcher16
