type ranked = float Retrieval.ranked

let[@inline] clamp01 x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x

(* Equation (1) as [Similarity.local] computes it, repeated here so it
   inlines into the scoring loop rather than returning a boxed float per
   attribute. *)
let[@inline] local ~dmax a b =
  if dmax < 0 then invalid_arg "Similarity.local: negative dmax"
  else
    let d = float_of_int (abs (a - b)) in
    clamp01 (1.0 -. (d /. (1.0 +. float_of_int dmax)))

(* [Attr.Schema.dmax_or]'s answer for an attribute the schema lacks; a
   real dmax is [upper - lower] of two word values, never this. *)
let absent = min_int

(* Drop the variant's attributes below [aid]: the resume scan of
   Sec. 4.1, both lists being sorted by attribute ID. *)
let rec skip_below aid = function
  | (id, _) :: rest when id < aid -> skip_below aid rest
  | attrs -> attrs

(* [Similarity.amalgamate kind] over the [(w /. total, local)] pairs of
   [Request.normalized_weights], folded in place during one merge walk
   of the request's and the variant's attribute lists.  The sum, the
   divisions, the fold order and the final [clamp01] are the ones that
   building the pairs and folding them performs, so every score is
   bit-identical to it; nothing here allocates. *)
let[@inline] score kind schema (request : Request.t) (impl : Impl.t) =
  let total = ref 0.0 and cs = ref request.constraints in
  while !cs != [] do
    match !cs with
    | [] -> ()
    | c :: rest ->
        total := !total +. c.Request.weight;
        cs := rest
  done;
  let total = !total in
  (* No pairs (no constraints): [amalgamate] of the empty list. *)
  if total <= 0.0 then 0.0
  else begin
    let acc =
      ref
        (match kind with
        | Similarity.Weighted_sum | Similarity.Maximum -> 0.0
        | Similarity.Minimum | Similarity.Weighted_geometric -> 1.0)
    in
    let attrs = ref impl.Impl.attrs in
    cs := request.constraints;
    while !cs != [] do
      match !cs with
      | [] -> ()
      | c :: rest ->
          cs := rest;
          let aid = c.Request.attr in
          attrs := skip_below aid !attrs;
          let s =
            match !attrs with
            | (id, cvalue) :: _ when id = aid ->
                let dmax = Attr.Schema.dmax_or schema aid ~default:absent in
                if dmax = absent then Similarity.local_missing
                else local ~dmax c.Request.value cvalue
            | _ -> Similarity.local_missing
          in
          let w = c.Request.weight /. total in
          acc :=
            match kind with
            | Similarity.Weighted_sum -> !acc +. (w *. s)
            | Similarity.Minimum -> Float.min !acc s
            | Similarity.Maximum -> Float.max !acc s
            | Similarity.Weighted_geometric ->
                if s <= 0.0 then 0.0 else !acc *. (s ** w)
    done;
    match kind with
    | Similarity.Weighted_sum | Similarity.Weighted_geometric -> clamp01 !acc
    | Similarity.Minimum | Similarity.Maximum -> !acc
  end

let score_impl ?(amalgamation = Similarity.Weighted_sum) schema request impl =
  score amalgamation schema request impl

(* The [n] best variants of [impls] in the order a stable descending
   sort by score gives: a variant goes ahead of an earlier one only on a
   strictly greater score, so ties keep case-base order, matching the
   hardware's strict greater-than best-register update.  The best
   [min n k] so far sit in two arrays, scores unboxed; a variant
   that does not make the cut allocates nothing. *)
let top kind schema request ~n (impls : Impl.t list) =
  let m = max 0 (min n (List.length impls)) in
  match impls with
  | [] -> []
  | first :: _ ->
      let kept = Array.make m first and scores = Array.make m 0.0 in
      let filled = ref 0 and rest = ref impls in
      while !rest != [] do
        match !rest with
        | [] -> ()
        | impl :: tl ->
            rest := tl;
            let s = score kind schema request impl in
            let j = ref !filled in
            while !j > 0 && Float.compare s scores.(!j - 1) > 0 do
              decr j
            done;
            if !j < m then begin
              if !filled < m then incr filled;
              for k = !filled - 1 downto !j + 1 do
                kept.(k) <- kept.(k - 1);
                scores.(k) <- scores.(k - 1)
              done;
              kept.(!j) <- impl;
              scores.(!j) <- s
            end
      done;
      let ranked = ref [] in
      for k = !filled - 1 downto 0 do
        ranked := { Retrieval.impl = kept.(k); score = scores.(k) } :: !ranked
      done;
      !ranked

let n_best ?(amalgamation = Similarity.Weighted_sum) ~n casebase
    (request : Request.t) =
  match Casebase.find_type casebase request.type_id with
  | None -> Error (Retrieval.Unknown_type request.type_id)
  | Some { Ftype.impls = []; _ } ->
      Error (Retrieval.No_implementations request.type_id)
  | Some ft -> Ok (top amalgamation casebase.schema request ~n ft.Ftype.impls)

let rank_all ?amalgamation casebase request =
  n_best ?amalgamation ~n:max_int casebase request

let best ?amalgamation casebase request =
  Result.bind (n_best ?amalgamation ~n:1 casebase request) (function
    | [] -> Error (Retrieval.No_implementations request.Request.type_id)
    | top :: _ -> Ok top)

let above_threshold ?amalgamation ~threshold casebase request =
  Result.map
    (List.filter (fun r -> r.Retrieval.score >= threshold))
    (rank_all ?amalgamation casebase request)
