type constr = { attr : Attr.id; value : Attr.value; weight : float }

type t = { type_id : int; constraints : constr list }

let rec check_unique = function
  | [] | [ _ ] -> Ok ()
  | a :: (b :: _ as rest) ->
      if a.attr = b.attr then
        Error (Printf.sprintf "duplicate constraint on attribute %d" a.attr)
      else check_unique rest

let make ~type_id triples =
  if type_id <= 0 || type_id > Attr.max_word then
    Error
      (Printf.sprintf "function-type id %d outside (0, %d]" type_id
         Attr.max_word)
  else
    let bad =
      List.find_opt
        (fun (aid, v, w) ->
          aid <= 0 || aid > Attr.max_word || v < 0 || v > Attr.max_word
          || (not (Float.is_finite w))
          || w <= 0.0)
        triples
    in
    match bad with
    | Some (aid, v, w) ->
        Error
          (Printf.sprintf "constraint (attr %d, value %d, weight %g) invalid"
             aid v w)
    | None ->
        let constraints =
          triples
          |> List.map (fun (attr, value, weight) -> { attr; value; weight })
          |> List.sort (fun a b -> Int.compare a.attr b.attr)
        in
        Result.map
          (fun () -> { type_id; constraints })
          (check_unique constraints)

(* Rebuild [constraints] with [values.(i)] as the [i]-th value; written
   as a top-level function so the per-call cost is the new list alone. *)
let rec revalue values i = function
  | [] -> []
  | c :: rest ->
      let value = Array.unsafe_get values i in
      if value < 0 || value > Attr.max_word then
        invalid_arg
          (Printf.sprintf "Request.replace_values: value %d on attribute %d \
                           outside [0, %d]"
             value c.attr Attr.max_word)
      else { c with value } :: revalue values (i + 1) rest

let replace_values t values =
  if Array.length values <> List.length t.constraints then
    invalid_arg "Request.replace_values: one value per constraint required"
  else { t with constraints = revalue values 0 t.constraints }

let equal_weights ~type_id pairs =
  make ~type_id (List.map (fun (aid, v) -> (aid, v, 1.0)) pairs)

let normalized_weights t =
  let total = List.fold_left (fun acc c -> acc +. c.weight) 0.0 t.constraints in
  if total <= 0.0 then []
  else List.map (fun c -> (c.attr, c.value, c.weight /. total)) t.constraints

let find t aid = List.find_opt (fun c -> c.attr = aid) t.constraints
let constraint_count t = List.length t.constraints

let drop_constraint t aid =
  { t with constraints = List.filter (fun c -> c.attr <> aid) t.constraints }

let update t aid f =
  match find t aid with
  | None -> Error (Printf.sprintf "request has no constraint on attribute %d" aid)
  | Some _ ->
      let triples =
        List.map
          (fun c ->
            let c = if c.attr = aid then f c else c in
            (c.attr, c.value, c.weight))
          t.constraints
      in
      make ~type_id:t.type_id triples

let reweight t aid weight = update t aid (fun c -> { c with weight })
let with_value t aid value = update t aid (fun c -> { c with value })

let equal a b =
  a.type_id = b.type_id
  && List.equal
       (fun x y ->
         x.attr = y.attr && x.value = y.value && Float.equal x.weight y.weight)
       a.constraints b.constraints

let pp ppf t =
  Format.fprintf ppf "@[request type=%d%a@]" t.type_id
    (Format.pp_print_list ~pp_sep:(fun _ () -> ()) (fun ppf c ->
         Format.fprintf ppf " %d=%d(w=%g)" c.attr c.value c.weight))
    t.constraints
