open Qos_core

let quantise w = Fxp.Q15.to_raw (Fxp.Q15.of_float w)

(* The sum [Request.normalized_weights] divides by, in its order. *)
let[@inline] weight_total (r : Request.t) =
  let total = ref 0.0 and cs = ref r.constraints in
  while !cs != [] do
    match !cs with
    | [] -> ()
    | c :: rest ->
        total := !total +. c.Request.weight;
        cs := rest
  done;
  !total

(* These walk the constraints in place of [Request.normalized_weights]'
   triples, which are empty when the weight total is [<= 0]. *)
let rec triples total = function
  | [] -> []
  | (c : Request.constr) :: cs ->
      (c.attr, c.value, quantise (c.weight /. total)) :: triples total cs

let signature (r : Request.t) =
  let total = weight_total r in
  if total <= 0.0 then [] else triples total r.constraints

let fingerprint (r : Request.t) =
  let total = weight_total r in
  let h = ref (r.type_id * 1000003) in
  if not (total <= 0.0) then begin
    let cs = ref r.constraints in
    while !cs != [] do
      match !cs with
      | [] -> ()
      | c :: rest ->
          cs := rest;
          h := (!h * 1000003) lxor c.Request.attr;
          h := (!h * 1000003) lxor c.Request.value;
          h := (!h * 1000003) lxor quantise (c.Request.weight /. total)
    done
  end;
  !h land max_int

let rec same_triples total signature (cs : Request.constr list) =
  match (signature, cs) with
  | [], [] -> true
  | (aid, v, w) :: signature, c :: cs ->
      aid = c.attr && v = c.value
      && w = quantise (c.weight /. total)
      && same_triples total signature cs
  | _ :: _, [] | [], _ :: _ -> false

let has_signature signature (r : Request.t) =
  let total = weight_total r in
  if total <= 0.0 then signature = []
  else same_triples total signature r.constraints

(* The token the table is addressed by (what the hardware would hold in
   a CAM word) is only the 62-bit fingerprint; the request rides along
   in [key] so hits can be verified against the stored signature
   instead of trusted. *)
type token = { tok_app : string; tok_type : int; tok_fp : int }
type key = { token : token; request : Request.t }

let key_of ?fingerprint:fp ~app_id (r : Request.t) =
  let fingerprint = match fp with Some f -> f r | None -> fingerprint r in
  {
    token = { tok_app = app_id; tok_type = r.type_id; tok_fp = fingerprint };
    request = r;
  }

type entry = { e_signature : (int * int * int) list; e_impl : int }

type t = {
  table : (token, entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable verified_misses : int;
  mutable invalidations : int;
}

let create () =
  {
    table = Hashtbl.create 64;
    hits = 0;
    misses = 0;
    verified_misses = 0;
    invalidations = 0;
  }

let lookup t key =
  match Hashtbl.find t.table key.token with
  | e when has_signature e.e_signature key.request ->
      t.hits <- t.hits + 1;
      Some e.e_impl
  | _ ->
      (* Fingerprint matched but the stored constraints differ: a hash
         collision between two distinct requests.  Returning the stored
         variant here would silently violate the caller's QoS. *)
      t.verified_misses <- t.verified_misses + 1;
      None
  | exception Not_found ->
      t.misses <- t.misses + 1;
      None

let peek t key =
  match Hashtbl.find t.table key.token with
  | e when has_signature e.e_signature key.request -> Some e.e_impl
  | _ | (exception Not_found) -> None

let remember t key ~impl_id =
  Hashtbl.replace t.table key.token
    { e_signature = signature key.request; e_impl = impl_id }

let rec drop t n = function
  | [] ->
      t.invalidations <- t.invalidations + n;
      n
  | tok :: rest ->
      Hashtbl.remove t.table tok;
      drop t (n + 1) rest

let invalidate_impl t ~type_id ~impl_id =
  drop t 0
    (Hashtbl.fold
       (fun tok entry victims ->
         if tok.tok_type = type_id && entry.e_impl = impl_id then tok :: victims
         else victims)
       t.table [])

let invalidate_app t ~app_id =
  drop t 0
    (Hashtbl.fold
       (fun tok _ victims ->
         if String.equal tok.tok_app app_id then tok :: victims else victims)
       t.table [])

type stats = {
  hits : int;
  misses : int;
  verified_misses : int;
  tokens : int;
  invalidations : int;
}

let stats (t : t) =
  {
    hits = t.hits;
    misses = t.misses;
    verified_misses = t.verified_misses;
    tokens = Hashtbl.length t.table;
    invalidations = t.invalidations;
  }

let pp_stats ppf s =
  Format.fprintf ppf "hits=%d misses=%d verified-miss=%d tokens=%d invalidated=%d"
    s.hits s.misses s.verified_misses s.tokens s.invalidations
