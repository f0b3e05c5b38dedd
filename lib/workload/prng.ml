(* The 64-bit state lives in an 8-byte buffer rather than a boxed
   [int64] field: reading and writing it through [Bytes.get/set_int64_le]
   keeps every intermediate unboxed, so a draw allocates nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

let[@inline] int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* The low 62 bits of a draw, which always fit OCaml's 63-bit int. *)
let[@inline] bits62 t = Int64.to_int (Int64.logand (int64 t) 0x3FFFFFFFFFFFFFFFL)

let split t = of_state (int64 t)

(* Largest 62-bit value, the upper bound of [bits62]. *)
let max62 = 0x3FFFFFFFFFFFFFFF

let int t ~bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive"
  else
    (* Rejection sampling: [raw mod bound] alone over-represents the
       first [2^62 mod bound] residues.  Redraw whenever [raw] lands in
       the short tail above the largest multiple of [bound]; each
       accepted residue is then exactly equally likely.  [2^62] itself
       is not representable, so the tail length is computed as
       [((max62 mod bound) + 1) mod bound]. *)
    let tail = ((max62 mod bound) + 1) mod bound in
    let accept_max = max62 - tail in
    let raw = ref (bits62 t) in
    while !raw > accept_max do
      raw := bits62 t
    done;
    !raw mod bound

let int_in t ~lo ~hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi"
  else
    let range = hi - lo + 1 in
    if range <= 0 then
      invalid_arg
        (Printf.sprintf
           "Prng.int_in: range [%d, %d] spans more than max_int values" lo hi)
    else lo + int t ~bound:range

let[@inline] float t =
  let raw = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  raw /. 9007199254740992.0 (* 2^53 *)

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~mean =
  if mean <= 0.0 then invalid_arg "Prng.exponential: mean must be positive"
  else
    let u = float t in
    (* u is in [0, 1); 1 - u is in (0, 1], so log is finite. *)
    -.mean *. log (1.0 -. u)

let shuffle t list =
  let arr = Array.of_list list in
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let choose t = function
  | [] -> invalid_arg "Prng.choose: empty list"
  | list -> List.nth list (int t ~bound:(List.length list))

let sample_without_replacement t ~k list =
  let n = List.length list in
  if k >= n then list
  else
    (* Floyd-style: pick k indices, then keep original order. *)
    let chosen = Hashtbl.create k in
    let rec pick remaining =
      if remaining = 0 then ()
      else
        let i = int t ~bound:n in
        if Hashtbl.mem chosen i then pick remaining
        else begin
          Hashtbl.add chosen i ();
          pick (remaining - 1)
        end
    in
    if k > 0 then pick k;
    List.filteri (fun i _ -> Hashtbl.mem chosen i) list
