(* The primitive [Printf] itself calls for [%f]
   (camlinternalFormat's [convert_float]), so [format_float "%.6f" v]
   is byte-identical to [Printf.sprintf "%.6f" v] by construction. *)
external format_float : string -> float -> string = "caml_format_float"

(* Digits of [n <= 0], most significant first: negatives cover
   [min_int], whose magnitude has no positive [int]. *)
let rec add_neg_digits buf n =
  if n <= -10 then add_neg_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_neg_digits buf n
  end
  else add_neg_digits buf (-n)

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Not [String.exists]: its inner loop is a closure allocated per call. *)
let rec plain_from s i =
  i >= String.length s || ((not (needs_escape s.[i])) && plain_from s (i + 1))

let hex_digit d = Char.unsafe_chr (if d < 10 then 48 + d else 87 + d)

let add_escaped_char buf c =
  match c with
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | c when Char.code c < 0x20 ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf (hex_digit (Char.code c lsr 4));
      Buffer.add_char buf (hex_digit (Char.code c land 0xf))
  | c -> Buffer.add_char buf c

let add_str buf s =
  Buffer.add_char buf '"';
  if plain_from s 0 then Buffer.add_string buf s
  else String.iter (add_escaped_char buf) s;
  Buffer.add_char buf '"'

let add_float buf v =
  if not (Float.is_finite v) then
    invalid_arg
      (Printf.sprintf "Obs.Jsonu.float_str: non-finite value %h reached an \
                       exporter" v);
  (* Integers go through [add_int], so [-0.] prints "0": two canonical
     spellings of the same number would break the byte-determinism
     contract. *)
  if Float.is_integer v && Float.abs v < 1e15 then add_int buf (int_of_float v)
  else Buffer.add_string buf (format_float "%.6f" v)

let with_buffer add x =
  let buf = Buffer.create 16 in
  add buf x;
  Buffer.contents buf

let str s = with_buffer add_str s
let float_str v = with_buffer add_float v
