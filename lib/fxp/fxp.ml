module type Format = sig
  val fractional_bits : int
end

module type S = sig
  type t = private int

  val fractional_bits : int
  val zero : t
  val one : t
  val half : t
  val max_value : t
  val ulp : float
  val of_raw : int -> t option
  val of_raw_exn : int -> t
  val to_raw : t -> int
  val of_float : float -> t
  val to_float : t -> float
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val mul_int : t -> int -> t
  val div : t -> t -> t
  val recip_succ : int -> t
  val complement_to_one : t -> t
  val compare : t -> t -> int
  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
  val abs_diff_int : int -> int -> int
  val pp : Format.formatter -> t -> unit
end

let raw_bound = 65535

module Make (F : Format) : S = struct
  type t = int

  let () =
    if F.fractional_bits < 0 || F.fractional_bits > 15 then
      invalid_arg "Fxp.Make: fractional_bits must be within [0, 15]"

  let fractional_bits = F.fractional_bits
  let zero = 0
  let one = 1 lsl fractional_bits
  let half = one / 2
  let max_value = raw_bound
  let ulp = 1.0 /. float_of_int one
  let saturate r = if r > raw_bound then raw_bound else if r < 0 then 0 else r
  let of_raw r = if r < 0 || r > raw_bound then None else Some r

  (* No option box: the cycle-true machine converts two words per
     request attribute. *)
  let of_raw_exn r =
    if r < 0 || r > raw_bound then
      invalid_arg (Printf.sprintf "Fxp.of_raw_exn: %d out of range" r)
    else r

  let to_raw t = t

  let of_float f =
    if Float.is_nan f then invalid_arg "Fxp.of_float: nan"
    else saturate (int_of_float (Float.round (f *. float_of_int one)))

  let to_float t = float_of_int t /. float_of_int one
  let add a b = saturate (a + b)
  let sub a b = if b >= a then 0 else a - b

  (* Round-to-nearest product: add half an output LSB before shifting. *)
  let mul a b = saturate ((a * b + half) lsr fractional_bits)

  let mul_int x n =
    if n < 0 then invalid_arg "Fxp.mul_int: negative scale" else saturate (x * n)

  let div a b =
    if b = 0 then raise Division_by_zero
    else saturate (((a lsl fractional_bits) + (b / 2)) / b)

  let recip_succ n =
    if n < 0 then invalid_arg "Fxp.recip_succ: negative distance bound"
    else
      let d = n + 1 in
      (* one/d rounded to nearest; d >= 1 so no saturation possible. *)
      (one + (d / 2)) / d

  let complement_to_one x = if x >= one then 0 else one - x
  let compare = Int.compare
  let equal = Int.equal
  let min = Stdlib.min
  let max = Stdlib.max
  let abs_diff_int a b = abs (a - b)
  let pp ppf t = Format.fprintf ppf "%.4f (%d)" (to_float t) t
end

module Q15 = Make (struct
  let fractional_bits = 15
end)

module Q8 = Make (struct
  let fractional_bits = 8
end)
