type policy = {
  base_us : float;
  factor : float;
  cap_us : float;
  jitter : float;
}

let default = { base_us = 200.0; factor = 2.0; cap_us = 5_000.0; jitter = 0.1 }

let validate p =
  let finite_and ok rule name v =
    if Float.is_finite v && ok v then Ok ()
    else Error (Printf.sprintf "%s must be finite and %s (got %g)" name rule v)
  in
  let ( let* ) = Result.bind in
  let* () = finite_and (fun b -> b > 0.0) "> 0" "backoff_base_us" p.base_us in
  let* () = finite_and (fun f -> f >= 1.0) ">= 1" "backoff_factor" p.factor in
  let* () = finite_and (fun c -> c >= 0.0) ">= 0" "backoff_cap_us" p.cap_us in
  if p.jitter >= 0.0 && p.jitter < 1.0 then Ok ()
  else
    Error (Printf.sprintf "backoff_jitter must be in [0, 1) (got %g)" p.jitter)

let delay p ~attempt ~u =
  if p.base_us <= 0.0 then invalid_arg "Backoff.delay: base_us must be > 0";
  if p.factor < 1.0 then invalid_arg "Backoff.delay: factor must be >= 1";
  if p.jitter < 0.0 || p.jitter >= 1.0 then
    invalid_arg "Backoff.delay: jitter must be in [0, 1)";
  if attempt < 0 then invalid_arg "Backoff.delay: attempt must be >= 0";
  (* [factor ** attempt] overflows to infinity for large attempt
     counts; the clamp absorbs it. *)
  let raw = p.base_us *. (p.factor ** float_of_int attempt) in
  let capped = Float.min p.cap_us raw in
  capped *. (1.0 -. p.jitter +. (2.0 *. p.jitter *. u))

let max_delay p = p.cap_us *. (1.0 +. p.jitter)
