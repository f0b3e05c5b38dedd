type summary = {
  n : int;
  mean : float;
  stddev : float;
  minimum : float;
  maximum : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  nonfinite : int;
}

let mean = function
  | [] -> None
  | values ->
      Some (List.fold_left ( +. ) 0.0 values /. float_of_int (List.length values))

(* Nearest rank, 1-based: the smallest integer r with r >= p/100 * n.
   The two float roundings in [p *. n /. 100.0] can land the product a
   few ulps *above* an exact integer boundary (e.g. 99.9/100 * 1000 =
   999.0000000000001), which a plain [ceil] then bumps to the next
   rank.  Subtract a relative epsilon before ceiling so exact
   boundaries stay on their own rank; the epsilon is far smaller than
   the 1/n spacing between ranks for any realistic n. *)
let nearest_rank ~p ~n =
  let x = p *. float_of_int n /. 100.0 in
  max 1 (int_of_float (Float.ceil (x -. (1e-9 *. Float.max 1.0 x))))

let percentile values ~p =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside [0, 100]"
  else
    match values with
    | [] -> None
    | _ ->
        let sorted = List.sort Float.compare values in
        let n = List.length sorted in
        let rank = nearest_rank ~p ~n in
        Some (List.nth sorted (min (n - 1) (rank - 1)))

(* --- Streaming accumulator ---------------------------------------------- *)

(* Values land in a doubling float array rather than a list: one flat
   buffer, sorted once at [finalize] for the percentiles. *)
type acc = {
  mutable values : float array;
  mutable used : int;
  mutable nonfinite : int;
}

let create () = { values = Array.make 16 0.0; used = 0; nonfinite = 0 }

let add acc v =
  if not (Float.is_finite v) then acc.nonfinite <- acc.nonfinite + 1
  else begin
    if acc.used = Array.length acc.values then begin
      let grown = Array.make (2 * acc.used) 0.0 in
      Array.blit acc.values 0 grown 0 acc.used;
      acc.values <- grown
    end;
    acc.values.(acc.used) <- v;
    acc.used <- acc.used + 1
  end

let count acc = acc.used
let nonfinite_count acc = acc.nonfinite

(* [Array.sort Float.compare], specialised to a float array.  The
   polymorphic sort boxes every element it reads — tens of words per
   value — while this copy of its ternary heap sort reads and writes
   unboxed floats.  It is the same algorithm step for step, so it leaves
   the same permutation even among values that compare equal (0.0 and
   -0.0). *)
let sort_floats (a : float array) =
  (* Index of the greatest son of [i], or -1 when [i] has none. *)
  let maxson l i =
    let i31 = i + i + i + 1 in
    if i31 + 2 < l then begin
      let x = if Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1 else i31 in
      if Float.compare a.(x) a.(i31 + 2) < 0 then i31 + 2 else x
    end
    else if i31 + 1 < l && Float.compare a.(i31) a.(i31 + 1) < 0 then i31 + 1
    else if i31 < l then i31
    else -1
  in
  let l = Array.length a in
  for start = ((l + 1) / 3) - 1 downto 0 do
    (* Trickle [a.(start)] down the heap. *)
    let e = a.(start) in
    let i = ref start and moving = ref true in
    while !moving do
      let j = maxson l !i in
      if j >= 0 && Float.compare a.(j) e > 0 then begin
        a.(!i) <- a.(j);
        i := j
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  for last = l - 1 downto 2 do
    let e = a.(last) in
    a.(last) <- a.(0);
    (* Bubble the hole at the root down to a leaf... *)
    let i = ref 0 and moving = ref true in
    while !moving do
      let j = maxson last !i in
      if j < 0 then moving := false
      else begin
        a.(!i) <- a.(j);
        i := j
      end
    done;
    (* ...then trickle [e] up from it. *)
    moving := true;
    while !moving do
      let father = (!i - 1) / 3 in
      if Float.compare a.(father) e < 0 then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          moving := false
        end
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

let finalize acc =
  if acc.used = 0 then None
  else begin
    let sorted = Array.sub acc.values 0 acc.used in
    sort_floats sorted;
    let n = acc.used in
    let fn = float_of_int n in
    let total = ref 0.0 in
    for i = 0 to n - 1 do
      total := !total +. sorted.(i)
    done;
    let mu = !total /. fn in
    let squares = ref 0.0 in
    for i = 0 to n - 1 do
      squares := !squares +. ((sorted.(i) -. mu) ** 2.0)
    done;
    let variance = !squares /. fn in
    (* Nearest rank on the sorted buffer, same rule as {!percentile}. *)
    let pct p =
      let rank = nearest_rank ~p ~n in
      sorted.(min (n - 1) (rank - 1))
    in
    Some
      {
        n;
        mean = mu;
        stddev = sqrt variance;
        minimum = sorted.(0);
        maximum = sorted.(n - 1);
        p50 = pct 50.0;
        p90 = pct 90.0;
        p95 = pct 95.0;
        p99 = pct 99.0;
        nonfinite = acc.nonfinite;
      }
  end

let summarize values =
  let acc = create () in
  List.iter (add acc) values;
  finalize acc

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p95=%.3f p99=%.3f max=%.3f"
    s.n s.mean s.stddev s.minimum s.p50 s.p90 s.p95 s.p99 s.maximum;
  if s.nonfinite > 0 then Format.fprintf ppf " nonfinite=%d" s.nonfinite
