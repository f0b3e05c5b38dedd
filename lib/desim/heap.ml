type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { data = [||]; size = 0; next_seq = 0 }

let size t = t.size
let is_empty t = t.size = 0

let precedes a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t entry =
  let capacity = Array.length t.data in
  if t.size = capacity then begin
    let bigger = Array.make (max 16 (2 * capacity)) entry in
    Array.blit t.data 0 bigger 0 t.size;
    t.data <- bigger
  end

(* Both sifts move a hole rather than swapping: each level costs one
   write, and the moving entry is stored once where the hole stops. *)
let push t ~time payload =
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  let data = t.data in
  let i = ref t.size in
  t.size <- t.size + 1;
  let moving = ref true in
  while !moving && !i > 0 do
    let parent = (!i - 1) / 2 in
    if precedes entry data.(parent) then begin
      data.(!i) <- data.(parent);
      i := parent
    end
    else moving := false
  done;
  data.(!i) <- entry

let min_time t = if t.size = 0 then Float.infinity else t.data.(0).time

(* Remove the root: the last entry sifts down from the hole it leaves. *)
let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let data = t.data in
  let top = data.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let last = data.(n) in
    let i = ref 0 in
    let moving = ref true in
    while !moving do
      let left = (2 * !i) + 1 in
      if left >= n then moving := false
      else begin
        let right = left + 1 in
        let child =
          if right < n && precedes data.(right) data.(left) then right else left
        in
        if precedes data.(child) last then begin
          data.(!i) <- data.(child);
          i := child
        end
        else moving := false
      end
    done;
    data.(!i) <- last
  end;
  top.payload
