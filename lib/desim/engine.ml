type t = { queue : (t -> unit) Heap.t; mutable clock : float }

let create () = { queue = Heap.create (); clock = 0.0 }

let now t = t.clock

let schedule_at t ~time callback =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: NaN time"
  else if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: %g is before now (%g)" time t.clock)
  else Heap.push t.queue ~time callback

let schedule t ~delay callback =
  if delay < 0.0 || not (Float.is_finite delay) then
    invalid_arg "Engine.schedule: negative or non-finite delay"
  else schedule_at t ~time:(t.clock +. delay) callback

(* Fire queued events in time order while the next is due: strictly
   before [limit], or also at it when [inclusive].  Events scheduled
   while firing are honoured if they are due too. *)
let fire_due t ~limit ~inclusive =
  let fired = ref 0 in
  while
    (not (Heap.is_empty t.queue))
    &&
    let next = Heap.min_time t.queue in
    next < limit || (inclusive && next = limit)
  do
    t.clock <- Heap.min_time t.queue;
    let callback = Heap.pop_min t.queue in
    callback t;
    incr fired
  done;
  !fired

(* Fire every queued event with time strictly before [time], leaving
   the clock at the last fired event.  Used together with [advance] by
   drivers that interleave externally-produced work (a streaming
   arrival source) with the queued events: run the queue up to the
   next external item, advance the clock onto it, handle it. *)
let run_before t ~time = fire_due t ~limit:time ~inclusive:false

(* Move the clock forward to [time]; a no-op when [time] is not ahead
   of it (the clock never moves backwards). *)
let advance t ~time =
  if Float.is_nan time then invalid_arg "Engine.advance: NaN time"
  else if time > t.clock then t.clock <- time

let run ?(until = infinity) t = fire_due t ~limit:until ~inclusive:true

let pending t = Heap.size t.queue
