(** Minimal discrete-event simulation core: a virtual clock and a
    min-heap of callbacks. *)

type t

val create : unit -> t

val now : t -> float
(** Simulated time in microseconds. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [delay >= 0] relative to {!now}. @raise Invalid_argument otherwise. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** Absolute; must not be in the past.
    @raise Invalid_argument on a NaN time or one before {!now}. *)

val run : ?until:float -> t -> int
(** Processes events in time order (insertion order among ties) until
    the queue empties or the clock would pass [until]; returns how many
    events fired. *)

val run_before : t -> time:float -> int
(** Processes every event with time strictly before [time], including
    ones scheduled while firing; returns how many fired.  The clock
    ends at the last fired event.  Together with {!advance} this lets
    a driver interleave externally-produced work (a streaming arrival
    source) with the queued events. *)

val advance : t -> time:float -> unit
(** Move the clock forward to [time]; no-op when [time] is not ahead
    of it.  @raise Invalid_argument on NaN. *)

val pending : t -> int
