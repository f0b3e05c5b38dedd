(** Array-based binary min-heap keyed by [(time, sequence)] — ties fire
    in insertion order, which keeps simulations deterministic. *)

type 'a t

val create : unit -> 'a t
val size : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> time:float -> 'a -> unit
(** Sequence numbers are assigned internally. *)

val min_time : 'a t -> float
(** Time of the entry {!pop_min} would remove next; [infinity] when the
    heap is empty, so test {!is_empty} when an entry may itself be
    scheduled at [infinity].  Allocates nothing: together with
    {!pop_min} this is the event loop's allocation-free pair. *)

val pop_min : 'a t -> 'a
(** Remove the entry with the smallest time (earliest inserted among
    equals) and return its payload; read its time with {!min_time}
    first.  @raise Invalid_argument when the heap is empty. *)
