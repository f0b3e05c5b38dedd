(** A QoS-constrained function request (Fig. 3, left).

    A request names the desired function type and an {e incomplete}
    subset of constraining attributes — attributes the caller does not
    care about are simply absent (Sec. 3).  Each constraint carries a
    relative weight; engines normalise weights so they sum to 1 as
    equation (2) requires. *)

type constr = {
  attr : Attr.id;
  value : Attr.value;
  weight : float;  (** Relative importance, strictly positive. *)
}

type t = private {
  type_id : int;  (** Desired function type. *)
  constraints : constr list;  (** Sorted by attribute ID, no duplicates. *)
}

val make : type_id:int -> (Attr.id * Attr.value * float) list -> (t, string) result
(** Sorts constraints by ID; rejects duplicates, non-positive weights
    and out-of-word-range IDs/values.  An empty constraint list is
    legal (a pure type lookup). *)

val replace_values : t -> Attr.value array -> t
(** [replace_values t values] is [t] with the [i]-th constraint, in
    attribute-ID order, carrying [values.(i)]; the type, attributes and
    weights are [t]'s.  Because [t] already passed {!make}'s checks,
    only the new values need checking, so this is the cheap way to
    stamp out many requests of one validated shape.
    @raise Invalid_argument when [values] has not exactly one entry per
    constraint or a value lies outside [[0, Attr.max_word]]. *)

val equal_weights : type_id:int -> (Attr.id * Attr.value) list -> (t, string) result
(** Convenience: every constraint gets weight 1 (engines normalise). *)

val normalized_weights : t -> (Attr.id * Attr.value * float) list
(** Constraints with weights rescaled to sum to 1.  Empty list when the
    request has no constraints. *)

val find : t -> Attr.id -> constr option
val constraint_count : t -> int

val drop_constraint : t -> Attr.id -> t
(** Remove one constraint — the unit step of the relaxation loop the
    paper sketches in Sec. 3 ("repeat its request with rather relaxed
    constraints"). *)

val reweight : t -> Attr.id -> float -> (t, string) result
(** Replace the weight of one constraint. *)

val with_value : t -> Attr.id -> Attr.value -> (t, string) result
(** Replace the value of one constraint (value-level relaxation). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
