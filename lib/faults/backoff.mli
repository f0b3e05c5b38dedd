(** Capped exponential retry backoff with deterministic jitter.

    The naive exponential ([base * factor^attempt]) grows without bound
    with the attempt count and, worse, synchronises colliding retriers:
    every submitter that failed at the same instant retries at exactly
    the same later instant, and keeps colliding forever.  This policy
    fixes both: the exponential is clamped at [cap_us], and the final
    delay is spread over [[d*(1-jitter), d*(1+jitter))] by a uniform
    draw the {e caller} supplies — randomness stays in the caller's
    seeded stream, so a retry schedule is still a pure function of the
    seed. *)

type policy = {
  base_us : float;  (** First-retry delay; must be positive. *)
  factor : float;  (** Exponential multiplier per attempt; >= 1. *)
  cap_us : float;
      (** Upper clamp on the un-jittered delay.  Keeps attempt counts
          from pushing the delay past any useful horizon (and keeps
          [factor ** attempt] overflow harmless: infinity clamps to
          the cap). *)
  jitter : float;
      (** Relative jitter half-width in [0, 1): delay [d] becomes
          uniform over [[d*(1-jitter), d*(1+jitter))].  0 disables
          jitter (and callers should then skip the uniform draw so
          jitter-free schedules consume no randomness). *)
}

val default : policy
(** 200 us base, factor 2, 5000 us cap, 0.1 jitter. *)

val validate : policy -> (unit, string) result
(** The policy contract {!delay} relies on: [base_us] finite and > 0,
    [factor] finite and >= 1, [cap_us] finite and >= 0, [jitter] in
    [[0, 1)].  The error names the first field that breaks it, as
    ["backoff_factor must be finite and >= 1 (got 0.5)"]. *)

val delay : policy -> attempt:int -> u:float -> float
(** Delay before retry [attempt] (0-based), jittered by the uniform
    draw [u] in [0, 1).  [u = 0.5] yields exactly the capped
    exponential, so deterministic callers can pass it in place of a
    draw. *)

val max_delay : policy -> float
(** The largest delay {!delay} can return: [cap_us * (1 + jitter)] —
    the bound the retry-budget accounting uses. *)
