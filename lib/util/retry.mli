(** Jittered exponential backoff policies.

    A {!policy} is a pure map from attempt number to delay — no clock,
    no sleeping, no hidden randomness — so retry loops built on it stay
    deterministic under test.  The delay unit is the caller's: a WAL
    tailer reads it as seconds between polls, a client as seconds
    between connection attempts. *)

type policy = {
  initial : float;  (** delay for attempt 1 (must be positive) *)
  multiplier : float;  (** growth per attempt (must be >= 1) *)
  max_delay : float;  (** cap on the un-jittered delay *)
  jitter : float;
      (** symmetric jitter fraction in [0, 1): the final delay is
          uniform in [d·(1-jitter), d·(1+jitter)] when an rng is
          supplied, exactly [d] otherwise *)
}

val default : policy
(** 50ms doubling to a 5s cap with 25% jitter — a reasonable tailing
    policy when the unit is seconds. *)

val make :
  ?initial:float -> ?multiplier:float -> ?max_delay:float -> ?jitter:float -> unit -> policy
(** Validated constructor; raises [Invalid_argument] on a non-positive
    [initial], [multiplier < 1], [max_delay < initial] or [jitter]
    outside [0, 1). *)

val backoff : ?rng:Rng.t -> policy -> attempt:int -> float
(** Delay before retry number [attempt] (1-based).  Monotone in
    [attempt] up to [max_delay]; never overflows for huge attempt
    counts.  Without [rng] (or with zero [jitter]) the result is
    deterministic.  Raises [Invalid_argument] when [attempt < 1]. *)

val backoff_within :
  ?rng:Rng.t -> deadline:float -> elapsed:float -> policy -> attempt:int -> float option
(** {!backoff} under an overall deadline cap: the whole retry ladder may
    spend at most [deadline] units, of which [elapsed] are already gone.
    [None] once the budget is spent ([elapsed >= deadline] — stop
    retrying); otherwise [Some d], the jittered {!backoff} delay clamped
    to the remaining [deadline -. elapsed] so the ladder can never
    overshoot the caller's time budget.  Jitter draws happen exactly as
    in {!backoff} (same rng consumption), so ladders that stay inside
    the budget are unchanged.  Raises [Invalid_argument] when [deadline]
    is not positive, [elapsed] is negative, or [attempt < 1]. *)
