(** Deterministic fault injection for black-box distance measures.

    Wraps a space so that each distance evaluation may — with configured
    probabilities, driven by an explicit RNG so runs are reproducible from
    a seed — return NaN, raise an exception, return a negative value,
    or perturb the true value.  Tests and benchmarks use it to exercise the
    whole pipeline (guards, budgets, the circuit breaker) under realistic
    failure, with the same failures on every run.

    The configuration is mutable at runtime ({!set_config}), which models
    a transient outage: create the index while healthy, flip faults on to
    watch the breaker trip, flip them off to watch it recover. *)

type config = {
  nan_prob : float;  (** P(return NaN) *)
  exn_prob : float;  (** P(raise {!Injected}) *)
  negative_prob : float;  (** P(return a negative value) *)
  perturb_prob : float;  (** P(multiplicatively perturb the true value) *)
  perturb_scale : float;
      (** relative perturbation amplitude: value scales by a factor
          uniform in [1 ± perturb_scale] *)
}

val quiet : config
(** All fault probabilities zero (perturb_scale 0.25 as the default for
    when perturbation is turned up). *)

val faults :
  ?nan:float -> ?exn_:float -> ?negative:float -> ?perturb:float -> unit -> config
(** {!quiet} with the given probabilities switched on. *)

exception Injected of string
(** The exception thrown by injected failures. *)

type t
(** Handle to one wrapped space: its live configuration and injection
    counters. *)

val wrap : rng:Dbh_util.Rng.t -> ?config:config -> 'a Dbh_space.Space.t -> 'a Dbh_space.Space.t * t
(** [wrap ~rng space] is the fault-injecting space plus its handle.
    Default config is {!quiet} — wrap early, enable faults when the test
    wants them.  The fault assigned to a call is a pure function of a
    seed drawn from [rng] at wrap time, the argument pair, and how many
    times that pair has been evaluated — not of global call order — so
    the fault pattern is reproducible even when the space is shared
    across domains and evaluations interleave differently from run to
    run. *)

val config : t -> config
val set_config : t -> config -> unit
val disable : t -> unit
(** [disable t] is [set_config t quiet] (keeps counters). *)

val calls : t -> int
val injected : t -> int
(** Total faults injected (all kinds, including perturbations). *)

val injected_nan : t -> int
val injected_exn : t -> int
val injected_negative : t -> int
val perturbed : t -> int
