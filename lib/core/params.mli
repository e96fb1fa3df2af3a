(** Offline search for optimal (k, l) (paper Section IV-D).

    For a fixed [k], accuracy grows and efficiency shrinks with [l], so
    the smallest [l] reaching the accuracy target is found by binary
    search; scanning [k] and keeping the cheapest [(k,l)] pair yields the
    operating point.  All evaluation goes through the {!Analysis} model —
    no online cost is incurred. *)

type choice = {
  k : int;
  l : int;
  predicted_accuracy : float;
  predicted_lookup : float;
  predicted_hash : float;
  predicted_cost : float;  (** lookup + hash (Eq. 13/14) *)
}

val pp_choice : Format.formatter -> choice -> unit

val min_l_for_accuracy :
  ?probes:int -> ?radius:int -> Analysis.t -> k:int -> target:float -> l_max:int -> int option
(** Smallest [l <= l_max] whose predicted accuracy reaches [target]
    (binary search over the monotone accuracy-in-[l] curve), or [None].
    [probes]/[radius] (defaults [1]/[0]) evaluate the multi-probe model
    instead — the analytical handle on the tables multi-probing saves. *)

val check_slack : float -> unit
(** Raises [Invalid_argument] unless the slack is finite and [>= 0]. *)

val optimize :
  ?probes:int ->
  ?radius:int ->
  ?slack:float ->
  Analysis.t ->
  target_accuracy:float ->
  ?k_min:int ->
  ?k_max:int ->
  ?l_max:int ->
  unit ->
  choice option
(** Best [(k,l)] under the model: for each [k] in [\[k_min, k_max\]]
    (defaults 1–30) find the minimal feasible [l] ([l_max] default 1000)
    and keep the choice minimizing predicted total cost.  [None] when no
    [(k,l)] reaches the target.  Requires [0 <= target_accuracy < 1]
    (an exact 1.0 target is unreachable under the model whenever any
    query has a collision rate below 1).  With [probes]/[radius] the
    whole search runs under the multi-probe model, so the returned
    choice is the operating point for an engine that will actually
    probe that way.

    [slack] (default [0.], the paper's objective: the first choice of
    least predicted cost in landscape order) trades distances for
    tables: among the feasible choices whose predicted cost is at most
    [(1 + slack)] times the least, return the one with the fewest
    tables, ties going to the lower predicted cost, then to landscape
    order.  Raises [Invalid_argument] when [slack] is negative or not
    finite. *)

val landscape :
  ?probes:int ->
  ?radius:int ->
  Analysis.t ->
  target_accuracy:float ->
  ?k_min:int ->
  ?k_max:int ->
  ?l_max:int ->
  unit ->
  choice array
(** The per-[k] minimal-[l] choices (only feasible [k]s) — the raw data
    behind the paper's observation that cost is U-shaped in [k]. *)
