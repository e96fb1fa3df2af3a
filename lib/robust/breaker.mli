(** Circuit breaker with graceful degradation for a self-maintaining DBH
    index.

    A DBH index is only as good as its hash tables: a spell of anomalous
    distances (see {!Guard}) pollutes bucket keys at insert time and can
    collapse retrieval quality long after the distance service recovers,
    and a degenerate distance collapses the tables structurally
    ({!Dbh.Diagnostics.healthy}).  Rather than serve silently bad
    answers, the breaker watches both signals and degrades gracefully:

    {v Closed ──(anomaly rate / unhealthy tables)──► Open
       Open ──(cooldown elapsed; index rebuilt)──► Half_open
       Half_open ──(probes clean)──► Closed   (recovery)
       Half_open ──(probes still bad)──► Open v}

    - {b Closed}: queries go to the index.  Every [window] queries the
      guard's anomaly rate over that window and the index's structural
      health are evaluated; a breach trips the breaker.
    - {b Open}: queries are served by an {e exact linear scan} over the
      alive objects through the (guarded) space — expensive but correct,
      and immune to table pollution.  After [open_cooldown] fallback
      queries the breaker forces a full {!Dbh.Online.rebuild_now} and
      moves to Half_open.  A refresh the build rejects with
      [Invalid_argument] (say, fewer alive objects than the pipeline
      builds from) publishes nothing: the breaker stays Open, counts the
      rejection in [dbh_online_rebuild_failures_total], serves that query
      by linear scan too, and tries again after another [open_cooldown]
      fallback queries.  Any other exception from the refresh reaches the
      caller.
    - {b Half_open}: the next [half_open_probes] queries are served by
      the rebuilt index while being watched; a clean run closes the
      breaker (recovery), further anomalies re-open it.

    All transitions are driven by query traffic — no background thread,
    consistent with the library's deterministic, single-threaded style. *)

type state = Closed | Open | Half_open

type config = {
  window : int;  (** closed-state queries per health evaluation (default 20) *)
  anomaly_threshold : float;
      (** trip when the windowed per-distance-call anomaly rate exceeds
          this (default 0.02) *)
  max_bucket_fraction : float;
      (** structural-health knob forwarded to
          {!Dbh.Diagnostics.healthy} (default 0.5) *)
  open_cooldown : int;
      (** fallback queries served before attempting a rebuild (default 20) *)
  half_open_probes : int;  (** probe queries that must run clean (default 10) *)
}

val default_config : config

type 'a t

type 'a outcome = {
  result : 'a Dbh.Online.result;
  served_by : [ `Index | `Linear_scan ];
  state_after : state;
}

val create : ?config:config -> ?guard:Guard.t -> 'a Dbh.Online.t -> 'a t
(** Wrap an online index.  [guard] is the counter handle of the guarded
    space the index was created over; without it only structural health
    can trip the breaker.  Raises [Invalid_argument] on non-positive
    window/cooldown/probe counts or thresholds outside ([0,1]). *)

val search : ?opts:Dbh.Query_opts.t -> 'a t -> 'a -> 'a outcome
(** Serve one query according to the current state (see above).
    [opts.budget] applies to whichever path serves the query, including
    the linear-scan fallback; [opts.metrics]/[opts.trace] instrument
    both paths (fallback queries report [levels_probed = 0] and record
    a [Linear_fallback] trace event; state transitions record
    [Breaker_state]).  [opts.pool] is ignored. *)

val state : 'a t -> state
val trips : 'a t -> int
(** Transitions into [Open] (including Half_open relapses). *)

val recoveries : 'a t -> int
(** Transitions from [Half_open] back to [Closed]. *)

val fallback_queries : 'a t -> int
(** Queries served by the exact linear scan. *)

val pp_state : Format.formatter -> state -> unit

val search_batch : ?opts:Dbh.Query_opts.t -> 'a t -> 'a array -> 'a outcome array
(** One {!search} per element, in input order, sharing the breaker's
    state machine: outcome [i] reflects transitions caused by queries
    [0..i-1], exactly as a hand-written loop over {!search} would.
    Deliberately sequential ([opts.pool] is ignored): the breaker is a
    stateful health monitor, not a data-parallel kernel. *)
