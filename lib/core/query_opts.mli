(** Options shared by every query entry point.

    One record carries everything a query may be threaded with — a
    per-query distance budget, a domain pool for batches, the
    observability hooks and the multi-probe knobs — instead of each
    entry point growing its own spelling of the same optional
    arguments.  [search ?opts] is the one query entry of
    [Index], [Hierarchical], [Online] (and [Online.Durable]) and
    [Dbh_robust.Breaker]; their [search_batch] variants and
    [Index.query_knn]/[query_range]/[query_budgeted] take the same
    record.

    Fields an entry point cannot use are ignored: single-query [search]
    ignores [pool]; batch entry points ignore [trace] (a trace is
    single-domain by design — attach it to one query at a time).  The
    one exception is [budget]: the k-NN, range and collision-ranked
    queries have no best-so-far answer to truncate to, so they raise
    [Invalid_argument] when it is set rather than drop it silently. *)

type t = {
  budget : int option;
      (** Cap on distance computations {e per query} — each query gets a
          fresh [Budget.t] of this many computations, in batches too.
          Results whose budget ran out carry [truncated = true].
          Rejected ([Invalid_argument]) by [Index.query_knn],
          [Index.query_range] and [Index.query_budgeted]. *)
  pool : Dbh_util.Pool.t option;
      (** Fan a [_batch] call's queries across these domains.  Answers
          and logical stats are identical to the sequential run. *)
  metrics : Dbh_obs.Metrics.t option;
      (** Record into this metric set instead of the ambient installed
          one ({!Dbh_obs.Metrics.install}). *)
  trace : Dbh_obs.Trace.t option;
      (** Record this query's event timeline.  Single-query entry points
          only. *)
  probes_per_table : int;
      (** Buckets probed per table, base bucket included (default [1]).
          Values above 1 enable the multi-probe path: after each table's
          own bucket, up to [probes_per_table - 1] Hamming-adjacent
          buckets are probed in increasing flip-penalty order, flipping
          the bits whose projections landed nearest their thresholds.
          Requires [hamming_radius >= 1] to take effect. *)
  hamming_radius : int;
      (** Largest Hamming distance of probed keys from the base key
          (default [0] = multi-probe off; at most {!Key.max_radius}).
          With [probes_per_table = 1] {e and} [hamming_radius = 0] —
          the defaults — every query path is bit-identical to the
          single-probe engine. *)
}

val default : t
(** All fields [None] — plain, unobserved, unbounded queries — and the
    single-probe knobs ([probes_per_table = 1], [hamming_radius = 0]). *)

val make :
  ?budget:int ->
  ?pool:Dbh_util.Pool.t ->
  ?metrics:Dbh_obs.Metrics.t ->
  ?trace:Dbh_obs.Trace.t ->
  ?probes_per_table:int ->
  ?hamming_radius:int ->
  unit ->
  t

val budgeted : int -> t
(** [budgeted n] is [make ~budget:n ()] — the most common non-default. *)

val multiprobe : ?hamming_radius:int -> int -> t
(** [multiprobe n] is [make ~probes_per_table:n ~hamming_radius:2 ()] —
    the standard multi-probe setting (radius defaults to
    {!Key.max_radius}). *)
