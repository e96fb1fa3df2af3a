(** Multicore-safe metrics registry.

    A registry is a named collection of {e counters} (monotone ints),
    {e gauges} (instantaneous ints) and {e histograms} (fixed float
    bucket bounds), all backed by [Atomic] so they stay exact when
    bumped from several domains at once — the same guarantee
    [Dbh_space.Space.counter] gives, generalized.

    Cost model: recording is one [Atomic] operation for counters and
    gauges, and one bucket search plus two [Atomic] operations for
    histograms.  No allocation happens on the record path, so
    instrumented code that checks for an installed registry first pays
    nothing measurable when observability is off.

    Snapshots come out as Prometheus-style text exposition
    ({!exposition}) or JSON ({!to_json}); {!parse_exposition} is the
    tiny inverse used by tests to round-trip the text format. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {1 Registration}

    Metric names must match [[a-zA-Z_:][a-zA-Z0-9_:]*].  Registering
    the same name (and label set) twice raises [Invalid_argument].
    Registration takes a lock; do it at setup time, not per query. *)

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge

val histogram : t -> ?help:string -> ?buckets:float array -> string -> histogram
(** [buckets] are the upper bounds (strictly increasing; a final +inf
    bucket is implicit).  Default: powers-of-ten style latency buckets
    from 1e-6 to 10 seconds. *)

(** {1 Recording} *)

val inc : counter -> unit
val add : counter -> int -> unit
(** [add c n] with [n < 0] raises [Invalid_argument]: counters are
    monotone. *)

val set : gauge -> int -> unit
val observe : histogram -> float -> unit

(** {1 Reading} *)

val counter_value : counter -> int
val gauge_value : gauge -> int
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) array
(** [(upper_bound, count)] per bucket, in bound order, ending with the
    implicit [+inf] bucket.  Counts are per-bucket (not cumulative) —
    the typed counterpart of the [_bucket] exposition lines, for code
    that consumes its own histograms (e.g. a benchmark reading a
    median off them). *)

(** {1 Export} *)

val exposition : t -> string
(** Prometheus text format: [# HELP]/[# TYPE] per family, one sample
    line per counter/gauge, and cumulative [_bucket{le="..."}] lines
    plus [_sum]/[_count] per histogram.  Metrics appear in registration
    order. *)

val to_json : t -> string
(** The same snapshot as a JSON object [{"metrics": [...]}]. *)

val parse_exposition : string -> (string * float) list
(** Parse text in the {!exposition} format back into
    [(sample_name, value)] pairs, in order, where [sample_name] includes
    any label set (e.g. ["dbh_query_cost_bucket{le=\"10\"}"]).  Comment
    and blank lines are skipped.  Raises [Invalid_argument] on a
    malformed sample line.  Only meant for tests and smoke checks. *)

val find_sample : t -> string -> float option
(** [find_sample t name] is the value of the named exposition sample —
    shorthand for looking [name] up in
    [parse_exposition (exposition t)]. *)
