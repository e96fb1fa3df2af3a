(** Per-query trace recorder.

    A trace is an opt-in, bounded event log attached to a single query
    (or a single durable operation): the query path records one {!event}
    per interesting step — pivot distance evaluations, bucket probes,
    candidate comparisons, cascade level transitions, budget exhaustion,
    breaker activity, WAL appends/fsyncs, checkpoints — and the caller
    pretty-prints or exports the timeline afterwards.

    Traces are not synchronized across domains: attach one trace to one
    query served on one domain (batch entry points ignore the trace for
    exactly this reason).  Recording past {!capacity} drops events and
    counts them in {!dropped} instead of growing without bound. *)

type event =
  | Query_start of { kind : string }  (** e.g. ["index(k=8,l=10)"], ["hierarchical(5 levels)"] *)
  | Pivot_hit of { pivot : int }  (** pivot distance served from the query's cache *)
  | Pivot_miss of { pivot : int }  (** pivot distance actually computed *)
  | Bucket_probe of { level : int; table : int; key : int; found : int }
      (** one hash-table lookup; [found] counts bucket members before dedup *)
  | Candidate of { id : int; distance : float; improved : bool }
      (** one exact candidate comparison; [improved] when it became the best *)
  | Level_enter of { level : int; threshold : float }
      (** the cascade moved into stratum [level] (threshold [D_i]) *)
  | Level_settled of { level : int; best : float }
      (** the cascade stopped at [level]: best distance within threshold *)
  | Budget_exhausted of { spent : int }
  | Breaker_state of { state : string }  (** breaker transition, e.g. ["closed -> open"] *)
  | Linear_fallback of { scanned : int }  (** breaker served this query by exact scan *)
  | Wal_append of { bytes : int }
  | Wal_fsync of { seconds : float }
  | Checkpoint of { generation : int; seconds : float }
  | Replay of { records : int }
  | Query_done of {
      hash_cost : int;
      lookup_cost : int;
      probes : int;
      levels_probed : int;
      truncated : bool;
    }

type t

val create : ?clock:(unit -> float) -> ?capacity:int -> unit -> t
(** [clock] stamps each event (default [Unix.gettimeofday]; pass a fake
    for deterministic tests).  [capacity] (default 100_000) bounds the
    number of retained events. *)

val record : t -> event -> unit

val events : t -> (float * event) array
(** Recorded [(timestamp, event)] pairs in recording order. *)

val length : t -> int
val dropped : t -> int
(** Events discarded because the trace was at capacity. *)

val clear : t -> unit
(** Forget all events (and the dropped count); the trace is reusable. *)

val pp : Format.formatter -> t -> unit
(** The full timeline, one event per line, with timestamps relative to
    the first event. *)

val to_json : t -> string
