(** Load generator for [dbh-serve] — shared by [dbh-cli loadgen], the
    serve bench section and the CI smoke job.

    Runs [connections] synchronous clients for [duration] seconds,
    either {e closed-loop} (each connection fires its next search the
    moment the previous reply lands — measures capacity) or {e open-loop}
    ([rate] target QPS spread over the connections, each holding its
    arrival schedule even when replies lag — measures behavior at an
    offered load, which is what saturation and overload tests need).
    Tenants are drawn per-request from the weighted [tenants] mix, so
    one loadgen run exercises several token buckets at once.

    Deterministic given [seed] {e on the generator's side} (tenant and
    payload choices); timings are real. *)

type config = {
  host : string;
  port : int;
  connections : int;
  duration : float;  (** seconds *)
  rate : float option;  (** total target QPS; [None] = closed loop *)
  tenants : (string * float) list;  (** weighted mix; [[]] = anonymous *)
  deadline_ms : int;  (** per-request deadline sent to the server; 0 = default *)
  budget : int;  (** explicit distance budget; 0 = server derives from deadline *)
  probes : int;
  radius : int;
  payloads : string array;  (** encoded query objects, cycled per connection *)
  seed : int;
}

type report = {
  duration : float;  (** wall-clock actually measured *)
  sent : int;
  ok : int;  (** [Result] replies (goodput) *)
  shed : int;  (** [Overloaded] replies *)
  timed_out : int;  (** [Timed_out] replies *)
  errors : int;  (** bad/error replies and transport failures *)
  qps : float;  (** sent / duration *)
  goodput_qps : float;  (** ok / duration *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  p999_ms : float;
  max_ms : float;  (** latency of [Result] replies only *)
  per_tenant : (string * int * int) list;  (** tenant, sent, ok *)
}

val run : config -> report
(** Raises [Invalid_argument] on a non-positive connection count,
    duration or empty [payloads]; [Unix.Unix_error] when no connection
    can be established at all. *)

val report_json : report -> string
(** One JSON object, keys as in {!report}. *)
