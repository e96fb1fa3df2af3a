(** Blocking client for the [dbh-serve] wire protocol — used by the CLI,
    the load generator and the test suites.

    One connection, synchronous by default (each call sends its request
    and waits for the reply with the matching correlation id), with the
    pipelined primitives ({!send}/{!recv}) exposed for tests that
    interleave. *)

type t

val connect :
  ?timeout:float ->
  ?retry:Dbh_util.Retry.policy ->
  ?deadline:float ->
  host:string ->
  port:int ->
  unit ->
  t
(** TCP connect.  [timeout] (default 10 s) is the per-reply receive
    window.  When [deadline] (seconds of connect budget) is given,
    refused connections are retried under [retry] (default
    {!Dbh_util.Retry.default}) with {!Dbh_util.Retry.backoff_within}
    capping every sleep to the remaining budget — so a client racing a
    server's bind never waits past its deadline.  Raises the last
    [Unix.Unix_error] when the budget runs out. *)

(** {1 Requests}

    Each sends one request and waits for the reply with its id (replies
    for other ids are parked, not lost).  All but {!ping} raise
    [End_of_file] when the server closes mid-reply and [Failure] on
    framing errors. *)

val ping : t -> bool
(** The server answered [Ping] with [Pong]; false on connection failure. *)

val search :
  ?tenant:string ->
  ?deadline_ms:int ->
  ?budget:int ->
  ?probes:int ->
  ?radius:int ->
  t ->
  payload:string ->
  Protocol.response

val insert : ?tenant:string -> ?deadline_ms:int -> t -> payload:string -> Protocol.response
val delete : ?tenant:string -> ?deadline_ms:int -> t -> handle:int -> Protocol.response
val stats : t -> Protocol.response

(** {1 Pipelining} *)

val send : t -> Protocol.request -> int64
(** Write one request frame, returning its correlation id. *)

val recv : t -> int64 * Protocol.response
(** Next reply off the wire (or parked), in arrival order. *)

val readable : ?timeout:float -> t -> bool
(** Would {!recv} return promptly?  True when a parked reply or a
    buffered frame is already in hand, or the socket becomes readable
    within [timeout] (default 0, a pure poll).  Lets a pipelining caller
    interleave sends without committing to a blocking read. *)

val close : t -> unit  (** idempotent *)
