(** The TCP tier: framed requests over {!Shards}, behind {!Admission}.

    One admission thread serves every connection from a single [select]
    loop over the listen socket, a wake pipe and the connections'
    non-blocking sockets: it accepts, reads and deframes under strict limits
    (payload cap, idle and partial-frame deadlines against slow loris),
    answers trivial requests inline (ping, stats, sheds), and decodes a
    search's or insert's payload once before offering it to the
    admission queue.  A batcher domain pops micro-batches, drops entries
    whose deadline already passed, executes searches through
    {!Shards.search_many} (fanning shards over the domain pool) and
    hands each reply to its connection: written at once when nothing is
    queued ahead of it, and whatever the socket does not take waits in
    the connection's outbox, which the admission thread writes out when
    the socket has room.  No write waits on a peer, so a client that
    stops reading never stalls the batcher, and while a connection has
    replies queued its requests stay unread.  The measured distance
    throughput of each batch feeds the admission queue's deadline→budget
    conversion.  Threads do not grow with connections: the admission
    thread, the batcher domain, and a metrics thread when
    [metrics_port] is set.

    Corrupt streams close the connection; well-framed garbage gets a
    [Bad_request] and the connection lives on; overload gets an explicit
    [Overloaded] with honest retry-after.  {!stop} is the graceful
    drain: stop accepting, let the queue empty (shedding whatever
    outlives the drain window), checkpoint every shard, close. *)

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 picks an ephemeral port — see {!port} *)
  metrics_port : int option;  (** serve Prometheus [/metrics] when set (0 ok) *)
  admission : Admission.config;
  max_payload : int;  (** frame payload cap; larger frames kill the connection *)
  idle_timeout : float;
      (** seconds: no bytes received, a frame left incomplete, or queued
          replies not all written within this long of queueing kills
          the connection *)
  max_connections : int;  (** accepted sockets beyond this are closed at once *)
  batch_max : int;  (** micro-batch size cap *)
  drain_timeout : float;  (** seconds {!stop} waits before shedding the queue *)
  so_sndbuf : int option;
      (** per-connection kernel send buffer ([SO_SNDBUF]), bytes.  [None]
          keeps the kernel default.  A small value bounds the kernel
          memory a slow-reading client can pin and makes its replies
          queue in the outbox, and so start [idle_timeout]'s clock,
          sooner when it stops draining them. *)
}

val default_config : config
(** Loopback, ephemeral port, no metrics listener, default admission,
    1 MiB payloads, 10 s idle, 256 connections, batches of 32, 5 s
    drain, kernel-default send buffer. *)

type 'a t

val start :
  ?pool:Dbh_util.Pool.t ->
  ?registry:Dbh_obs.Registry.t ->
  decode:(string -> 'a) ->
  config ->
  'a Shards.t ->
  'a t
(** Bind, start the admission thread, the batcher domain and (with
    [metrics_port]) the metrics thread, return immediately.  [decode]
    turns request payloads into query objects, once per search or
    insert, before admission (failures become [Bad_request]).  [registry] receives the
    [dbh_serve_*] metric set (default: a fresh registry); the metrics
    listener exposes whatever else is registered on it too.  The server
    owns [pool] while running: nothing else may submit to it until
    {!stop} returns.  It fans batches over [pool] only when
    [Pool.size pool + 1 <= Domain.recommended_domain_count ()]: with
    fewer cores the pool's domains would only time-slice with the
    batcher and the admission thread.  Raises [Unix.Unix_error] when
    the bind fails. *)

val port : 'a t -> int  (** the bound port (useful with [port = 0]) *)

val metrics_port : 'a t -> int option

val metrics : 'a t -> Serve_metrics.t

val draining : 'a t -> bool

val stop : ?kill:Dbh.Online.Durable.kill_point -> 'a t -> unit
(** Graceful drain, idempotent: stop accepting, shed new work with
    [Overloaded], wait up to [drain_timeout] for the queue to empty then
    shed the rest, join the batcher, give the outboxes what is left of
    that window to deliver, close every connection, checkpoint
    every shard ([kill] injects a crash there, for recovery tests) and
    close them.  Returns when everything is down. *)

val wait : 'a t -> unit
(** Block until {!stop} (called from another thread or a signal handler
    flag) has completed. *)
