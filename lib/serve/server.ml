module Registry = Dbh_obs.Registry
module Pool = Dbh_util.Pool

type config = {
  host : string;
  port : int;
  metrics_port : int option;
  admission : Admission.config;
  max_payload : int;
  idle_timeout : float;
  max_connections : int;
  batch_max : int;
  drain_timeout : float;
  so_sndbuf : int option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    metrics_port = None;
    admission = Admission.default_config;
    max_payload = Protocol.default_max_payload;
    idle_timeout = 10.;
    max_connections = 256;
    batch_max = 32;
    drain_timeout = 5.;
    so_sndbuf = None;
  }

(* Replies leave through the connection's outbox.  The batcher writes
   a reply itself only when the socket has room and nothing is queued
   ahead of it; otherwise it appends to the outbox, which the
   connection's writer thread writes out.  So a client that stops
   reading can never stall the serving plane.  The connection thread
   writes its own replies (sheds, pongs, stats) once no other write is
   in flight, so while a peer leaves its replies unread its requests
   stay unread too: the outbox holds only replies to work already
   admitted, until the send timeout sheds the connection. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  send_timeout : float;  (* bound on one flush of the outbox *)
  pending : Condition.t;  (* the outbox has bytes, or the socket died *)
  idle : Condition.t;  (* a write ended, or the socket died *)
  outbox : Buffer.t;  (* encoded replies not yet written; guarded by wmutex *)
  mutable writing : bool;  (* a thread is writing the socket; guarded by wmutex *)
  mutable writable : bool;  (* guarded by wmutex *)
  mutable writer : Thread.t option;
}

type 'a t = {
  config : config;
  shards : 'a Shards.t;
  pool : Pool.t option;
  decode : string -> 'a;
  admission : Admission.t;
  sm : Serve_metrics.t;
  reg : Registry.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics_fd : Unix.file_descr option;
  metrics_bound : int option;
  stop_flag : bool Atomic.t;
  conns : (int, conn) Hashtbl.t;
  conns_mutex : Mutex.t;
  mutable conn_seq : int;
  mutable live_conn_threads : int;  (* guarded by conns_mutex *)
  conn_threads_done : Condition.t;  (* signalled when live_conn_threads drops *)
  mutable accept_thread : Thread.t option;
  mutable batcher_domain : unit Domain.t option;
  mutable metrics_thread : Thread.t option;
  stop_mutex : Mutex.t;
  stopped : Condition.t;
  mutable stop_started : bool;
  mutable stop_done : bool;
}

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

(* Once a reply cannot be delivered the stream is useless (the peer
   would see a gap), so the socket is shut down too: that unblocks the
   connection thread's read so the connection gets reaped instead of
   lingering.  Called under wmutex. *)
let kill_writes c =
  c.writable <- false;
  Buffer.reset c.outbox;
  (try Unix.shutdown c.fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Condition.broadcast c.pending;
  Condition.broadcast c.idle

(* Called under wmutex by whoever held the write. *)
let write_done c ~ok =
  c.writing <- false;
  if not ok then kill_writes c
  else begin
    if Buffer.length c.outbox > 0 then Condition.signal c.pending;
    Condition.broadcast c.idle
  end

(* Write the whole outbox outside the lock, so appending never waits on
   the socket.  [SO_SNDTIMEO] bounds each write call; the deadline
   bounds the flush, since a peer that takes a few bytes now and then
   would keep every call just inside it.  Called under wmutex, with no
   write in flight. *)
let flush c =
  let s = Buffer.contents c.outbox in
  Buffer.clear c.outbox;
  c.writing <- true;
  Mutex.unlock c.wmutex;
  let ok =
    try
      let deadline = Unix.gettimeofday () +. c.send_timeout in
      let off = ref 0 in
      while !off < String.length s do
        if Unix.gettimeofday () > deadline then raise Exit;
        off := !off + Unix.single_write_substring c.fd s !off (String.length s - !off)
      done;
      true
    with Exit | Unix.Unix_error _ | Sys_error _ -> false
  in
  Mutex.lock c.wmutex;
  write_done c ~ok

(* A descriptor past select's limit raises, and its replies take the
   outbox. *)
let has_room fd =
  match Unix.select [] [ fd ] [] 0. with
  | _, [], _ -> false
  | _ -> true
  | exception Unix.Unix_error _ -> false

(* Best-effort reply from the batcher (or the drain), which must never
   wait on a peer: written at once when the socket has room and nothing
   is queued ahead of it, otherwise left to the writer thread.  A failed
   write must never take a server thread down. *)
let post_response c ~id resp =
  let s = Protocol.encode_response ~id resp in
  Mutex.lock c.wmutex;
  if c.writable then
    if (not c.writing) && Buffer.length c.outbox = 0 && has_room c.fd then begin
      c.writing <- true;
      Mutex.unlock c.wmutex;
      let n =
        try Unix.single_write_substring c.fd s 0 (String.length s)
        with Unix.Unix_error _ | Sys_error _ -> -1
      in
      Mutex.lock c.wmutex;
      if n > 0 && c.writable then
        Buffer.add_substring c.outbox s n (String.length s - n);
      write_done c ~ok:(n > 0)
    end
    else begin
      Buffer.add_string c.outbox s;
      Condition.signal c.pending
    end;
  Mutex.unlock c.wmutex

(* A reply from the connection's own thread: wait for any write in
   flight, then write it with whatever the batcher left meanwhile.  A
   peer that does not read blocks only its own connection thread, for at
   most the send timeout. *)
let send_response c ~id resp =
  let s = Protocol.encode_response ~id resp in
  Mutex.lock c.wmutex;
  while c.writable && c.writing do
    Condition.wait c.idle c.wmutex
  done;
  if c.writable then begin
    Buffer.add_string c.outbox s;
    flush c
  end;
  Mutex.unlock c.wmutex

let writer_loop c () =
  Mutex.lock c.wmutex;
  while c.writable do
    if c.writing || Buffer.length c.outbox = 0 then Condition.wait c.pending c.wmutex
    else flush c
  done;
  Mutex.unlock c.wmutex

(* Replies still waiting in an outbox, for the drain. *)
let unsent c =
  Mutex.lock c.wmutex;
  let n = c.writable && (c.writing || Buffer.length c.outbox > 0) in
  Mutex.unlock c.wmutex;
  n

let listen_on ~host ~port =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd SO_REUSEADDR true;
     Unix.bind fd addr;
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  let bound =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  (fd, bound)

let register_conn srv fd =
  Mutex.lock srv.conns_mutex;
  let c =
    srv.conn_seq <- srv.conn_seq + 1;
    {
      cid = srv.conn_seq;
      fd;
      wmutex = Mutex.create ();
      send_timeout = srv.config.idle_timeout;
      pending = Condition.create ();
      idle = Condition.create ();
      outbox = Buffer.create 256;
      writing = false;
      writable = true;
      writer = None;
    }
  in
  c.writer <- Some (Thread.create (writer_loop c) ());
  Hashtbl.replace srv.conns c.cid c;
  let open_now = Hashtbl.length srv.conns in
  Mutex.unlock srv.conns_mutex;
  Registry.set srv.sm.connections_open open_now;
  c

let forget_conn srv c =
  Mutex.lock srv.conns_mutex;
  Hashtbl.remove srv.conns c.cid;
  let open_now = Hashtbl.length srv.conns in
  Mutex.unlock srv.conns_mutex;
  Registry.set srv.sm.connections_open open_now;
  (* No write runs under wmutex.  Once writable is false no new write
     can start; the shutdown fails the one in flight (EPIPE) at once,
     and waiting for it to end keeps the close below from racing it:
     a write after the close could reach whatever socket reuses the
     descriptor. *)
  Mutex.lock c.wmutex;
  kill_writes c;
  while c.writing do
    Condition.wait c.idle c.wmutex
  done;
  Mutex.unlock c.wmutex;
  Option.iter Thread.join c.writer;
  try Unix.close c.fd with Unix.Unix_error _ -> ()

let conn_count srv =
  Mutex.lock srv.conns_mutex;
  let n = Hashtbl.length srv.conns in
  Mutex.unlock srv.conns_mutex;
  n

(* Admission-side handling of one decoded frame, on the connection
   thread.  Cheap requests are answered inline; work is offered to the
   queue and shed with an explicit reason when it cannot be taken. *)
let handle_frame srv c (frame : Protocol.frame) =
  Registry.inc srv.sm.requests_total;
  let reply resp = send_response c ~id:frame.id resp in
  let post resp = post_response c ~id:frame.id resp in
  let bad msg =
    Registry.inc srv.sm.bad_requests_total;
    reply (Protocol.Bad_request msg)
  in
  match Protocol.request_of_frame frame with
  | Error msg -> bad msg
  | Ok Protocol.Ping -> reply Protocol.Pong
  | Ok Protocol.Stats -> reply (Protocol.Stats_reply (Shards.stats_json srv.shards))
  | Ok req -> (
      let tenant, deadline_ms, requested =
        match req with
        | Protocol.Search s -> (s.tenant, s.deadline_ms, s.budget)
        | Protocol.Insert i -> (i.tenant, i.deadline_ms, 0)
        | Protocol.Delete d -> (d.tenant, d.deadline_ms, 0)
        | Protocol.Ping | Protocol.Stats -> assert false
      in
      let decodes payload =
        match srv.decode payload with _ -> true | exception _ -> false
      in
      let invalid =
        match req with
        | Protocol.Search s ->
            if s.radius > Dbh.Key.max_radius then
              Some
                (Printf.sprintf "radius %d exceeds max %d" s.radius
                   Dbh.Key.max_radius)
            else if not (decodes s.payload) then Some "payload does not decode"
            else None
        | Protocol.Insert i ->
            if not (decodes i.payload) then Some "payload does not decode"
            else None
        | _ -> None
      in
      match invalid with
      | Some msg -> bad msg
      | None -> (
          let now = Unix.gettimeofday () in
          let deadline = Admission.resolve_deadline srv.admission ~now ~deadline_ms in
          let budget =
            Admission.budget_for srv.admission ~tenant ~remaining:(deadline -. now)
              ~requested
          in
          let item =
            {
              Admission.request = req;
              id = frame.id;
              tenant;
              deadline;
              budget;
              enqueued_at = now;
              reply = post;
            }
          in
          match Admission.admit srv.admission ~now item with
          | Admission.Admitted ->
              Registry.inc srv.sm.accepted_total;
              Registry.set srv.sm.queue_depth (Admission.depth srv.admission)
          | Admission.Shed_rate wait ->
              Registry.inc srv.sm.shed_rate_total;
              reply
                (Protocol.Overloaded
                   { retry_after_ms = max 1 (int_of_float (ceil (wait *. 1000.))) })
          | Admission.Shed_queue ->
              Registry.inc srv.sm.shed_queue_total;
              reply (Protocol.Overloaded { retry_after_ms = 50 })
          | Admission.Shed_draining ->
              Registry.inc srv.sm.shed_drain_total;
              reply (Protocol.Overloaded { retry_after_ms = 1000 })))

(* One thread per connection: read, deframe, dispatch.  The receive
   timeout (SO_RCVTIMEO) plus the partial-frame deadline kill idlers and
   slow-loris writers; corrupt framing kills the stream. *)
let conn_loop srv c () =
  let cap = Protocol.header_bytes + srv.config.max_payload + 64 in
  let buf = ref (Bytes.create 16384) in
  let len = ref 0 in
  let partial_since = ref None in
  let alive = ref true in
  let kill () =
    Registry.inc srv.sm.connections_killed_total;
    alive := false
  in
  (while !alive do
     if !len = Bytes.length !buf then
       if Bytes.length !buf >= cap then kill ()
       else begin
         let nbuf = Bytes.create (min cap (2 * Bytes.length !buf)) in
         Bytes.blit !buf 0 nbuf 0 !len;
         buf := nbuf
       end;
     if !alive then begin
       match Unix.read c.fd !buf !len (Bytes.length !buf - !len) with
       | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | ETIMEDOUT), _, _) ->
           kill ()
       | exception Unix.Unix_error _ -> alive := false
       | exception Sys_error _ -> alive := false
       | 0 -> alive := false
       | n ->
           len := !len + n;
           let off = ref 0 in
           let continue = ref true in
           while !continue do
             match
               Protocol.decode_frame ~max_payload:srv.config.max_payload !buf
                 ~off:!off ~len:(!len - !off)
             with
             | `Frame (frame, consumed) ->
                 off := !off + consumed;
                 (* Work for a peer that can no longer be answered
                    would only take queue slots from the others. *)
                 if c.writable then handle_frame srv c frame
                 else begin
                   alive := false;
                   continue := false
                 end
             | `Need_more -> continue := false
             | `Corrupt msg ->
                 Registry.inc srv.sm.bad_frames_total;
                 send_response c ~id:0L (Protocol.Bad_request msg);
                 kill ();
                 continue := false
           done;
           if !off > 0 then begin
             Bytes.blit !buf !off !buf 0 (!len - !off);
             len := !len - !off
           end;
           if !len = 0 then partial_since := None
           else if !off > 0 then partial_since := Some (Unix.gettimeofday ())
           else begin
             match !partial_since with
             | None -> partial_since := Some (Unix.gettimeofday ())
             | Some t0 ->
                 if Unix.gettimeofday () -. t0 > srv.config.idle_timeout then
                   kill ()
           end
     end
   done;
   forget_conn srv c)

let accept_loop srv () =
  while not (Atomic.get srv.stop_flag) do
    match Unix.select [ srv.listen_fd ] [] [] 0.2 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept srv.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
            Registry.inc srv.sm.connections_total;
            if
              Atomic.get srv.stop_flag
              || conn_count srv >= srv.config.max_connections
            then begin
              Registry.inc srv.sm.connections_killed_total;
              try Unix.close fd with Unix.Unix_error _ -> ()
            end
            else begin
              (try Unix.setsockopt fd TCP_NODELAY true
               with Unix.Unix_error _ -> ());
              Unix.setsockopt_float fd SO_RCVTIMEO srv.config.idle_timeout;
              (* The send timeout bounds every reply write: a client
                 that pipelines requests but never reads fills the
                 kernel send buffer, and without this its writer and
                 connection threads would block on it forever. *)
              Unix.setsockopt_float fd SO_SNDTIMEO srv.config.idle_timeout;
              (match srv.config.so_sndbuf with
              | Some b -> (
                  try Unix.setsockopt_int fd SO_SNDBUF b
                  with Unix.Unix_error _ -> ())
              | None -> ());
              let c = register_conn srv fd in
              Mutex.lock srv.conns_mutex;
              srv.live_conn_threads <- srv.live_conn_threads + 1;
              Mutex.unlock srv.conns_mutex;
              (* Threads are counted, not retained: OCaml systhreads
                 need no join to be reclaimed, and keeping a Thread.t
                 per connection for the server's lifetime leaks memory
                 proportional to total connections ever accepted. *)
              ignore
                (Thread.create
                   (fun () ->
                     Fun.protect (conn_loop srv c)
                       ~finally:(fun () ->
                         Mutex.lock srv.conns_mutex;
                         srv.live_conn_threads <- srv.live_conn_threads - 1;
                         Condition.broadcast srv.conn_threads_done;
                         Mutex.unlock srv.conns_mutex))
                   ())
            end)
  done;
  try Unix.close srv.listen_fd with Unix.Unix_error _ -> ()

let refresh_tenant_gauges srv ~now =
  let tokens = Admission.tenant_tokens srv.admission ~now in
  List.iter
    (fun (name, g) ->
      match List.assoc_opt name tokens with
      | Some v -> Registry.set g (int_of_float v)
      | None -> ())
    srv.sm.tenant_tokens

let finish srv item resp =
  item.Admission.reply resp;
  Registry.observe srv.sm.request_seconds
    (Unix.gettimeofday () -. item.Admission.enqueued_at)

(* Execute one micro-batch.  Writes run first, in arrival order, so a
   client pipelining insert-then-search on one connection observes its
   own write; searches then run as one fan-out over the shards. *)
let run_batch srv items =
  Registry.inc srv.sm.batches_total;
  Registry.observe srv.sm.batch_size (float_of_int (List.length items));
  let now = Unix.gettimeofday () in
  let live, dead =
    List.partition (fun it -> it.Admission.deadline > now) items
  in
  List.iter
    (fun it ->
      Registry.inc srv.sm.timed_out_total;
      finish srv it Protocol.Timed_out)
    dead;
  let searches, writes =
    List.partition
      (fun it ->
        match it.Admission.request with Protocol.Search _ -> true | _ -> false)
      live
  in
  List.iter
    (fun it ->
      match it.Admission.request with
      | Protocol.Insert { payload; _ } -> (
          match Shards.insert srv.shards (srv.decode payload) with
          | handle -> finish srv it (Protocol.Inserted { handle })
          | exception e ->
              finish srv it (Protocol.Server_error (Printexc.to_string e)))
      | Protocol.Delete { handle; _ } -> (
          match Shards.delete srv.shards handle with
          | () -> finish srv it Protocol.Deleted
          | exception Invalid_argument msg ->
              Registry.inc srv.sm.bad_requests_total;
              finish srv it (Protocol.Bad_request msg)
          | exception e ->
              finish srv it (Protocol.Server_error (Printexc.to_string e)))
      | _ -> assert false)
    writes;
  match searches with
  | [] -> ()
  | _ ->
      let items_arr = Array.of_list searches in
      let specs =
        Array.map
          (fun it ->
            match it.Admission.request with
            | Protocol.Search s ->
                let remaining = it.Admission.deadline -. now in
                let budget =
                  min it.Admission.budget
                    (Admission.budget_for srv.admission ~tenant:it.Admission.tenant
                       ~remaining ~requested:s.budget)
                in
                ( srv.decode s.payload,
                  { Shards.budget; probes = s.probes; radius = s.radius } )
            | _ -> assert false)
          items_arr
      in
      let t0 = Unix.gettimeofday () in
      let answers = Shards.search_many ?pool:srv.pool srv.shards specs in
      let elapsed = Unix.gettimeofday () -. t0 in
      let total_cost =
        Array.fold_left (fun acc (a : Shards.answer) -> acc + a.cost) 0 answers
      in
      (* EWMA of measured distance throughput drives deadline→budget. *)
      if elapsed > 1e-6 && total_cost > 0 then begin
        let measured = float_of_int total_cost /. elapsed in
        let old = Admission.distances_per_second srv.admission in
        Admission.set_distances_per_second srv.admission
          ((0.2 *. measured) +. (0.8 *. old))
      end;
      Array.iteri
        (fun i (a : Shards.answer) ->
          let resp =
            match a.nn with
            | Some (handle, dist) ->
                Protocol.Result
                  { found = true; handle; dist; cost = a.cost; truncated = a.truncated }
            | None ->
                Protocol.Result
                  {
                    found = false;
                    handle = 0;
                    dist = 0.;
                    cost = a.cost;
                    truncated = a.truncated;
                  }
          in
          finish srv items_arr.(i) resp)
        answers

(* The batcher runs on its own domain, not a systhread: every systhread
   of a domain shares that domain's runtime lock, so a batcher thread on
   the accept domain would compete for CPU with the connection threads —
   under a shed storm the serving path would starve and goodput would
   collapse even though the work queue is full.  On a separate domain
   the admission plane (reads, deframing, sheds) and the serving plane
   (search, replies) degrade independently; everything they share —
   admission queue, registry, per-connection write mutexes, the domain
   pool — is mutex- or atomic-protected. *)
let batch_loop srv () =
  let rec loop () =
    match Admission.pop_batch srv.admission ~max:srv.config.batch_max with
    | [] -> ()  (* queue closed and empty: drain complete *)
    | items ->
        Registry.set srv.sm.queue_depth (Admission.depth srv.admission);
        (try run_batch srv items
         with e ->
           (* A batch must never kill the worker: fail its items loudly. *)
           let msg = Printexc.to_string e in
           List.iter
             (fun it -> finish srv it (Protocol.Server_error msg))
             items);
        refresh_tenant_gauges srv ~now:(Unix.gettimeofday ());
        loop ()
  in
  loop ()

(* Minimal HTTP/1.0 responder for GET /metrics — enough for a
   Prometheus scrape or curl, not a web server. *)
let metrics_loop srv fd () =
  while not (Atomic.get srv.stop_flag) do
    match Unix.select [ fd ] [] [] 0.2 with
    | exception Unix.Unix_error (EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept fd with
        | exception Unix.Unix_error _ -> ()
        | cfd, _ ->
            (try
               Unix.setsockopt_float cfd SO_RCVTIMEO 2.;
               (* Send timeout too: a scraper that connects and never
                  reads must not wedge the single metrics thread. *)
               Unix.setsockopt_float cfd SO_SNDTIMEO 2.;
               let buf = Bytes.create 4096 in
               let n = try Unix.read cfd buf 0 4096 with _ -> 0 in
               let req = Bytes.sub_string buf 0 (max n 0) in
               let body, status =
                 if n > 0 && String.length req >= 3 && String.sub req 0 3 = "GET"
                 then (Registry.exposition srv.reg, "200 OK")
                 else ("bad request\n", "400 Bad Request")
               in
               write_all cfd
                 (Printf.sprintf
                    "HTTP/1.0 %s\r\n\
                     Content-Type: text/plain; version=0.0.4\r\n\
                     Content-Length: %d\r\n\
                     Connection: close\r\n\
                     \r\n\
                     %s"
                    status (String.length body) body)
             with Unix.Unix_error _ | Sys_error _ -> ());
            (try Unix.close cfd with Unix.Unix_error _ -> ()))
  done;
  try Unix.close fd with Unix.Unix_error _ -> ()

let start ?pool ?registry ~decode config shards =
  if config.max_payload < 1 || config.max_payload > Protocol.default_max_payload
  then invalid_arg "Server: max_payload out of range";
  if config.idle_timeout <= 0. then invalid_arg "Server: idle_timeout must be > 0";
  if config.max_connections < 1 then
    invalid_arg "Server: max_connections must be >= 1";
  if config.batch_max < 1 then invalid_arg "Server: batch_max must be >= 1";
  if config.drain_timeout < 0. then
    invalid_arg "Server: drain_timeout must be >= 0";
  (match config.so_sndbuf with
  | Some b when b < 1 -> invalid_arg "Server: so_sndbuf must be >= 1"
  | _ -> ());
  (match Sys.os_type with
  | "Unix" -> (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ())
  | _ -> ());
  (* The batcher is the pool's slot 0 and the admission plane is a
     domain of its own, so a pool of p domains keeps p + 1 domains busy.
     With fewer cores than that, the pool's workers only time-slice with
     the batcher: under a shed storm each fan-out waits on the scheduler,
     and the batcher serves less than it would alone.  There it searches
     every shard itself. *)
  let pool =
    match pool with
    | Some p when Pool.size p + 1 <= Domain.recommended_domain_count () -> pool
    | _ -> None
  in
  let reg = match registry with Some r -> r | None -> Registry.create () in
  let sm =
    Serve_metrics.on reg ~tenants:(List.map fst config.admission.classes)
  in
  let admission = Admission.create config.admission in
  let listen_fd, bound_port = listen_on ~host:config.host ~port:config.port in
  let metrics_fd, metrics_bound =
    match config.metrics_port with
    | None -> (None, None)
    | Some p ->
        let fd, bound =
          try listen_on ~host:config.host ~port:p
          with e ->
            (try Unix.close listen_fd with _ -> ());
            raise e
        in
        (Some fd, Some bound)
  in
  let srv =
    {
      config;
      shards;
      pool;
      decode;
      admission;
      sm;
      reg;
      listen_fd;
      bound_port;
      metrics_fd;
      metrics_bound;
      stop_flag = Atomic.make false;
      conns = Hashtbl.create 64;
      conns_mutex = Mutex.create ();
      conn_seq = 0;
      live_conn_threads = 0;
      conn_threads_done = Condition.create ();
      accept_thread = None;
      batcher_domain = None;
      metrics_thread = None;
      stop_mutex = Mutex.create ();
      stopped = Condition.create ();
      stop_started = false;
      stop_done = false;
    }
  in
  srv.accept_thread <- Some (Thread.create (accept_loop srv) ());
  srv.batcher_domain <- Some (Domain.spawn (batch_loop srv));
  (match metrics_fd with
  | Some fd -> srv.metrics_thread <- Some (Thread.create (metrics_loop srv fd) ())
  | None -> ());
  srv

let port srv = srv.bound_port
let metrics_port srv = srv.metrics_bound
let registry srv = srv.reg
let metrics srv = srv.sm
let draining srv = Atomic.get srv.stop_flag

let rec wait srv =
  Mutex.lock srv.stop_mutex;
  while not srv.stop_done do
    Condition.wait srv.stopped srv.stop_mutex
  done;
  Mutex.unlock srv.stop_mutex

and stop ?kill srv =
  Mutex.lock srv.stop_mutex;
  if srv.stop_started then begin
    Mutex.unlock srv.stop_mutex;
    ignore kill;
    wait srv
  end
  else begin
    srv.stop_started <- true;
    Mutex.unlock srv.stop_mutex;
    (* 1. Stop accepting; shed everything newly offered. *)
    Atomic.set srv.stop_flag true;
    Registry.set srv.sm.draining 1;
    Admission.start_draining srv.admission;
    (* 2. Let the batcher finish what was admitted, within the window. *)
    let give_up = Unix.gettimeofday () +. srv.config.drain_timeout in
    while Admission.depth srv.admission > 0 && Unix.gettimeofday () < give_up do
      Thread.yield ();
      Unix.sleepf 0.01
    done;
    List.iter
      (fun it ->
        Registry.inc srv.sm.shed_drain_total;
        it.Admission.reply (Protocol.Overloaded { retry_after_ms = 1000 }))
      (Admission.drain_remaining srv.admission);
    Admission.close srv.admission;
    (match srv.batcher_domain with Some d -> Domain.join d | None -> ());
    (* 3. Take the connections down: no more admissions are possible, so
       shutting the sockets only interrupts reads.  Join the accept
       thread first so no new connection thread can appear after the
       snapshot below, and give the outboxes what is left of the window
       to deliver the batcher's last replies. *)
    (match srv.accept_thread with Some th -> Thread.join th | None -> ());
    Mutex.lock srv.conns_mutex;
    let open_conns = Hashtbl.fold (fun _ c acc -> c :: acc) srv.conns [] in
    Mutex.unlock srv.conns_mutex;
    while List.exists unsent open_conns && Unix.gettimeofday () < give_up do
      Unix.sleepf 0.005
    done;
    List.iter
      (fun c ->
        Mutex.lock c.wmutex;
        kill_writes c;
        Mutex.unlock c.wmutex)
      open_conns;
    Mutex.lock srv.conns_mutex;
    while srv.live_conn_threads > 0 do
      Condition.wait srv.conn_threads_done srv.conns_mutex
    done;
    Mutex.unlock srv.conns_mutex;
    (match srv.metrics_thread with Some th -> Thread.join th | None -> ());
    (* 4. Make the on-disk state cheap to reopen, then close it. *)
    Fun.protect
      ~finally:(fun () ->
        Shards.close srv.shards;
        Registry.set srv.sm.draining 0;
        Mutex.lock srv.stop_mutex;
        srv.stop_done <- true;
        Condition.broadcast srv.stopped;
        Mutex.unlock srv.stop_mutex)
      (fun () -> Shards.checkpoint ?kill srv.shards)
  end
