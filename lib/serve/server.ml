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

(* What the batcher runs for one admitted request.  The payload was
   decoded when the request was admitted, so it is never decoded twice. *)
type 'a work =
  | Search of { query : 'a; budget : int; probes : int; radius : int }
  | Insert of 'a
  | Delete of int

(* One connection.  Its socket is non-blocking.  The admission thread
   owns the read side (the frame buffer and the receive clocks) and is
   the only thread that closes the socket.  Replies go through [send],
   from the admission thread or the batcher: written at once when
   nothing is queued ahead of them, and what the socket does not take
   waits in the outbox until the admission thread writes it out.  A
   write never waits on the peer, so holding [wmutex] across one is
   cheap, and since every write checks [writable] under it and the
   socket is closed under it, no write reaches a closed descriptor. *)
type conn = {
  fd : Unix.file_descr;
  wmutex : Mutex.t;
  (* Guarded by wmutex: *)
  outbox : Buffer.t;  (* encoded replies not yet written *)
  mutable queued_at : float;  (* when the outbox last became non-empty *)
  mutable writable : bool;  (* false once the peer cannot be answered *)
  (* Owned by the admission thread: *)
  mutable buf : Bytes.t;  (* bytes received and not yet deframed *)
  mutable len : int;
  mutable heard_at : float;  (* last bytes received, or the outbox last emptied *)
  mutable partial_since : float;  (* a frame incomplete since; infinity when none *)
}

type 'a t = {
  config : config;
  shards : 'a Shards.t;
  pool : Pool.t option;
  decode : string -> 'a;
  admission : 'a work Admission.t;
  sm : Serve_metrics.t;
  reg : Registry.t;
  listen_fd : Unix.file_descr;
  bound_port : int;
  metrics_fd : Unix.file_descr option;
  metrics_bound : int option;
  wake_r : Unix.file_descr;  (* a byte here wakes the admission thread's select *)
  wake_w : Unix.file_descr;
  stop_flag : bool Atomic.t;
  close_by : float Atomic.t;  (* infinity until {!stop} takes the connections down *)
  mutable admission_thread : Thread.t option;
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

let wake srv =
  (* A full pipe already holds a wake-up. *)
  try ignore (Unix.single_write_substring srv.wake_w "!" 0 1)
  with Unix.Unix_error _ -> ()

(* The peer can no longer be answered (the stream would show a gap):
   drop what is queued; the admission thread closes the socket.  Under
   wmutex. *)
let condemn c =
  c.writable <- false;
  Buffer.reset c.outbox

(* Write [s] as far as the socket takes it now; queue the rest.  Under
   wmutex. *)
let write_out c s =
  let len = String.length s in
  match Unix.single_write_substring c.fd s 0 len with
  | n -> if n < len then Buffer.add_substring c.outbox s n (len - n)
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      Buffer.add_string c.outbox s
  | exception (Unix.Unix_error _ | Sys_error _) -> condemn c

(* Send one encoded reply behind whatever is queued.  True when the
   admission thread has news to act on: an outbox to write out, or a
   connection to reap. *)
let send c s =
  Mutex.lock c.wmutex;
  let news =
    if not c.writable then false
    else if Buffer.length c.outbox > 0 then begin
      Buffer.add_string c.outbox s;
      false
    end
    else begin
      write_out c s;
      if Buffer.length c.outbox > 0 then c.queued_at <- Unix.gettimeofday ();
      Buffer.length c.outbox > 0 || not c.writable
    end
  in
  Mutex.unlock c.wmutex;
  news

let alive c = Mutex.protect c.wmutex (fun () -> c.writable)
let drop c = Mutex.protect c.wmutex (fun () -> condemn c)

let kill srv c =
  Registry.inc srv.sm.connections_killed_total;
  drop c

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

(* Offer one decoded request to the queue, or shed it with an explicit
   reason.  The batcher's reply wakes the admission thread only when
   that thread has something to do. *)
let offer srv c ~id ~tenant ~deadline_ms ~requested work =
  let reply resp = ignore (send c (Protocol.encode_response ~id resp)) in
  let now = Unix.gettimeofday () in
  let deadline = Admission.resolve_deadline srv.admission ~now ~deadline_ms in
  let budget =
    Admission.budget_for srv.admission ~tenant ~remaining:(deadline -. now) ~requested
  in
  let item =
    {
      Admission.request = work;
      id;
      tenant;
      deadline;
      budget;
      enqueued_at = now;
      reply = (fun resp -> if send c (Protocol.encode_response ~id resp) then wake srv);
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
      reply (Protocol.Overloaded { retry_after_ms = 1000 })

(* One decoded frame: cheap requests are answered inline, work is
   validated, decoded once and offered to the queue. *)
let handle_frame srv c (frame : Protocol.frame) =
  Registry.inc srv.sm.requests_total;
  let reply resp = ignore (send c (Protocol.encode_response ~id:frame.id resp)) in
  let bad msg =
    Registry.inc srv.sm.bad_requests_total;
    reply (Protocol.Bad_request msg)
  in
  let decoded payload k =
    match srv.decode payload with
    | obj -> k obj
    | exception _ -> bad "payload does not decode"
  in
  let offer = offer srv c ~id:frame.id in
  match Protocol.request_of_frame frame with
  | Error msg -> bad msg
  | Ok Protocol.Ping -> reply Protocol.Pong
  | Ok Protocol.Stats -> reply (Protocol.Stats_reply (Shards.stats_json srv.shards))
  | Ok (Protocol.Search s) ->
      if s.radius > Dbh.Key.max_radius then
        bad (Printf.sprintf "radius %d exceeds max %d" s.radius Dbh.Key.max_radius)
      else
        decoded s.payload (fun query ->
            offer ~tenant:s.tenant ~deadline_ms:s.deadline_ms ~requested:s.budget
              (Search { query; budget = s.budget; probes = s.probes; radius = s.radius }))
  | Ok (Protocol.Insert i) ->
      decoded i.payload (fun obj ->
          offer ~tenant:i.tenant ~deadline_ms:i.deadline_ms ~requested:0 (Insert obj))
  | Ok (Protocol.Delete d) ->
      offer ~tenant:d.tenant ~deadline_ms:d.deadline_ms ~requested:0 (Delete d.handle)

(* Read what the peer sent and handle every complete frame in it.
   Corrupt framing kills the stream; a frame still incomplete starts
   (or keeps) the partial-frame clock. *)
let read_conn srv c ~now =
  let cap = Protocol.header_bytes + srv.config.max_payload + 64 in
  if c.len = Bytes.length c.buf then
    if c.len >= cap then kill srv c
    else begin
      let nbuf = Bytes.create (min cap (2 * c.len)) in
      Bytes.blit c.buf 0 nbuf 0 c.len;
      c.buf <- nbuf
    end;
  if c.len < Bytes.length c.buf then
    match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception (Unix.Unix_error _ | Sys_error _) -> drop c
    | 0 -> drop c
    | n ->
        c.len <- c.len + n;
        c.heard_at <- now;
        let off = ref 0 in
        let continue = ref true in
        while !continue do
          match
            Protocol.decode_frame ~max_payload:srv.config.max_payload c.buf ~off:!off
              ~len:(c.len - !off)
          with
          | `Frame (frame, consumed) ->
              off := !off + consumed;
              (* Work for a peer that can no longer be answered would
                 only take queue slots from the others. *)
              if alive c then handle_frame srv c frame else continue := false
          | `Need_more -> continue := false
          | `Corrupt msg ->
              Registry.inc srv.sm.bad_frames_total;
              ignore (send c (Protocol.encode_response ~id:0L (Protocol.Bad_request msg)));
              kill srv c;
              continue := false
        done;
        if !off > 0 then begin
          Bytes.blit c.buf !off c.buf 0 (c.len - !off);
          c.len <- c.len - !off
        end;
        if c.len = 0 then c.partial_since <- infinity
        else if !off > 0 || c.partial_since = infinity then c.partial_since <- now

(* Write out a queued outbox as far as the socket takes it.  Once it is
   empty the connection is read again, and its receive clock restarts. *)
let flush_conn c ~now =
  Mutex.lock c.wmutex;
  if c.writable && Buffer.length c.outbox > 0 then begin
    let s = Buffer.contents c.outbox in
    Buffer.clear c.outbox;
    write_out c s;
    if Buffer.length c.outbox = 0 then c.heard_at <- now
  end;
  Mutex.unlock c.wmutex

(* select takes only descriptors below FD_SETSIZE. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error _ -> false

let accept_all srv conns ~now =
  let rec go () =
    match Unix.accept srv.listen_fd with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        Registry.inc srv.sm.connections_total;
        if
          Atomic.get srv.stop_flag
          || Hashtbl.length conns >= srv.config.max_connections
          || not (selectable fd)
        then begin
          Registry.inc srv.sm.connections_killed_total;
          try Unix.close fd with Unix.Unix_error _ -> ()
        end
        else begin
          Unix.set_nonblock fd;
          (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
          (match srv.config.so_sndbuf with
          | Some b -> (
              try Unix.setsockopt_int fd SO_SNDBUF b with Unix.Unix_error _ -> ())
          | None -> ());
          Hashtbl.replace conns fd
            {
              fd;
              wmutex = Mutex.create ();
              outbox = Buffer.create 256;
              queued_at = now;
              writable = true;
              buf = Bytes.create 16384;
              len = 0;
              heard_at = now;
              partial_since = infinity;
            }
        end;
        go ()
  in
  go ()

let drain_wake srv =
  let b = Bytes.create 64 in
  try
    while Unix.read srv.wake_r b 0 64 > 0 do
      ()
    done
  with Unix.Unix_error _ -> ()

(* The admission plane: one thread, one select over the listen socket,
   the wake pipe and every connection.  A connection with queued
   replies is watched for room to write them and not read, so a peer
   that leaves its replies unread gets no more requests in; the rest are
   watched for bytes.  Each connection carries the clocks that kill it:
   no bytes, or a frame left incomplete, for [idle_timeout], or an
   outbox not emptied within [idle_timeout] of filling.  Once {!stop}
   sets [close_by], the loop ends when every outbox is delivered or the
   deadline passes, and closes every connection. *)
let admission_loop srv () =
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  let timeout = srv.config.idle_timeout in
  let listening = ref true in
  let close c =
    Mutex.protect c.wmutex (fun () ->
        condemn c;
        try Unix.close c.fd with Unix.Unix_error _ -> ())
  in
  let rec loop () =
    let now = Unix.gettimeofday () in
    if !listening && Atomic.get srv.stop_flag then begin
      listening := false;
      try Unix.close srv.listen_fd with Unix.Unix_error _ -> ()
    end;
    let close_by = Atomic.get srv.close_by in
    let reads = ref [] and writes = ref [] and wake_at = ref close_by in
    Hashtbl.filter_map_inplace
      (fun fd c ->
        Mutex.lock c.wmutex;
        let writable = c.writable and queued = Buffer.length c.outbox > 0 in
        let due =
          if queued then c.queued_at +. timeout
          else Float.min c.heard_at c.partial_since +. timeout
        in
        Mutex.unlock c.wmutex;
        if writable && now > due then kill srv c;
        if writable && now <= due then begin
          if queued then writes := fd :: !writes else reads := fd :: !reads;
          wake_at := Float.min !wake_at due;
          Some c
        end
        else begin
          close c;
          None
        end)
      conns;
    Registry.set srv.sm.connections_open (Hashtbl.length conns);
    if close_by < infinity && (!writes = [] || now >= close_by) then begin
      Hashtbl.iter (fun _ c -> close c) conns;
      Hashtbl.reset conns;
      Registry.set srv.sm.connections_open 0
    end
    else begin
      let watched =
        (srv.wake_r :: (if !listening then [ srv.listen_fd ] else [])) @ !reads
      in
      let wait = if !wake_at = infinity then -1. else Float.max 0. (!wake_at -. now) in
      (match Unix.select watched !writes [] wait with
      | exception Unix.Unix_error (EINTR, _, _) -> ()
      | readable, writable, _ ->
          let now = Unix.gettimeofday () in
          let each f fds =
            List.iter
              (fun fd ->
                match Hashtbl.find_opt conns fd with
                | None -> ()
                | Some c -> (
                    (* One connection's fault must not take the plane down. *)
                    try f c ~now with _ -> drop c))
              fds
          in
          each flush_conn writable;
          each (read_conn srv) readable;
          if List.mem srv.wake_r readable then drain_wake srv;
          if !listening && List.mem srv.listen_fd readable then accept_all srv conns ~now);
      loop ()
    end
  in
  loop ()

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
        match it.Admission.request with Search _ -> true | _ -> false)
      live
  in
  List.iter
    (fun it ->
      match it.Admission.request with
      | Insert obj -> (
          match Shards.insert srv.shards obj with
          | handle -> finish srv it (Protocol.Inserted { handle })
          | exception e ->
              finish srv it (Protocol.Server_error (Printexc.to_string e)))
      | Delete handle -> (
          match Shards.delete srv.shards handle with
          | () -> finish srv it Protocol.Deleted
          | exception Invalid_argument msg ->
              Registry.inc srv.sm.bad_requests_total;
              finish srv it (Protocol.Bad_request msg)
          | exception e ->
              finish srv it (Protocol.Server_error (Printexc.to_string e)))
      | Search _ -> assert false)
    writes;
  match searches with
  | [] -> ()
  | _ ->
      let items_arr = Array.of_list searches in
      let specs =
        Array.map
          (fun it ->
            match it.Admission.request with
            | Search s ->
                let remaining = it.Admission.deadline -. now in
                let budget =
                  min it.Admission.budget
                    (Admission.budget_for srv.admission ~tenant:it.Admission.tenant
                       ~remaining ~requested:s.budget)
                in
                (s.query, { Shards.budget; probes = s.probes; radius = s.radius })
            | Insert _ | Delete _ -> assert false)
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
   of a domain shares that domain's runtime lock, so a batcher thread
   beside the admission thread would compete with it for CPU — under a
   shed storm the serving path would starve and goodput would collapse
   even though the work queue is full.  On a separate domain the
   admission plane (reads, deframing, sheds) and the serving plane
   (search, replies) degrade independently; everything they share —
   admission queue, registry, per-connection write mutexes, the wake
   pipe, the domain pool — is mutex- or atomic-protected. *)
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
  Unix.set_nonblock listen_fd;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
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
      wake_r;
      wake_w;
      stop_flag = Atomic.make false;
      close_by = Atomic.make infinity;
      admission_thread = None;
      batcher_domain = None;
      metrics_thread = None;
      stop_mutex = Mutex.create ();
      stopped = Condition.create ();
      stop_started = false;
      stop_done = false;
    }
  in
  srv.admission_thread <- Some (Thread.create (admission_loop srv) ());
  srv.batcher_domain <- Some (Domain.spawn (batch_loop srv));
  (match metrics_fd with
  | Some fd -> srv.metrics_thread <- Some (Thread.create (metrics_loop srv fd) ())
  | None -> ());
  srv

let port srv = srv.bound_port
let metrics_port srv = srv.metrics_bound
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
    wake srv;
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
    (* 3. Take the connections down: no more admissions are possible.
       The admission thread gives the outboxes what is left of the
       window to deliver the batcher's last replies, then closes every
       connection and ends.  Nothing writes to the wake pipe after. *)
    Atomic.set srv.close_by give_up;
    wake srv;
    Option.iter Thread.join srv.admission_thread;
    Option.iter Thread.join srv.metrics_thread;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ srv.wake_r; srv.wake_w ];
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
