(* WAL-shipping read replica.

   A follower opens a leader's durability directory (or a shipped copy
   of it) strictly read-only: load the newest snapshot that verifies,
   then tail the WAL chain — apply records as they become visible,
   follow generation rollovers when the leader checkpoints, and fall
   back to a full reopen when the leader rewrote history under us
   (post-crash truncation, generation GC).  Because the snapshot
   carries the rng state and WAL replay consumes exactly the leader's
   random draws, a caught-up follower is a bit-identical twin: same rng
   state, same query answers.

   Nothing here ever writes inside the tailed directory until
   [promote], which is the point: fencing a fresh generation (snapshot
   + empty WAL above everything the old leader wrote) is exactly the
   write that turns the follower into the leader. *)

module Rng = Dbh_util.Rng
module Retry = Dbh_util.Retry
module Wal = Dbh_persist.Wal
module Layout = Dbh_persist.Layout
module Online = Dbh.Online
module Durable = Dbh.Online.Durable

type status = {
  generation : int;
  wal_offset : int;
  applied : int;
  retries : int;
  reopens : int;
  lag_records : int;
  last_error : string option;
}

type 'a t = {
  dir : string;
  decode : string -> 'a;
  space : 'a Dbh_space.Space.t;
  pool : Dbh_util.Pool.t option;
  config : Dbh.Builder.config option;
  rebuild_factor : float option;
  target_accuracy : float;
  retry : Retry.policy;
  jitter_rng : Rng.t;  (* backoff jitter only — never index randomness *)
  mutable online : 'a Online.t;
  mutable wal_gen : int;  (* generation of the log being tailed *)
  mutable cursor : int * int;  (* (byte offset, next sequence) into it *)
  mutable applied : int;
  mutable retries : int;
  mutable reopens : int;
  mutable attempt : int;  (* consecutive unproductive polls *)
  mutable promoted : bool;
  mutable closed : bool;
  mutable last_error : string option;
  (* Fired between a WAL read and the decision taken on it — lets the
     chaos tests interleave a leader append+checkpoint at exactly the
     racy instant.  Never set outside tests. *)
  mutable after_read_for_testing : (unit -> unit) option;
}

let set_after_read_hook_for_testing t hook = t.after_read_for_testing <- hook

let record_counter pick =
  match Dbh_obs.Metrics.get () with
  | None -> ()
  | Some m -> Dbh_obs.Registry.inc (pick m)

let set_gauge pick v =
  match Dbh_obs.Metrics.get () with
  | None -> ()
  | Some m -> Dbh_obs.Registry.set (pick m) v

let ensure_follower t =
  if t.promoted then invalid_arg "Replica: already promoted to leader";
  if t.closed then invalid_arg "Replica: closed"

(* ------------------------------------------------------------- loading *)

(* Newest snapshot that verifies wins, through the loader leader
   recovery uses.  Loading only reads: a corrupt snapshot is skipped,
   never deleted. *)
let load_newest_snapshot ?pool ?config ?rebuild_factor ~space ~target_accuracy ~decode
    ~dir () =
  match
    Durable.load_newest_snapshot ?pool ~space ?config ?rebuild_factor ~target_accuracy
      ~decode ~dir ()
  with
  | Some loaded, _ -> loaded
  | None, skipped ->
      let detail =
        if skipped = [] then "directory holds no snapshot"
        else
          String.concat "; "
            (List.map (fun (g, m) -> Printf.sprintf "gen %d: %s" g m) skipped)
      in
      Printf.ksprintf failwith "Replica: no loadable snapshot in %s: %s" dir detail

let load t =
  let g, o =
    load_newest_snapshot ?pool:t.pool ?config:t.config ?rebuild_factor:t.rebuild_factor
      ~space:t.space ~target_accuracy:t.target_accuracy ~decode:t.decode ~dir:t.dir ()
  in
  t.online <- o;
  t.wal_gen <- g;
  t.cursor <- (0, 1)

let reopen t =
  t.reopens <- t.reopens + 1;
  record_counter (fun m -> m.Dbh_obs.Metrics.replica_reopens_total);
  load t

(* ------------------------------------------------------------- tailing *)

let wal_path t g = Layout.wal_path ~dir:t.dir g
let newer_wal_exists t = Sys.file_exists (wal_path t (t.wal_gen + 1))

let apply_payloads t payloads =
  let n = Array.length payloads in
  if n > 0 then begin
    Array.iter (Durable.apply_record ~decode:t.decode t.online) payloads;
    t.applied <- t.applied + n;
    match Dbh_obs.Metrics.get () with
    | None -> ()
    | Some m -> Dbh_obs.Registry.add m.Dbh_obs.Metrics.replica_applied_total n
  end;
  n

(* Apply every record currently visible, following generation
   rollovers.  [reopened] caps full reloads at one per poll so a
   directory in a bad state degrades to periodic retries instead of a
   reopen storm.

   Rollover discipline: [wal-(g+1)] appearing means the leader
   checkpointed and will never append to [wal-g] again — but only an
   observation taken BEFORE reading [wal-g] proves the read covered
   the closed log in full.  Deciding on an observation taken after
   the read races the checkpoint: the leader may append tail records
   to gen [g] and roll over between our read and the check, and
   switching logs then would silently skip those records (with
   generation GC free to delete the evidence).  So we observe first
   and read second; when the newer log appears only after a clean-EOF
   read, gen [g] is re-read one final time before switching. *)
let rec drain t ~reopened =
  let off, seq = t.cursor in
  let path = wal_path t t.wal_gen in
  (* Before the read, so a clean EOF below proves full coverage. *)
  let closed_before_read = newer_wal_exists t in
  if not (Sys.file_exists path) then begin
    if (off > 0 || closed_before_read) && not reopened then begin
      (* Mid-tail the log vanished (generation GC or post-crash
         cleanup): the records between our cursor and the present are
         only reachable through a newer snapshot. *)
      reopen t;
      drain t ~reopened:true
    end
    else 0 (* nothing on disk yet for this generation *)
  end
  else begin
    let p = Wal.read_valid_prefix ~from:(off, seq) ~path () in
    (match t.after_read_for_testing with Some hook -> hook () | None -> ());
    if p.Wal.prefix_torn && p.Wal.file_bytes < off then begin
      (* The log shrank below our cursor: a recovering leader truncated
         a torn tail past records we already applied, or replaced the
         file.  Incremental state is unusable — reload. *)
      t.last_error <- p.Wal.prefix_torn_reason;
      if reopened then 0
      else begin
        reopen t;
        drain t ~reopened:true
      end
    end
    else begin
      let n = apply_payloads t p.Wal.payloads in
      t.cursor <- (p.Wal.next_offset, p.Wal.next_seq);
      if p.Wal.prefix_torn then
        if closed_before_read && not reopened then begin
          (* A log already closed when we started reading should never
             be torn — this is real corruption, not an append in
             flight.  Reload to get past it. *)
          t.last_error <- p.Wal.prefix_torn_reason;
          reopen t;
          n + drain t ~reopened:true
        end
        else begin
          (* Probably an append in flight: stop at the valid prefix and
             let the next poll retry from here. *)
          t.last_error <- p.Wal.prefix_torn_reason;
          n
        end
      else if closed_before_read then begin
        (* Generation rollover: the log was closed before we read it
           and we read it to a clean EOF, so every record the leader
           put into gen [t.wal_gen] is applied — switching logs IS the
           checkpoint. *)
        t.wal_gen <- t.wal_gen + 1;
        t.cursor <- (0, 1);
        n + drain t ~reopened
      end
      else if newer_wal_exists t then
        (* The leader checkpointed while we were reading: our clean
           EOF may predate tail records appended to this gen just
           before the rollover.  Go around once more — the newer log
           is now observed up front, so the next read drains the
           closed log and rolls over (or reopens if GC already
           removed it). *)
        n + drain t ~reopened
      else begin
        if n > 0 then t.last_error <- None;
        n
      end
    end
  end

(* Records visible on disk past the cursor, without applying anything —
   the instantaneous replication lag. *)
let lag_records t =
  if t.promoted || t.closed then 0
  else begin
    let rec count gen from acc =
      let path = wal_path t gen in
      if not (Sys.file_exists path) then acc
      else
        let p = Wal.read_valid_prefix ~from ~path () in
        let acc = acc + Array.length p.Wal.payloads in
        if p.Wal.prefix_torn then acc
        else if Sys.file_exists (wal_path t (gen + 1)) then count (gen + 1) (0, 1) acc
        else acc
    in
    let lag = count t.wal_gen t.cursor 0 in
    set_gauge (fun m -> m.Dbh_obs.Metrics.replica_lag_records) lag;
    lag
  end

(* Staleness in seconds: age of the newest leader WAL write we have not
   applied.  0 when caught up. *)
let lag_seconds t =
  if t.promoted || t.closed || lag_records t = 0 then 0.
  else begin
    let newest =
      List.fold_left
        (fun acc g ->
          match Unix.stat (wal_path t g) with
          | st -> Float.max acc st.Unix.st_mtime
          | exception Unix.Unix_error _ -> acc)
        0.
        (Layout.wal_generations ~dir:t.dir)
    in
    let s = if newest = 0. then 0. else Float.max 0. (Unix.gettimeofday () -. newest) in
    set_gauge (fun m -> m.Dbh_obs.Metrics.replica_lag_seconds) (int_of_float s);
    s
  end

let poll t =
  ensure_follower t;
  let n = drain t ~reopened:false in
  if n = 0 then begin
    t.attempt <- t.attempt + 1;
    if lag_records t > 0 then begin
      t.retries <- t.retries + 1;
      record_counter (fun m -> m.Dbh_obs.Metrics.replica_retries_total)
    end
  end
  else begin
    t.attempt <- 0;
    ignore (lag_records t)
  end;
  n

let backoff t = Retry.backoff ~rng:t.jitter_rng t.retry ~attempt:(max 1 t.attempt)

let catch_up ?(stall_limit = 8) ?deadline t =
  ensure_follower t;
  let started = Unix.gettimeofday () in
  let total = ref 0 in
  let stalled = ref 0 in
  let continue = ref true in
  while !continue do
    let n = poll t in
    total := !total + n;
    if lag_records t = 0 then continue := false
    else begin
      if n = 0 then incr stalled else stalled := 0;
      if !stalled >= stall_limit then continue := false
      else begin
        (* Under a caller deadline the backoff ladder is capped so the
           whole catch-up never exceeds the time budget: the last sleep
           is clamped to the remaining window, and a spent budget stops
           the loop with the lag still unapplied (see [status]). *)
        match deadline with
        | None -> Unix.sleepf (backoff t)
        | Some deadline -> (
            let elapsed = Unix.gettimeofday () -. started in
            match
              Retry.backoff_within ~rng:t.jitter_rng ~deadline ~elapsed t.retry
                ~attempt:(max 1 t.attempt)
            with
            | None -> continue := false
            | Some d -> Unix.sleepf d)
      end
    end
  done;
  ignore (lag_seconds t);
  !total

(* ------------------------------------------------------------- queries *)

let online t = t.online
let size t = Online.size t.online
let generation t = t.wal_gen
let applied t = t.applied
let rng_state t = Online.rng_state t.online
let dir t = t.dir

let status t =
  {
    generation = t.wal_gen;
    wal_offset = fst t.cursor;
    applied = t.applied;
    retries = t.retries;
    reopens = t.reopens;
    lag_records = lag_records t;
    last_error = t.last_error;
  }

let search ?opts t q = Online.search ?opts t.online q
let search_batch ?opts t qs = Online.search_batch ?opts t.online qs
let get t handle = Online.get t.online handle

(* ------------------------------------------------------------- opening *)

let open_ ?pool ?config ?rebuild_factor ?(retry = Retry.default) ?(jitter_seed = 0)
    ~space ~target_accuracy ~decode ~dir () =
  let g, o =
    load_newest_snapshot ?pool ?config ?rebuild_factor ~space ~target_accuracy ~decode
      ~dir ()
  in
  {
    dir;
    decode;
    space;
    pool;
    config;
    rebuild_factor;
    target_accuracy;
    retry;
    jitter_rng = Rng.create jitter_seed;
    online = o;
    wal_gen = g;
    cursor = (0, 1);
    applied = 0;
    retries = 0;
    reopens = 0;
    attempt = 0;
    promoted = false;
    closed = false;
    last_error = None;
    after_read_for_testing = None;
  }

(* ----------------------------------------------------------- promotion *)

let promote ?fsync ~encode t =
  ensure_follower t;
  (* Apply everything already visible, then fence: a snapshot and fresh
     WAL one generation above anything the old leader wrote make every
     older log superseded history — records a zombie leader appends
     after this point are behind the fence and can never be replayed
     over the new timeline. *)
  ignore (drain t ~reopened:false);
  let max_gen =
    List.fold_left max t.wal_gen
      (Layout.snapshot_generations ~dir:t.dir @ Layout.wal_generations ~dir:t.dir)
  in
  let handle =
    Durable.attach ?fsync ~encode ~decode:t.decode ~dir:t.dir ~generation:(max_gen + 1)
      t.online
  in
  t.promoted <- true;
  record_counter (fun m -> m.Dbh_obs.Metrics.replica_promotions_total);
  set_gauge (fun m -> m.Dbh_obs.Metrics.replica_lag_records) 0;
  set_gauge (fun m -> m.Dbh_obs.Metrics.replica_lag_seconds) 0;
  handle

(* ------------------------------------------------------------ shipping *)

(* One sync step of leader-directory files into a follower directory —
   the "rsync" of WAL shipping, for deployments where the follower
   cannot read the leader's filesystem directly.  Reads [src] strictly
   read-only; snapshots are copied once (they are write-once per
   generation name), WALs are appended incrementally, and a WAL that
   shrank or diverged in [src] (post-crash truncation) is recopied
   wholesale. *)

(* Trailing bytes of an already-shipped WAL prefix re-verified against
   [src] before appending — large enough that re-appended records
   byte-matching the torn garbage they replaced across the whole window
   is not a realistic coincidence. *)
let ship_overlap_bytes = 65536

let read_file path ~from =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      if from >= len then ""
      else begin
        seek_in ic from;
        really_input_string ic (len - from)
      end)

let read_slice path ~pos ~len =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic pos;
      really_input_string ic len)

let file_size path = match Unix.stat path with
  | st -> Some st.Unix.st_size
  | exception Unix.Unix_error _ -> None

let append_file path data ~truncate =
  let flags =
    if truncate then [ Open_wronly; Open_creat; Open_trunc; Open_binary ]
    else [ Open_wronly; Open_creat; Open_append; Open_binary ]
  in
  let oc = open_out_gen flags 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let ship ~src ~dst () =
  Layout.ensure_dir dst;
  let copied = ref 0 in
  List.iter
    (fun g ->
      let s = Layout.snapshot_path ~dir:src g in
      let d = Layout.snapshot_path ~dir:dst g in
      match (file_size s, file_size d) with
      | Some n, Some m when n = m -> ()
      | Some _, _ ->
          let data = read_file s ~from:0 in
          append_file d data ~truncate:true;
          copied := !copied + String.length data
      | None, _ -> ())
    (Layout.snapshot_generations ~dir:src);
  List.iter
    (fun g ->
      let s = Layout.wal_path ~dir:src g in
      let d = Layout.wal_path ~dir:dst g in
      match file_size s with
      | None -> ()
      | Some src_len ->
          let dst_len = Option.value ~default:0 (file_size d) in
          (* Growth alone does not prove pure append: a crash-recovering
             leader can truncate a torn tail and re-append past the
             shipped length within one ship interval.  A rewrite below
             [dst_len] starts at the old valid-prefix boundary and
             rewrites everything after it, so it always reaches into the
             trailing window of what we shipped — re-read that window
             from both sides and recopy wholesale on any mismatch, as
             for shrinkage. *)
          let overlap = min dst_len ship_overlap_bytes in
          let prefix_intact =
            src_len >= dst_len
            && (overlap = 0
                || read_slice s ~pos:(dst_len - overlap) ~len:overlap
                   = read_slice d ~pos:(dst_len - overlap) ~len:overlap)
          in
          if not prefix_intact then begin
            (* Shrunk or diverged in [src]: our copy's tail is not the
               leader's history — replace it wholesale. *)
            let data = read_file s ~from:0 in
            append_file d data ~truncate:true;
            copied := !copied + String.length data
          end
          else if src_len > dst_len then begin
            let data = read_file s ~from:dst_len in
            append_file d data ~truncate:false;
            copied := !copied + String.length data
          end)
    (Layout.wal_generations ~dir:src);
  !copied

(* ----------------------------------------------------- follow & close *)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (* The cursor state is dropped with the handle; flush the lag gauges
       so a scraper never keeps reading stale lag from a dead follower. *)
    set_gauge (fun m -> m.Dbh_obs.Metrics.replica_lag_records) 0;
    set_gauge (fun m -> m.Dbh_obs.Metrics.replica_lag_seconds) 0
  end

let closed t = t.closed

(* The tail-forever loop `dbh-cli replicate --follow` runs, factored
   here so a signal-driven shutdown can be regression-tested without a
   subprocess: [should_stop] is polled between small sleep slices (a
   SIGINT/SIGTERM handler flips an atomic), and returning — instead of
   dying mid-poll — closes the replica and flushes its gauges. *)
let follow ?ship_from ?(interval = 1.0) ?(should_stop = fun () -> false)
    ?(on_round = fun ~shipped:_ ~applied:_ -> ()) t =
  ensure_follower t;
  let sleep_slice = 0.05 in
  let sleep_interruptible total =
    let remaining = ref total in
    while !remaining > 0. && not (should_stop ()) do
      let step = Float.min sleep_slice !remaining in
      (try Unix.sleepf step with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      remaining := !remaining -. step
    done
  in
  while not (should_stop ()) do
    let shipped =
      match ship_from with None -> 0 | Some src -> ship ~src ~dst:t.dir ()
    in
    let applied = poll t in
    on_round ~shipped ~applied;
    if not (should_stop ()) then sleep_interruptible interval
  done;
  close t
