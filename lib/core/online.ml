module Rng = Dbh_util.Rng
module Vec = Dbh_util.Vec

type 'a result = 'a Index.result = {
  nn : (int * float) option;
  stats : Index.stats;
  truncated : bool;
  levels_probed : int;
}

(* One generation of query-visible state, published wholesale through
   an [Atomic.t]: readers load the pointer once and work against an
   internally consistent generation however many rebuilds, compactions
   or updates the (single) writer performs meanwhile.  The writer
   re-publishes after every in-place mutation — the atomic store is the
   release fence that makes the mutation visible to subsequent reader
   loads. *)
type 'a state = {
  index : 'a Hierarchical.t;
  external_of_internal : int Vec.t;  (* internal id -> handle *)
  internal_of_external : (int, int) Hashtbl.t;  (* writer-only *)
  (* Internal ids fully published in this generation.  The writer
     release-stores the new count as the LAST step of an insert;
     readers acquire-load it before probing and skip any id at or past
     it.  The resulting happens-before edge is what makes every
     store/table/handle-map write for an admitted id visible — a plain
     [Vec.length] read would race with the push it is meant to cover. *)
  visible : int Atomic.t;
}

type 'a t = {
  rng : Rng.t;
  space : 'a Dbh_space.Space.t;
  pool : Dbh_util.Pool.t option;  (* used by every (re)build and batched query *)
  config : Builder.config;
  rebuild_factor : float;
  target_accuracy : float;
  (* Stable registry: a handle is its object's id here, and never
     changes.  A deleted handle is a tombstone, whose probes from reader
     domains race the writer's deletes benignly (see [Store]). *)
  registry : 'a Store.t;
  (* Current generation, swapped RCU-style. *)
  published : 'a state Atomic.t;
  mutable built_size : int;
  mutable rebuild_count : int;
}

let current t = Atomic.get t.published

let size t = Store.alive_count t.registry
let tombstones t = Store.length t.registry - Store.alive_count t.registry
let delta_size t = Hierarchical.delta_size (current t).index

let compact t =
  (* Publish a freshly compacted cascade instead of compacting in
     place: concurrent readers drain the old tables while new queries
     see the folded ones — both answer identically. *)
  let s = current t in
  Atomic.set t.published { s with index = Hierarchical.compacted s.index }

let rebuilds t = t.rebuild_count
let space t = t.space
let index t = (current t).index
let rng_state t = Rng.state t.rng

let get t handle =
  if not (Store.is_alive t.registry handle) then
    invalid_arg "Online.get: dead or unknown handle";
  Store.get t.registry handle

let alive_handles t =
  let out = ref [] in
  for h = Store.length t.registry - 1 downto 0 do
    if Store.is_alive t.registry h then out := h :: !out
  done;
  !out

(* Run the full offline pipeline on a snapshot of alive handles. *)
let build_generation ?pool ~rng ~space ~config ~target_accuracy registry handles =
  if Array.length handles = 0 then invalid_arg "Online: cannot build an empty database";
  let db = Array.map (Store.get registry) handles in
  let prepared = Builder.prepare ?pool ~rng ~space ~config db in
  let index = Builder.hierarchical ?pool ~rng ~prepared ~db ~target_accuracy ~config () in
  let external_of_internal = Vec.create () in
  let internal_of_external = Hashtbl.create (Array.length handles) in
  Array.iteri
    (fun internal handle ->
      ignore (Vec.push external_of_internal handle);
      Hashtbl.replace internal_of_external handle internal)
    handles;
  {
    index;
    external_of_internal;
    internal_of_external;
    visible = Atomic.make (Array.length handles);
  }

let create ?pool ~rng ~space ?(config = Builder.default_config) ?(rebuild_factor = 2.0)
    ~target_accuracy db =
  if Array.length db = 0 then invalid_arg "Online.create: empty database";
  if rebuild_factor <= 1.0 then invalid_arg "Online.create: rebuild_factor must exceed 1";
  let registry = Store.of_array db in
  let handles = Array.init (Array.length db) Fun.id in
  let state = build_generation ?pool ~rng ~space ~config ~target_accuracy registry handles in
  {
    rng;
    space;
    pool;
    config;
    rebuild_factor;
    target_accuracy;
    registry;
    published = Atomic.make state;
    built_size = Array.length db;
    rebuild_count = 0;
  }

let record_counter pick =
  match Dbh_obs.Metrics.get () with
  | None -> ()
  | Some m -> Dbh_obs.Registry.inc (pick m)

(* Every rebuild: run the offline pipeline over the alive handles,
   publish the result as the new generation, and count it. *)
let rebuild_now t =
  let handles = Array.of_list (alive_handles t) in
  Atomic.set t.published
    (build_generation ?pool:t.pool ~rng:t.rng ~space:t.space ~config:t.config
       ~target_accuracy:t.target_accuracy t.registry handles);
  t.built_size <- Array.length handles;
  t.rebuild_count <- t.rebuild_count + 1;
  record_counter (fun m -> m.Dbh_obs.Metrics.online_rebuilds_total)

(* The update that calls this has already committed, so a rebuild the
   build rejects (too few objects for the pipeline, or a NaN between two
   stored objects) must not escape it.  Nothing is published before the
   build returns, so the current generation keeps serving.  The failure
   is counted and the thresholds re-anchor at the alive count (at least
   1, as a snapshot requires), so the next attempt waits for another
   [rebuild_factor] of change instead of every later update retrying.
   Replay runs this same code, so a log replays to a twin. *)
let maybe_rebuild t =
  let alive = size t in
  let hi = t.rebuild_factor *. float_of_int t.built_size in
  let lo = float_of_int t.built_size /. t.rebuild_factor in
  if float_of_int alive >= hi || float_of_int alive <= lo then
    try rebuild_now t
    with Invalid_argument _ ->
      t.built_size <- max 1 alive;
      record_counter (fun m -> m.Dbh_obs.Metrics.online_rebuild_failures_total)

(* Hash the object against the current generation, checking every
   distance paid: a NaN or negative one, which the next rebuild's pivot
   table would reject, raises here, before anything is journaled or
   stored. *)
let key t obj = Hierarchical.key (current t).index obj

(* Commit an object [key] hashed. *)
let insert_keyed t obj keyed =
  let handle = Store.add t.registry obj in
  let s = current t in
  let internal = Hierarchical.insert_keyed s.index keyed in
  ignore (Vec.push s.external_of_internal handle);
  Hashtbl.replace s.internal_of_external handle internal;
  (* Last step: release the new id to readers.  Everything above —
     registry slot, store slot, bucket entry, handle-map slot — is
     sequenced before this store, so a reader whose acquire load covers
     [internal] sees all of it. *)
  Atomic.set s.visible (internal + 1);
  (* Republish the same generation: the atomic store releases the
     in-place delta/store/map writes above to reader domains. *)
  Atomic.set t.published s;
  record_counter (fun m -> m.Dbh_obs.Metrics.online_inserts_total);
  maybe_rebuild t;
  handle

let insert t obj = insert_keyed t obj (key t obj)

let delete t handle =
  if handle < 0 || handle >= Store.length t.registry then
    invalid_arg "Online.delete: unknown handle";
  if Store.is_alive t.registry handle then begin
    Store.delete t.registry handle;
    let s = current t in
    (match Hashtbl.find_opt s.internal_of_external handle with
    | Some internal -> Hierarchical.delete s.index internal
    | None -> ());
    Atomic.set t.published s;
    record_counter (fun m -> m.Dbh_obs.Metrics.online_deletes_total);
    maybe_rebuild t
  end

(* Answers carry internal ids; callers see handles. *)
let translate s (r : 'a result) =
  match r.nn with
  | None -> r
  | Some (internal, d) -> { r with nn = Some (Vec.get s.external_of_internal internal, d) }

(* One pointer load pins the whole generation — the cascade queried and
   the handle map translated against can never mix generations, whatever
   the writer does concurrently.  The acquire load of the visibility
   bound then makes every admitted id's state readable. *)
let search ?(opts = Query_opts.default) t q =
  let s = current t in
  translate s (Hierarchical.cascade ~limit:(Atomic.get s.visible) opts s.index q)

(* The generation is pinned once for the whole batch, which runs on the
   index's own pool unless [opts] names one. *)
let search_batch ?(opts = Query_opts.default) t qs =
  let opts =
    match opts.Query_opts.pool with
    | Some _ -> opts
    | None -> { opts with Query_opts.pool = t.pool }
  in
  let s = current t in
  let limit = Atomic.get s.visible in
  Index.batch ~opts ~space:t.space
    (fun opts q -> translate s (Hierarchical.cascade ~limit opts s.index q))
    qs

(* ------------------------------------------------------------ durability *)

type 'a online = 'a t

module Durable = struct
  module Binio = Dbh_util.Binio
  module Envelope = Dbh_persist.Envelope
  module Wal = Dbh_persist.Wal
  module Layout = Dbh_persist.Layout

  let snapshot_kind = "online"

  (* Version 2 snapshots embed the packed (CSR) hierarchical body; v1
     snapshots (bit-packed key blocks) are still read, so a pre-packed
     directory opens cleanly and its first checkpoint migrates it. *)
  let snapshot_version = 2
  let readable_versions = [ 1; 2 ]

  let read_expect_any ~path =
    let header, payload = Envelope.read ~path in
    if header.Envelope.kind <> snapshot_kind then
      raise
        (Dbh_util.Binio.Corrupt
           (Printf.sprintf "expected a %S envelope, found %S" snapshot_kind
              header.Envelope.kind));
    if not (List.mem header.Envelope.version readable_versions) then
      raise
        (Dbh_util.Binio.Corrupt
           (Printf.sprintf "unreadable %S version %d" snapshot_kind
              header.Envelope.version));
    (header.Envelope.version, payload)

  let corrupt fmt = Printf.ksprintf (fun s -> raise (Binio.Corrupt s)) fmt

  (* ------------------------------------------------- snapshot payload *)

  (* rng state | registry length | dead handles | external_of_internal |
     built_size | rebuild_count | hierarchical index.  The rng state is
     part of the snapshot so that rebuilds triggered during WAL replay
     consume exactly the random draws of the original run — restart
     equivalence is bit-for-bit, not approximate. *)

  let write_payload ~encode (o : 'a online) =
    let s = current o in
    let buf = Buffer.create 4096 in
    Array.iter (Binio.write_int64 buf) (Rng.state o.rng);
    Binio.write_int buf (Store.length o.registry);
    let dead = ref [] in
    for h = Store.length o.registry - 1 downto 0 do
      if not (Store.is_alive o.registry h) then dead := h :: !dead
    done;
    Binio.write_int_array buf (Array.of_list !dead);
    Binio.write_int_array buf (Vec.to_array s.external_of_internal);
    Binio.write_int buf o.built_size;
    Binio.write_int buf o.rebuild_count;
    Hierarchical.write_packed ~encode buf s.index;
    Buffer.contents buf

  (* Structural decode shared by recovery and [verify_snapshot]: every
     invariant the live structure maintains is re-checked here, so a
     snapshot that passes cannot put the index into a state the normal
     API could not have produced. *)
  let read_payload ~decode ~space payload =
    let r = Binio.reader payload in
    let rng_words = Array.init 4 (fun _ -> Binio.read_int64 r) in
    let rng =
      try Rng.of_state rng_words
      with Invalid_argument _ -> corrupt "invalid rng state in snapshot"
    in
    let registry_len = Binio.read_int r in
    if registry_len < 1 then corrupt "implausible registry length %d" registry_len;
    let dead_handles = Binio.read_int_array r in
    Array.iteri
      (fun i h ->
        if h < 0 || h >= registry_len then corrupt "dead handle %d out of range" h;
        if i > 0 && dead_handles.(i - 1) >= h then corrupt "dead handles not strictly ascending")
      dead_handles;
    if Array.length dead_handles >= registry_len then corrupt "no alive objects in snapshot";
    let eoi = Binio.read_int_array r in
    (* Every handle below [registry_len] is dead or mapped (checked
       below), so a longer registry is corrupt: reject it before it
       sizes any allocation. *)
    if registry_len > Array.length dead_handles + Array.length eoi then
      corrupt "registry length %d exceeds its %d dead and %d mapped handles" registry_len
        (Array.length dead_handles) (Array.length eoi);
    let built_size = Binio.read_int r in
    if built_size < 1 then corrupt "implausible built size %d" built_size;
    let rebuild_count = Binio.read_int r in
    if rebuild_count < 0 then corrupt "negative rebuild count";
    let index = Hierarchical.read_any ~decode ~space r in
    if not (Binio.at_end r) then corrupt "trailing bytes after online payload";
    let store = Hierarchical.store index in
    if Array.length eoi <> Store.length store then
      corrupt "handle map covers %d ids but store has %d" (Array.length eoi)
        (Store.length store);
    let dead = Array.make registry_len false in
    Array.iter (fun h -> dead.(h) <- true) dead_handles;
    let internal_of_external = Hashtbl.create (Array.length eoi) in
    Array.iteri
      (fun internal h ->
        if h < 0 || h >= registry_len then corrupt "mapped handle %d out of range" h;
        if Hashtbl.mem internal_of_external h then corrupt "handle %d mapped twice" h;
        Hashtbl.replace internal_of_external h internal;
        if dead.(h) = Store.is_alive store internal then
          corrupt "liveness of handle %d disagrees between registry and store" h)
      eoi;
    for h = 0 to registry_len - 1 do
      if not (Hashtbl.mem internal_of_external h) && not dead.(h) then
        corrupt "alive handle %d missing from the index" h
    done;
    (* The registry is not stored twice: rebuild it from the index's
       object store through the handle map.  Handles that died before
       the last rebuild have no internal id; their slots get a filler
       that [get] can never reach (the tombstone check fires first). *)
    let objects = Array.make registry_len (Store.get store 0) in
    Array.iteri (fun internal h -> objects.(h) <- Store.get store internal) eoi;
    let registry = Store.of_array objects in
    Array.iter (Store.delete registry) dead_handles;
    (rng, registry, eoi, internal_of_external, built_size, rebuild_count, index)

  (* Structural open for diagnostics (dbh-cli index-stats): the payload
     decoded with an identity codec and a distance that must never run.
     Returns the snapshot's format version, registry occupancy and the
     decoded cascade for table statistics. *)
  type snapshot_info = {
    format_version : int;
    registry_len : int;
    dead_handles : int;
    cascade : string Hierarchical.t;
  }

  let inspect_snapshot ~path =
    let version, payload = read_expect_any ~path in
    let space = Dbh_space.Space.make ~name:"inspect" (fun (_ : string) _ -> 0.) in
    let _, registry, _, _, _, _, index = read_payload ~decode:Fun.id ~space payload in
    {
      format_version = version;
      registry_len = Store.length registry;
      dead_handles = Store.length registry - Store.alive_count registry;
      cascade = index;
    }

  let verify_snapshot ~path =
    let info = inspect_snapshot ~path in
    (info.registry_len, info.registry_len - info.dead_handles)

  let online_of_payload ?pool ~space ~config ~rebuild_factor ~target_accuracy ~decode payload =
    let rng, registry, eoi, internal_of_external, built_size, rebuild_count, index =
      read_payload ~decode ~space payload
    in
    let external_of_internal = Vec.create () in
    Array.iter (fun h -> ignore (Vec.push external_of_internal h)) eoi;
    {
      rng;
      space;
      pool;
      config;
      rebuild_factor;
      target_accuracy;
      registry;
      published =
        Atomic.make
          {
            index;
            external_of_internal;
            internal_of_external;
            visible = Atomic.make (Vec.length external_of_internal);
          };
      built_size;
      rebuild_count;
    }

  (* Newest snapshot in [dir] that verifies wins; a corrupt or unreadable
     one is recorded with why and skipped, never deleted.  Returns the
     loaded generation, if any, and the skipped ones, newest first.
     Leader recovery and replica loading both start here. *)
  let load_newest_snapshot ?pool ~space ?(config = Builder.default_config)
      ?(rebuild_factor = 2.0) ~target_accuracy ~decode ~dir () =
    (* A loaded generation keeps [config] for its next rebuild: reject a
       bad one now, not when a breaker trips. *)
    Params.check_slack config.Builder.slack;
    let rec try_load skipped = function
      | [] -> (None, List.rev skipped)
      | g :: rest -> (
          match
            let _version, payload = read_expect_any ~path:(Layout.snapshot_path ~dir g) in
            online_of_payload ?pool ~space ~config ~rebuild_factor ~target_accuracy ~decode
              payload
          with
          | o -> (Some (g, o), List.rev skipped)
          | exception Binio.Corrupt msg -> try_load ((g, msg) :: skipped) rest
          | exception Sys_error msg -> try_load ((g, msg) :: skipped) rest)
    in
    try_load [] (List.rev (Layout.snapshot_generations ~dir))

  (* ------------------------------------------------- WAL op encoding *)

  let encode_insert encoded_obj =
    let buf = Buffer.create (String.length encoded_obj + 16) in
    Buffer.add_char buf 'I';
    Binio.write_string buf encoded_obj;
    Buffer.contents buf

  let encode_delete handle =
    let buf = Buffer.create 16 in
    Buffer.add_char buf 'D';
    Binio.write_int buf handle;
    Buffer.contents buf

  let apply_op ~decode online payload =
    if String.length payload < 1 then corrupt "empty wal record";
    let r = Binio.reader (String.sub payload 1 (String.length payload - 1)) in
    (match payload.[0] with
    | 'I' ->
        let obj = Binio.guard_decode decode (Binio.read_string r) in
        if not (Binio.at_end r) then corrupt "trailing bytes in wal insert";
        ignore (insert online obj)
    | 'D' ->
        let h = Binio.read_int r in
        if not (Binio.at_end r) then corrupt "trailing bytes in wal delete";
        if h < 0 || h >= Store.length online.registry then
          corrupt "wal deletes unknown handle %d" h;
        delete online h
    | c -> corrupt "unknown wal op %C" c)

  (* ------------------------------------------------------- the handle *)

  type nonrec 'a t = {
    online : 'a online;
    dir : string;
    encode : 'a -> string;
    decode : string -> 'a;
    fsync : bool;
    mutable generation : int;
    mutable wal : Wal.t;
    mutable wal_ops : int;
    mutable closed : bool;
  }

  type kill_point = After_snapshot | After_wal_switch

  exception Killed of kill_point

  type recovery = {
    source : [ `Fresh | `Snapshot of int | `Rebuilt ];
    generation : int;
    replayed_ops : int;
    torn_tail : bool;
    skipped : (int * string) list;
  }

  let online (t : 'a t) = t.online
  let generation (t : 'a t) = t.generation
  let wal_ops (t : 'a t) = t.wal_ops
  let dir (t : 'a t) = t.dir

  let ensure_open t = if t.closed then invalid_arg "Online.Durable: handle is closed"

  let save_snapshot_raw ~dir ~encode o gen =
    Envelope.save
      ~path:(Layout.snapshot_path ~dir gen)
      ~kind:snapshot_kind ~version:snapshot_version
      (write_payload ~encode o)

  let save_snapshot t gen = save_snapshot_raw ~dir:t.dir ~encode:t.encode t.online gen

  let cleanup_before t gen =
    (* Keep the current and previous generation of both files: the
       previous snapshot plus its complete WAL are the fallback when the
       current snapshot is lost or corrupted. *)
    List.iter
      (fun g -> if g < gen - 1 then Layout.remove_if_exists (Layout.snapshot_path ~dir:t.dir g))
      (Layout.snapshot_generations ~dir:t.dir);
    List.iter
      (fun g -> if g < gen - 1 then Layout.remove_if_exists (Layout.wal_path ~dir:t.dir g))
      (Layout.wal_generations ~dir:t.dir)

  let make_handle ~fsync ~encode ~decode ~dir ~wal ~wal_ops o generation =
    { online = o; dir; encode; decode; fsync; generation; wal; wal_ops; closed = false }

  (* Start generation [gen] over [o]: write its snapshot and a fresh
     log, then prune older generations.  A new directory, a recovery
     whose log chain broke and a promoted follower all begin so. *)
  let fence ~fsync ~encode ~decode ~dir o gen =
    save_snapshot_raw ~dir ~encode o gen;
    let wal = Wal.create ~fsync ~path:(Layout.wal_path ~dir gen) () in
    let t = make_handle ~fsync ~encode ~decode ~dir ~wal ~wal_ops:0 o gen in
    cleanup_before t gen;
    t

  let file_size path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic)

  let observe_checkpoint ?trace ~gen ~seconds t =
    (match Dbh_obs.Metrics.get () with
    | None -> ()
    | Some m ->
        Dbh_obs.Registry.inc m.Dbh_obs.Metrics.checkpoints_total;
        Dbh_obs.Registry.observe m.Dbh_obs.Metrics.checkpoint_seconds seconds;
        (match file_size (Layout.snapshot_path ~dir:t.dir gen) with
        | bytes -> Dbh_obs.Registry.set m.Dbh_obs.Metrics.snapshot_bytes bytes
        | exception Sys_error _ -> ()));
    match trace with
    | Some tr ->
        Dbh_obs.Trace.record tr (Dbh_obs.Trace.Checkpoint { generation = gen; seconds })
    | None -> ()

  let checkpoint ?kill ?trace t =
    ensure_open t;
    let t0 = Dbh_obs.Metrics.now () in
    (* Fold the tables' insert deltas and drop tombstones before writing:
       the snapshot then IS the compact frozen layout, and the in-memory
       index sheds its delta at the same time.  Query-visible behavior is
       unchanged. *)
    compact t.online;
    let gen = t.generation + 1 in
    save_snapshot t gen;
    (match kill with Some After_snapshot -> raise (Killed After_snapshot) | _ -> ());
    Wal.close t.wal;
    t.wal <- Wal.create ~fsync:t.fsync ~path:(Layout.wal_path ~dir:t.dir gen) ();
    t.generation <- gen;
    t.wal_ops <- 0;
    observe_checkpoint ?trace ~gen ~seconds:(Dbh_obs.Metrics.now () -. t0) t;
    (match kill with Some After_wal_switch -> raise (Killed After_wal_switch) | _ -> ());
    cleanup_before t gen

  let record_wal_append ?trace record =
    match trace with
    | Some tr ->
        Dbh_obs.Trace.record tr
          (Dbh_obs.Trace.Wal_append { bytes = String.length record })
    | None -> ()

  let insert ?trace t obj =
    ensure_open t;
    (* Check before journaling: the log keeps no object that replay
       would reject. *)
    let keyed = key t.online obj in
    (* WAL first: once [append] returns the op is durable, and replay
       re-applies it deterministically if we crash before (or during)
       the in-memory update. *)
    let record = encode_insert (t.encode obj) in
    ignore (Wal.append t.wal record);
    record_wal_append ?trace record;
    t.wal_ops <- t.wal_ops + 1;
    insert_keyed t.online obj keyed

  let delete ?trace t handle =
    ensure_open t;
    if handle < 0 || handle >= Store.length t.online.registry then
      invalid_arg "Online.Durable.delete: unknown handle";
    let record = encode_delete handle in
    ignore (Wal.append t.wal record);
    record_wal_append ?trace record;
    t.wal_ops <- t.wal_ops + 1;
    delete t.online handle

  let search ?opts t q = search ?opts t.online q
  let search_batch ?opts t qs = search_batch ?opts t.online qs
  let get t handle = get t.online handle
  let size t = size t.online

  let close t =
    if not t.closed then begin
      t.closed <- true;
      Wal.close t.wal
    end

  (* --------------------------------------------------------- recovery *)

  let open_or_create ?pool ?(fsync = true) ~rng ~space ?(config = Builder.default_config)
      ?(rebuild_factor = 2.0) ~target_accuracy ~encode ~decode ~dir ?data () =
    Layout.ensure_dir dir;
    let max_gen =
      List.fold_left max 0 (Layout.snapshot_generations ~dir @ Layout.wal_generations ~dir)
    in
    (* Degrade to an older generation rather than fail. *)
    let loaded, skipped =
      load_newest_snapshot ?pool ~space ~config ~rebuild_factor ~target_accuracy ~decode ~dir
        ()
    in
    match loaded with
    | Some (g, o) ->
        (* Replay the WAL chain from the loaded generation forward: wal g
           journals the ops after snapshot g, and ends exactly at the
           state snapshot g+1 captured — so when snapshot g+1 was the
           corrupt one, its wal still carries us to the present. *)
        let replayed = ref 0 in
        let rec replay g =
          let path = Layout.wal_path ~dir g in
          if not (Sys.file_exists path) then (g, false)
          else begin
            let scan = Wal.scan ~path in
            Array.iter
              (fun op ->
                (try apply_op ~decode o op with
                | Binio.Corrupt _ as e -> raise e
                | exn -> corrupt "wal replay failed: %s" (Printexc.to_string exn));
                incr replayed)
              scan.Wal.records;
            if scan.Wal.torn then (g, true)
            else if g < max_gen && Sys.file_exists (Layout.wal_path ~dir (g + 1)) then
              replay (g + 1)
            else (g, false)
          end
        in
        let last_gen, torn = replay g in
        (match Dbh_obs.Metrics.get () with
        | Some m when !replayed > 0 ->
            Dbh_obs.Registry.add m.Dbh_obs.Metrics.wal_records_replayed_total !replayed
        | _ -> ());
        let t =
          if last_gen = max_gen && not torn then begin
            (* Everything on disk is accounted for: keep appending to
               the current generation's log. *)
            let wal, scan = Wal.open_append ~fsync ~path:(Layout.wal_path ~dir last_gen) () in
            make_handle ~fsync ~encode ~decode ~dir ~wal
              ~wal_ops:(Array.length scan.Wal.records)
              o last_gen
          end
          else begin
            (* The chain broke (torn log, or generations above the one
               that loaded): logs past the break are unreachable junk —
               drop them and checkpoint to a fresh generation so the
               on-disk state is verified end-to-end before accepting new
               writes. *)
            for g' = last_gen + 1 to max_gen do
              Layout.remove_if_exists (Layout.wal_path ~dir g')
            done;
            fence ~fsync ~encode ~decode ~dir o (max_gen + 1)
          end
        in
        ( t,
          {
            source = `Snapshot g;
            generation = t.generation;
            replayed_ops = !replayed;
            torn_tail = torn;
            skipped;
          } )
    | None -> (
        match data with
        | Some db when Array.length db > 0 ->
            let o = create ?pool ~rng ~space ~config ~rebuild_factor ~target_accuracy db in
            let t = fence ~fsync ~encode ~decode ~dir o (max_gen + 1) in
            let source = if skipped = [] then `Fresh else `Rebuilt in
            ( t,
              {
                source;
                generation = t.generation;
                replayed_ops = 0;
                torn_tail = false;
                skipped;
              } )
        | _ ->
            if skipped = [] then
              invalid_arg
                (Printf.sprintf
                   "Online.Durable.open_or_create: %s holds no snapshot and no ~data was given"
                   dir)
            else
              corrupt "no loadable snapshot in %s: %s" dir
                (String.concat "; "
                   (List.map (fun (g, m) -> Printf.sprintf "gen %d: %s" g m) skipped)))

  (* ------------------------------------------- hooks for dbh.replica *)

  (* The replica library lives outside this one and needs three pieces
     of the durable machinery the public API deliberately hides: load
     the newest snapshot that verifies ([load_newest_snapshot] above),
     apply one WAL record, and turn a caught-up follower into a leader
     by fencing a fresh generation. *)

  let apply_record ~decode o payload = apply_op ~decode o payload

  let attach ?(fsync = true) ~encode ~decode ~dir ~generation o =
    if generation < 1 then invalid_arg "Online.Durable.attach: generation must be >= 1";
    Layout.ensure_dir dir;
    (* Fencing: writing snapshot [generation] plus a fresh WAL makes
       every older generation's log superseded history — a recovery (or
       another follower) now loads this state and ignores records the
       old leader might still try to append behind our back. *)
    fence ~fsync ~encode ~decode ~dir o generation
end
