module Durable = Dbh.Online.Durable
module Breaker = Dbh_robust.Breaker
module Pool = Dbh_util.Pool
module Crc32 = Dbh_util.Crc32
module Rng = Dbh_util.Rng

type query = { budget : int; probes : int; radius : int }

type answer = {
  nn : (int * float) option;
  cost : int;
  truncated : bool;
  degraded : bool;
}

type 'a shard = {
  idx : int;
  durable : 'a Durable.t;
  breaker : 'a Breaker.t;
  lock : Mutex.t;  (* serializes writers (and breaker rebuilds) per shard *)
}

type 'a t = {
  shards : 'a shard array;
  n : int;
  encode : 'a -> string;
  mutable closed : bool;
}

let shard_dir dir i = Filename.concat dir (Printf.sprintf "shard-%02d" i)

let open_or_create ?fsync ?breaker_config ?build ?rebuild_factor ~seed ~shards
    ~target_accuracy ~space ~encode ~decode ~dir ?data () =
  if shards < 1 then invalid_arg "Shards: shard count must be >= 1";
  (match data with
  | Some d when Array.length d < shards ->
      invalid_arg
        (Printf.sprintf "Shards: %d data points cannot seed %d shards"
           (Array.length d) shards)
  | _ -> ());
  (* The shard directories create themselves; their parent must exist
     first or a fresh `dbh-serve DIR` dies on mkdir. *)
  Dbh_persist.Layout.ensure_dir dir;
  let rngs = Rng.split_n (Rng.create seed) shards in
  let recoveries = Array.make shards None in
  let open_one i =
    (* Round-robin deal: shard i gets data.(i), data.(i+n), … so every
       fresh shard starts non-empty and the initial global handle of
       data.(j) is exactly j (local j/n interleaved back with shard
       j mod n). *)
    let data_i =
      Option.map
        (fun d ->
          let len = Array.length d in
          Array.init ((len - i + shards - 1) / shards) (fun k ->
              d.((k * shards) + i)))
        data
    in
    let durable, recovery =
      Durable.open_or_create ?fsync ~rng:rngs.(i) ~space ?config:build
        ?rebuild_factor ~target_accuracy ~encode ~decode ~dir:(shard_dir dir i)
        ?data:data_i ()
    in
    recoveries.(i) <- Some recovery;
    {
      idx = i;
      durable;
      breaker = Breaker.create ?config:breaker_config (Durable.online durable);
      lock = Mutex.create ();
    }
  in
  let t =
    {
      shards = Array.init shards open_one;
      n = shards;
      encode;
      closed = false;
    }
  in
  (t, Array.map Option.get recoveries)

let size t = Array.fold_left (fun acc s -> acc + Durable.size s.durable) 0 t.shards

let ensure_open t = if t.closed then invalid_arg "Shards: closed"

let global ~n ~shard local = (local * n) + shard
let shard_of t handle = handle mod t.n
let local_of t handle = handle / t.n

let locked s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let search_many ?pool t items =
  ensure_open t;
  let m = Array.length items in
  let outcomes = Array.make_matrix t.n m None in
  let run_shard s =
    (* The breaker may force a rebuild mid-search (a write), so the
       whole per-shard query run holds the shard's writer lock. *)
    locked s (fun () ->
        Array.iteri
          (fun q (obj, spec) ->
            let opts =
              Dbh.Query_opts.make ~budget:(max 1 spec.budget)
                ~probes_per_table:(max 1 spec.probes)
                ~hamming_radius:(max 0 spec.radius) ()
            in
            outcomes.(s.idx).(q) <- Some (Breaker.search ~opts s.breaker obj))
          items)
  in
  (* One task per shard, weighted by shard population: the pool
     schedules hot shards first instead of letting one of them gate the
     whole batch from the tail of a size-only layout.  A lone shard or a
     one-domain pool has nothing to spread, so it runs with no pool. *)
  let pool = match pool with Some p when t.n > 1 && Pool.size p > 1 -> pool | _ -> None in
  Pool.parallel_for ?pool ~chunk:1
    ~cost:(fun i -> Durable.size t.shards.(i).durable)
    t.n
    (fun i -> run_shard t.shards.(i));
  Array.init m (fun q ->
      let nn = ref None and cost = ref 0 in
      let truncated = ref false and degraded = ref false in
      Array.iter
        (fun s ->
          match outcomes.(s.idx).(q) with
          | None -> assert false
          | Some (o : _ Breaker.outcome) ->
              cost := !cost + Dbh.Index.total_cost o.result.stats;
              if o.result.truncated then truncated := true;
              if o.served_by = `Linear_scan then degraded := true;
              (match o.result.nn with
              | None -> ()
              | Some (local, d) ->
                  let h = global ~n:t.n ~shard:s.idx local in
                  let better =
                    match !nn with
                    | None -> true
                    | Some (bh, bd) -> d < bd || (d = bd && h < bh)
                  in
                  if better then nn := Some (h, d)))
        t.shards;
      { nn = !nn; cost = !cost; truncated = !truncated; degraded = !degraded })

let insert t obj =
  ensure_open t;
  let i = Crc32.string (t.encode obj) mod t.n in
  let i = if i < 0 then i + t.n else i in
  let s = t.shards.(i) in
  locked s (fun () -> global ~n:t.n ~shard:i (Durable.insert s.durable obj))

let delete t handle =
  ensure_open t;
  if handle < 0 then invalid_arg "Shards.delete: negative handle";
  let s = t.shards.(shard_of t handle) in
  locked s (fun () -> Durable.delete s.durable (local_of t handle))

let checkpoint ?kill t =
  ensure_open t;
  Array.iter
    (fun s ->
      let kill = if s.idx = 0 then kill else None in
      locked s (fun () -> Durable.checkpoint ?kill s.durable))
    t.shards

let close t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (fun s -> locked s (fun () -> Durable.close s.durable)) t.shards
  end

let wal_ops t =
  Array.fold_left (fun acc s -> acc + Durable.wal_ops s.durable) 0 t.shards

let stats_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\"shards\":[";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      let online = Durable.online s.durable in
      Buffer.add_string b
        (Printf.sprintf
           "{\"shard\":%d,\"size\":%d,\"generation\":%d,\"wal_ops\":%d,\
            \"rebuilds\":%d,\"breaker\":\"%s\",\"trips\":%d,\"recoveries\":%d,\
            \"fallback_queries\":%d}"
           i (Durable.size s.durable)
           (Durable.generation s.durable)
           (Durable.wal_ops s.durable)
           (Dbh.Online.rebuilds online)
           (Format.asprintf "%a" Breaker.pp_state (Breaker.state s.breaker))
           (Breaker.trips s.breaker)
           (Breaker.recoveries s.breaker)
           (Breaker.fallback_queries s.breaker)))
    t.shards;
  Buffer.add_string b
    (Printf.sprintf "],\"size\":%d,\"wal_ops\":%d}" (size t) (wal_ops t));
  Buffer.contents b
