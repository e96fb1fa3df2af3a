(* l2-ingest: dbh-serve's bootstrap shape (2000 vectors, 16-d, from a
   25-cluster Gaussian mixture; 50 pivots, 100 sample queries, target
   0.9) in a durable index, driven by one thread on a seeded open-loop
   schedule.  Writes form a sliding window (each insert is paired with a
   delete of the oldest alive handle), so the size stays at 2000 and the
   index never rebuilds; each write is followed by queries.  Distances
   are cheap here: table hashing, probing and the write path dominate
   instead.

   The schedule runs in six segments with a checkpoint between each
   pair.  A checkpoint of this index takes most of a second on a
   2-vCPU machine, so five of them inside one open loop of a few seconds
   would saturate the writer; between segments the schedule restarts
   from the checkpoint's end, and the stall is reported by itself
   (durable.checkpoint_ms_* ). *)

open Common
open Perfbench_harness

let db_size = 2000
let dim = 16
let pool_size = 2000
let distinct_queries = 300
let queries_per_write = 7
let write_rate = 20.  (* writes per second; each brings its queries *)
let segments = 6  (* checkpoints run between segments: five of them *)

(* Per-operation fsync off: the directory must live inside the checkout,
   which may sit on a shared virtual disk whose flush tails (inserts up
   to 33 ms) would set the query p99 instead of the index.  With fsync
   off the flush cost is that of a RAM-backed directory. *)
let fsync = false
let recover_repeats = 3
let trace_block = 10  (* writes per traced/untraced block *)

let config = { Dbh.Builder.default_config with num_pivots = 50; num_sample_queries = 100 }

type kind = Insert of int | Delete | Query of int

let run ctx =
  pin_to_one_cpu ();
  let rng = Rng.create ctx.seed in
  let sched_rng = Rng.split rng in
  let ops_per_write = 2 + queries_per_write in
  let due =
    Openloop.poisson
      ~uniform:(fun () -> Rng.float sched_rng 1.)
      ~rate:(write_rate *. float_of_int ops_per_write)
      ~duration:ctx.seconds
  in
  let writes = Array.length due / ops_per_write in
  let n_ops = writes * ops_per_write in
  let due = Array.sub due 0 n_ops in
  let all, _ =
    Dbh_datasets.Vectors.gaussian_mixture ~rng:(Rng.create dataset_seed) ~num_clusters:25 ~dim (db_size + pool_size)
  in
  let db = Array.sub all 0 db_size in
  let inserts, queries =
    match draw ~rng (Array.sub all db_size pool_size) [ writes; distinct_queries ] with
    | [ a; b ] -> (Array.map (fun i -> all.(db_size + i)) a, Array.map (fun i -> all.(db_size + i)) b)
    | _ -> assert false
  in
  let kinds =
    Array.init n_ops (fun i ->
        let w = i / ops_per_write and j = i mod ops_per_write in
        if j = 0 then Insert w
        else if j = 1 then Delete
        else Query (((w * queries_per_write) + j - 2) mod distinct_queries))
  in
  let raw = Dbh_metrics.Minkowski.l2_space in
  let meter = Dist_meter.create () in
  let space = Space.make ~name:raw.name (Dist_meter.wrap meter raw.distance) in
  let spans = if ctx.trace then Some (Spans.create ~snapshot:(fun () -> Dist_meter.snapshot meter) ()) else None in
  let dir = fresh_dir "l2-ingest" in
  note_durable ~dir ~fsync;
  let open_dir ?data () =
    Durable.open_or_create ~fsync ~rng:(Rng.create index_seed) ~space ~config ~target_accuracy:0.9
      ~encode:encode_vec ~decode:decode_vec ~dir ?data ()
  in
  meter.enabled <- ctx.trace;
  let d = timed_setup ?spans ~dir ~build:(fun () -> fst (open_dir ~data:db ())) ~discard:Durable.close () in
  meter.pivots <- pivots_of (Durable.online d);
  let alive = Queue.create () in
  List.iter (fun h -> Queue.add h alive) (Dbh.Online.alive_handles (Durable.online d));
  let results = Array.make n_ops None in
  let inserted = Array.make writes (-1) in
  let traced_op = Array.init n_ops (fun i -> ctx.trace && i / ops_per_write / trace_block mod 2 = 0) in
  let wal_size () = file_size (Dbh_persist.Layout.wal_path ~dir (Durable.generation d)) in
  let wal_bytes = ref 0 in
  let span i name f = match spans with Some sp when traced_op.(i) -> Spans.with_span sp ~req:i name f | _ -> f () in
  let op i =
    meter.enabled <- traced_op.(i);
    match kinds.(i) with
    | Insert k ->
        let h = span i "online.insert" (fun () -> Durable.insert d inserts.(k)) in
        Queue.add h alive;
        inserted.(k) <- h
    | Delete -> span i "online.delete" (fun () -> Durable.delete d (Queue.pop alive))
    | Query q -> results.(i) <- Some (span i "hierarchical.search" (fun () -> Durable.search d queries.(q)))
  in
  (* The thread waits for each operation's due time by timing
     reference units, then spinning for the last moment, so none delays
     an operation.  It never sleeps: a vCPU that halts between
     operations makes each one also wait for the host to wake it, which
     is the host's latency, not the program's. *)
  let pace = Pace.create () in
  let sleep_until due =
    while Clock.now_s () +. 1e-4 < due do Pace.tick pace done;
    while Clock.now_s () < due do () done
  in
  let seg_len = ctx.seconds /. float_of_int segments in
  settle ();
  let seg_of i = min (segments - 1) (int_of_float (due.(i) /. seg_len)) in
  let gc1 = gc_now () in
  let timing = Array.make n_ops None in
  for s = 0 to segments - 1 do
    let idx = List.filter (fun i -> seg_of i = s) (List.init n_ops Fun.id) |> Array.of_list in
    let start = Clock.now_s () +. 0.01 in
    let t = Openloop.run ~now:Clock.now_s ~sleep_until
        ~t0:(start -. (float_of_int s *. seg_len))
        ~due:(Array.map (fun i -> due.(i)) idx) ~op:(fun k -> counting_alloc (fun () -> op idx.(k)))
    in
    Array.iteri (fun k x -> timing.(idx.(k)) <- Some x) t;
    meter.enabled <- false;
    if s < segments - 1 then begin
      wal_bytes := !wal_bytes + wal_size ();
      (* From a settled heap, so the segment's garbage neither inflates
         the checkpoint's peak memory nor lands in its time. *)
      settle ();
      timed_checkpoint ?spans d
    end
  done;
  wal_bytes := !wal_bytes + wal_size ();
  let ops_gc = gc_since gc1 in
  let timing = Array.map Option.get timing in
  (* Scoring, outside the timed phase: every answer re-verifies against
     the returned object, and accuracy is judged against the exact
     nearest neighbour among the objects alive when the query ran -
     after w writes, the last [db_size] of db ++ inserts[0..w). *)
  let failed = ref 0 and correct = ref 0 in
  (* Answers may name objects deleted later in the run: resolve handles
     through the run's own record of what each handle held. *)
  let objects = Hashtbl.create (db_size + writes) in
  List.iter (fun h -> Hashtbl.replace objects h db.(h)) (List.init db_size Fun.id);
  Array.iteri (fun k h -> Hashtbl.replace objects h inserts.(k)) inserted;
  let is_query i = match kinds.(i) with Query _ -> true | _ -> false in
  let is_insert i = match kinds.(i) with Insert _ -> true | _ -> false in
  let queries_idx = List.filter is_query (List.init n_ops Fun.id) in
  List.iter
    (fun i ->
      let q = match kinds.(i) with Query q -> queries.(q) | _ -> assert false in
      let r = Option.get results.(i) in
      let w = (i / ops_per_write) + 1 in
      let exact = ref infinity in
      for j = w to db_size + w - 1 do
        exact := Float.min !exact (raw.distance q (if j < db_size then db.(j) else inserts.(j - db_size)))
      done;
      let verified =
        (not r.Dbh.Online.truncated)
        && match r.nn with
           | Some (h, dist) -> (
               match Hashtbl.find_opt objects h with
               | Some o -> same_bits (raw.distance q o) dist
               | None -> false)
           | None -> false
      in
      if not verified then incr failed
      else if Ground_truth.is_correct { nn_index = [| -1 |]; nn_distance = [| !exact |]; cost_per_query = db_size } 0 r.nn
      then incr correct)
    queries_idx;
  let qres = Array.of_list (List.map (fun i -> Option.get results.(i)) queries_idx) in
  let nq = Array.length qres in
  (* Timings at the nominal speed of the moment the operation started. *)
  let ps = Pace.samples pace in
  let sp = Pace.speed ps in
  let nominal i x = x *. Pace.factor sp ~at:timing.(i).Openloop.start in
  let select p f = Array.of_list (List.filter_map (fun i -> if p i then Some (f i) else None) (List.init n_ops Fun.id)) in
  let lat p = select p (fun i -> ms_of_s (nominal i (Openloop.latency timing.(i)))) in
  let measured i = (not ctx.trace) || traced_op.(i) in
  let q_lat = lat (fun i -> is_query i && measured i) in
  put_pct "query_p50_ms" ~permille:500 "query_ms" q_lat;
  put_pct ~optional:ctx.trace "query_p99_ms" ~permille:990 "query_ms" q_lat;
  note_pace ~raw_p50_ms:(Stats.median (select (fun i -> is_query i && measured i) (fun i -> ms_of_s (Openloop.latency timing.(i))))) ps;
  (* Throughput from the library's own time: searches per second of
     search service, so it moves with the code and not with the rate the
     schedule offers. *)
  let q_service = List.filter_map (fun i -> if measured i then Some (nominal i (Openloop.service timing.(i))) else None) queries_idx in
  put "query_qps" (float_of_int (List.length q_service) /. List.fold_left ( +. ) 0. q_service);
  let ins_lat = lat (fun i -> is_insert i && measured i) in
  put_pct "insert_p50_ms" ~permille:500 "insert_ms" ins_lat;
  put_pct ~optional:true "insert_p99_ms" ~permille:990 "insert_ms" ins_lat;
  put "accuracy" (float_of_int !correct /. float_of_int nq);
  put "dist_per_query"
    (Stats.mean (Array.map (fun (r : _ Dbh.Online.result) -> float_of_int (Dbh.Index.total_cost r.stats)) qres));
  stats_metrics ~correct:!correct qres;
  cascade_metrics [ Durable.online d ];
  let rebuilds = Dbh.Online.rebuilds (Durable.online d) in
  put "online.rebuilds" (float_of_int rebuilds);
  put "wal.bytes_per_write" (float_of_int !wal_bytes /. float_of_int (2 * writes));
  note "writes" (Json.Num (float_of_int writes));
  put_pct "online.wait_ms_p99" ~permille:990 "op_wait_ms" (Array.map (fun t -> ms_of_s (Openloop.late t)) timing);
  (match spans with
  | Some sp ->
      let service name = Array.of_list (List.map (fun s -> ms_of_ns (Spans.duration_ns s)) (Spans.named sp name)) in
      put_pct "online.insert_ms_p50" ~permille:500 "online.insert_ms" (service "online.insert");
      put_pct "online.delete_ms_p50" ~permille:500 "online.delete_ms" (service "online.delete");
      let ins = Spans.named sp "online.insert" in
      put "online.insert_dist_ms"
        (ms_of_ns (List.fold_left (fun a (s : Spans.span) -> a + s.dist.ns) 0 ins) /. float_of_int (max 1 (List.length ins)));
      search_metrics ~dim (Spans.named sp "hierarchical.search");
      let traced_cost =
        Array.fold_left ( + ) 0
          (Array.of_list
             (List.map (fun i -> if traced_op.(i) then Dbh.Index.total_cost (Option.get results.(i)).stats else 0) queries_idx))
      in
      let calls = List.fold_left (fun a (s : Spans.span) -> a + s.dist.calls) 0 (Spans.named sp "hierarchical.search") in
      note "space_calls_minus_cost" (Json.Num (float_of_int (calls - traced_cost)));
      builder_metrics sp;
      put "trace.overhead" (Stats.median q_lat /. Stats.median (lat (fun i -> is_query i && not traced_op.(i))) -. 1.)
  | None -> ());
  put "gc.minor_words_per_op" (!allocated /. float_of_int n_ops);
  put "gc.major_collections" (float_of_int ops_gc.major_collections);
  let n_ck = List.length !checkpoint_ms in
  (* The tail segment stays in the WAL, so the reopen replays it. *)
  let same =
    durable_epilogue ~checkpoint:ignore ~repeats:recover_repeats ~dir ~d ~reopen:(fun () -> open_dir ())
      ~user_bytes:(Durable.size d * String.length (encode_vec db.(0)))
      ~sample:(Array.sub queries 0 50)
  in
  checkpoint_metrics ();
  put "peak_rss_mb" (Runrec.peak_rss_mb ());
  absent [ "server.batch_size_mean"; "admission.shed"; "admission.timed_out" ];
  write_trace ctx spans;
  rm_rf dir;
  if n_ck < 5 then prerr_endline "l2-ingest: fewer than five checkpoints ran";
  (!failed = 0 && same && rebuilds = 0 && n_ck >= 5, n_ops, !failed)
