(* l2-serve: the same L2 data shape behind an in-process dbh-serve
   server over two durable shards, fsync off and no domain pool (the
   server's defaults).  A load generator forked before any domain exists
   sends seeded open-loop pipelined searches over one connection: first
   a fixed-rate phase, then a search for the highest rate that holds the
   p99 limit.  The only workload that goes through Protocol, Admission,
   Server batching, Shards fan-out and Client. *)

open Common
open Perfbench_harness
module Shards = Dbh_serve.Shards
module Server = Dbh_serve.Server
module Admission = Dbh_serve.Admission
module Registry = Dbh_obs.Registry

let db_size = 2000
let dim = 16
let pool_size = 1000
let distinct_queries = 300
let shards = 2
(* Requests per second: about a quarter of the capacity the search
   finds (1000-2000/s on a 2-vCPU host).  At half of it the batcher is
   busy half the time, and its queue turns the host's scheduling noise
   into p50 swings of a third from run to run. *)
let fixed_rate = 350.
let fixed_blocks = 4  (* alternating untraced/traced sub-phases of the fixed phase *)
let slo_ms = 20.
let budget = 1_000_000  (* far above any query's cost: nothing truncates *)
let deadline_ms = 10_000
let recover_repeats = 3

let config = { Dbh.Builder.default_config with num_pivots = 50; num_sample_queries = 100 }

let admission =
  {
    Admission.default_config with
    default_class = { Admission.rate = 1e9; burst = 1e9; max_budget = budget };
    max_deadline = 30.;
  }

(* Median of a histogram's observations since [before] (per-bucket
   counts), interpolated inside the bucket that holds it. *)
let histogram_p50 ~before h =
  let counts = Array.mapi (fun i (le, c) -> (le, c - snd before.(i))) (Registry.histogram_buckets h) in
  let total = Array.fold_left (fun a (_, c) -> a + c) 0 counts in
  let half = float_of_int total /. 2. in
  let rec go i lo below =
    let le, c = counts.(i) in
    if float_of_int (below + c) >= half || i = Array.length counts - 1 then
      if Float.is_finite le && c > 0 then lo +. ((le -. lo) *. (half -. float_of_int below) /. float_of_int c) else lo
    else go (i + 1) le (below + c)
  in
  if total = 0 then 0. else go 0 0. 0

let run ctx =
  let rng = Rng.create ctx.seed in
  let sched_rng = Rng.split rng in
  let all, _ =
    Dbh_datasets.Vectors.gaussian_mixture ~rng:(Rng.create dataset_seed) ~num_clusters:25 ~dim (db_size + pool_size)
  in
  let db = Array.sub all 0 db_size and pool = Array.sub all db_size pool_size in
  let picks = List.hd (draw ~rng pool [ distinct_queries ]) in
  let queries = Array.map (fun i -> pool.(i)) picks in
  let raw = Dbh_metrics.Minkowski.l2_space in
  let truth = truth_of (ground_truth ~space:raw ~encode:encode_vec ~db ~queries:pool) picks in
  let payloads = Array.map encode_vec queries in
  let schedule ~rate ~duration =
    let due = Openloop.poisson ~uniform:(fun () -> Rng.float sched_rng 1.) ~rate ~duration in
    (due, Array.map (fun _ -> Rng.int sched_rng distinct_queries) due)
  in
  (* Fork before any domain is spawned (the server's batcher is one). *)
  let run_phase, stop_gen, gen_pid = Loadgen.spawn ~payloads in
  (* One spinner per CPU: the first beside the batcher, the second
     beside the rest. *)
  let spin_work = Spinner.spawn () in
  let spin_other = Spinner.spawn () in
  let meter = Dist_meter.create () in
  (* While [pacing], the distance function the shards call also times a
     reference unit, at most every [pace_gap_s], in the batcher's own
     thread between two distance calls: the speed the searches get.  A
     reference unit timed anywhere else (the spinner beside the batcher
     tried first) tracked the searches about 30% worse. *)
  let pace = Pace.create () and pacing = Atomic.make false and last_tick = ref 0. and pace_lock = Mutex.create () in
  let pace_gap_s = 0.01 in
  let paced distance a b =
    (if Atomic.get pacing then
       let now = Clock.now_s () in
       if now -. !last_tick >= pace_gap_s then begin
         Mutex.protect pace_lock (fun () -> Pace.tick pace);
         last_tick := now
       end);
    distance a b
  in
  let space = Space.make ~name:raw.name (paced (Dist_meter.wrap meter raw.distance)) in
  let spans = if ctx.trace then Some (Spans.create ~snapshot:(fun () -> Dist_meter.snapshot meter) ()) else None in
  let dir = fresh_dir "l2-serve" in
  note_durable ~dir ~fsync:false;
  let open_shards ?data () =
    Shards.open_or_create ~fsync:false ~build:config ~seed:index_seed ~shards ~target_accuracy:0.9 ~space
      ~encode:encode_vec ~decode:decode_vec ~dir ?data ()
  in
  let start_server sh = Server.start ~decode:decode_vec { Server.default_config with admission } sh in
  let server = ref None in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun s -> Server.stop s) !server;
      stop_gen ();
      Spinner.close spin_work;
      Spinner.close spin_other;
      rm_rf dir)
  @@ fun () ->
  meter.enabled <- ctx.trace;
  let sh, srv =
    timed_setup ?spans ~dir
      ~build:(fun () ->
        let sh, _ = open_shards ~data:db () in
        (sh, start_server sh))
      ~discard:(fun (_, srv) -> Server.stop srv) ()
  in
  server := Some srv;
  meter.enabled <- false;
  (* Pivots of the live shards: decode them from the initial snapshots
     and map them back to the database objects the shards hold. *)
  let by_bytes = Hashtbl.create db_size in
  Array.iter (fun v -> Hashtbl.replace by_bytes (encode_vec v) v) db;
  let shard_dir i = Filename.concat dir (Printf.sprintf "shard-%02d" i) in
  let newest_snapshot i =
    let d = shard_dir i in
    Dbh_persist.Layout.snapshot_path ~dir:d (List.fold_left max 0 (Dbh_persist.Layout.snapshot_generations ~dir:d))
  in
  meter.pivots <-
    Array.concat
      (List.init shards (fun i ->
           let info = Durable.inspect_snapshot ~path:(newest_snapshot i) in
           Array.map (Hashtbl.find by_bytes) (Dbh.Hash_family.pivots (Dbh.Hierarchical.family info.cascade))));
  let port = Server.port srv in
  let phase ~rate ~duration =
    let due, payload = schedule ~rate ~duration in
    let t0 = Clock.now_s () +. 0.02 in
    (t0, due, payload, run_phase { Loadgen.port; t0; due; payload; budget; deadline_ms; grace = 15. })
  in
  settle ();
  (* Warm-up, discarded. *)
  ignore (phase ~rate:fixed_rate ~duration:1.0);
  (* The batcher, the thread that did the warm-up's searching, gets the
     first CPU with one spinner; every other thread of this process and
     the load generator get the second with the other.  The batcher's
     domain must never wait for a thread of the main domain stuck behind
     it on one CPU to reach a collection, hence two CPUs. *)
  note "affinity"
    (match (Affinity.allowed (), Affinity.busiest ~except:(Unix.getpid ())) with
    | a :: b :: _, Some batcher
      when List.for_all (fun t -> Affinity.pin t (if t = batcher then a else b)) (Affinity.tasks ())
           && Affinity.pin gen_pid b && Affinity.pin spin_work.pid a && Affinity.pin spin_other.pid b ->
        Json.Obj [ ("work", Json.Num (float_of_int a)); ("other", Json.Num (float_of_int b)) ]
    | _ -> Json.Null);
  let spinning f =
    Spinner.start spin_work;
    Spinner.start spin_other;
    Fun.protect f ~finally:(fun () ->
        Spinner.stop spin_work;
        Spinner.stop spin_other)
  in
  (* Fixed-rate phase, in alternating untraced/traced sub-phases. *)
  let sm = Server.metrics srv in
  let req_before = Registry.histogram_buckets sm.request_seconds in
  let batch_n0 = Registry.histogram_count sm.batch_size and batch_s0 = Registry.histogram_sum sm.batch_size in
  let gc1 = gc_now () in
  let meter0 = Dist_meter.snapshot meter in
  let cpu0 = cpu_s () in
  let block_s = ctx.seconds /. float_of_int fixed_blocks in
  Atomic.set pacing true;
  let fixed =
    spinning (fun () ->
        List.init fixed_blocks (fun b ->
            let traced = ctx.trace && b mod 2 = 1 in
            meter.enabled <- traced;
            let t0, due, payload, o = phase ~rate:fixed_rate ~duration:block_s in
            meter.enabled <- false;
            (traced, t0, due, payload, o)))
  in
  Atomic.set pacing false;
  let ps = Mutex.protect pace_lock (fun () -> Pace.samples pace) in
  let fixed_cpu = cpu_s () -. cpu0 in
  let dq = Dist_meter.diff (Dist_meter.snapshot meter) meter0 in
  let fixed_gc = gc_since gc1 in
  let tally = Tally.create () in
  (* Latencies at the nominal speed of the batcher's CPU when each
     request was due. *)
  let sp = Pace.speed ps in
  let lat_on = ref [] and lat_off = ref [] and late = ref [] and raw_lat = ref [] in
  let correct = ref 0 and answered = ref 0 and cost = ref 0 in
  let first_answer = Hashtbl.create distinct_queries and first_cost = Hashtbl.create distinct_queries in
  let traced_requests = ref 0 in
  List.iter
    (fun (traced, t0, due, payload, (o : Loadgen.outcome)) ->
      Array.iteri
        (fun i d ->
          let q = payload.(i) in
          let ok =
            match o.replies.(i) with
            | Loadgen.Answer { handle; dist; cost = c; truncated } ->
                let verified =
                  (not truncated) && handle >= 0 && handle < db_size
                  && same_bits (raw.distance queries.(q) db.(handle)) dist
                in
                if verified then begin
                  incr answered;
                  cost := !cost + c;
                  if Ground_truth.is_correct truth q (Some (handle, dist)) then incr correct;
                  if not (Hashtbl.mem first_answer q) then begin
                    Hashtbl.replace first_answer q (handle, dist);
                    Hashtbl.replace first_cost q c
                  end
                end;
                verified
            | r ->
                if tally.failed = 0 then
                  prerr_endline
                    ("l2-serve: first failed reply: "
                    ^ match r with
                      | Loadgen.Error m -> m
                      | Loadgen.Shed -> "shed"
                      | Loadgen.Timed_out -> "timed out"
                      | Loadgen.Not_found -> "not found"
                      | Loadgen.Answer _ -> "wrong answer");
                false
          in
          Tally.fixed tally ~ok;
          if traced then incr traced_requests;
          if ok then begin
            let raw = ms_of_s (o.recv.(i) -. (t0 +. d)) in
            let l = raw *. Pace.factor sp ~at:(t0 +. d) in
            if traced || not ctx.trace then begin
              lat_on := l :: !lat_on;
              raw_lat := raw :: !raw_lat
            end
            else lat_off := l :: !lat_off;
            late := ms_of_s (o.sent.(i) -. (t0 +. d)) :: !late
          end)
        due)
    fixed;
  let lat = Array.of_list !lat_on in
  put_pct "query_p50_ms" ~permille:500 "query_ms" lat;
  put_pct ~optional:ctx.trace "query_p99_ms" ~permille:990 "query_ms" lat;
  note_pace ~raw_p50_ms:(Stats.median (Array.of_list !raw_lat)) ps;
  (* Throughput from the server's own time: answers per CPU-second of
     this process, which hosts the server (the load generator is another
     process), at the nominal speed over the phase.  It moves with the
     code, not with the fixed rate offered, and a stall that queues
     requests without using the CPU does not count. *)
  put "query_qps" (float_of_int !answered /. (fixed_cpu *. Pace.overall ps));
  put "accuracy" (float_of_int !correct /. float_of_int (max 1 !answered));
  put "dist_per_query" (float_of_int !cost /. float_of_int (max 1 !answered));
  put_pct ~optional:true "client.late_ms_p99" ~permille:990 "client_late_ms" (Array.of_list !late);
  put "server.request_ms_p50" (ms_of_s (histogram_p50 ~before:req_before sm.request_seconds));
  put "server.batch_size_mean"
    ((Registry.histogram_sum sm.batch_size -. batch_s0)
    /. float_of_int (max 1 (Registry.histogram_count sm.batch_size - batch_n0)));
  (* Capacity search.  Sheds and time-outs are misses. *)
  let shed = ref 0 and timed_out = ref 0 in
  let probe rate =
    (* Enough requests that the rung's p99 has ten beyond it. *)
    let duration = 1150. /. rate in
    let t0, due, payload, (o : Loadgen.outcome) = phase ~rate ~duration in
    let lats = ref [] and missed = ref 0 in
    Array.iteri
      (fun i d ->
        match o.replies.(i) with
        | Loadgen.Answer { handle; dist; truncated = false; _ }
          when handle >= 0 && handle < db_size && same_bits (raw.distance queries.(payload.(i)) db.(handle)) dist ->
            lats := ms_of_s (o.recv.(i) -. (t0 +. d)) :: !lats
        | Loadgen.Shed -> incr shed; incr missed
        | Loadgen.Timed_out -> incr timed_out; incr missed
        | _ -> incr missed)
      due;
    let last_due = if Array.length due = 0 then t0 else t0 +. due.(Array.length due - 1) in
    let last_reply = Array.fold_left (fun a r -> if Float.is_nan r then a else Float.max a r) last_due o.recv in
    {
      Capacity.rate;
      p99_ms = Capacity.p99_with_misses ~latencies_ms:(Array.of_list !lats) ~missed:!missed;
      drain_ms = ms_of_s (last_reply -. last_due);
      attempted = Array.length due;
      missed = !missed;
    }
  in
  (* The climb starts near the limits seen on a 2-vCPU host, with budget
     left to fail a rung and bisect. *)
  let cap =
    spinning (fun () -> Capacity.search ~slo_ms ~start:(3. *. fixed_rate) ~step:1.25 ~precision:0.1 ~max_probes:8 ~probe)
  in
  List.iter (Tally.probe tally ~limit:cap.best) cap.probes;
  (match cap.best with
  | Some b when cap.bracketed -> put "max_qps_at_slo" b
  | _ -> note "max_qps_at_slo" (Json.Str "unbracketed"));
  put "admission.shed" (float_of_int !shed);
  put "admission.timed_out" (float_of_int !timed_out);
  note "capacity_probes"
    (Json.Arr
       (List.map
          (fun (p : Capacity.probe) ->
            Json.Obj
              [ ("rate", Json.Num p.rate); ("p99_ms", if Float.is_finite p.p99_ms then Json.Num p.p99_ms else Json.Null);
                ("drain_ms", Json.Num p.drain_ms); ("attempted", Json.Num (float_of_int p.attempted));
                ("missed", Json.Num (float_of_int p.missed)) ])
          cap.probes));
  note "capacity_probe_attempted" (Json.Num (float_of_int tally.probe_attempted));
  note "capacity_probe_missed" (Json.Num (float_of_int tally.probe_missed));
  note "capacity_probe_missed_above_limit" (Json.Num (float_of_int tally.probe_missed_above_limit));
  note "slo_ms" (Json.Num slo_ms);
  note "fixed_rate" (Json.Num fixed_rate);
  note "fixed_failed_share" (Json.Num (Tally.failed_share tally));
  (* Per-layer figures from the traced fixed-phase blocks. *)
  if ctx.trace then begin
    let tn = float_of_int (max 1 !traced_requests) in
    put "space.calls_per_query" (float_of_int dq.calls /. tn);
    put "shards.dist_ms_per_request" (ms_of_ns dq.ns /. tn);
    put "hash_family.dist_ms_per_query" (ms_of_ns dq.pivot_ns /. tn);
    put "index.refine_ms_per_query" (ms_of_ns (dq.ns - dq.pivot_ns) /. tn);
    put "minkowski.bytes_per_query" (float_of_int (2 * dim * 8 * dq.calls) /. tn)
  end;
  (match spans with
  | Some sp ->
      builder_metrics sp;
      put "trace.overhead" (Stats.median lat /. Stats.median (Array.of_list !lat_off) -. 1.);
      List.iter
        (fun (traced, t0, due, _, (o : Loadgen.outcome)) ->
          if traced then
            Array.iteri
              (fun i d ->
                if not (Float.is_nan o.recv.(i)) then
                  Spans.add sp ~req:(Int64.to_int o.ids.(i)) "client.search"
                    ~start_ns:(int_of_float ((t0 +. d) *. 1e9)) ~stop_ns:(int_of_float (o.recv.(i) *. 1e9)))
              due)
        fixed
  | None -> ());
  put "gc.minor_words_per_op" (fixed_gc.minor_words /. float_of_int (max 1 (Tally.(tally.attempted))));
  put "gc.major_collections" (float_of_int fixed_gc.major_collections);
  let rebuilds =
    match Json.member "shards" (Json.parse (Shards.stats_json sh)) with
    | Json.Arr l -> List.fold_left (fun a s -> match Json.member "rebuilds" s with Json.Num r -> a + int_of_float r | _ -> a) 0 l
    | _ -> failwith "l2-serve: shard stats carry no shard list"
  in
  put "online.rebuilds" (float_of_int rebuilds);
  (* Checkpoint, stop (which checkpoints and closes), bytes, reopen. *)
  let checkpoint () = Shards.checkpoint sh in
  let (), ck =
    time_s (fun () -> match spans with Some sp -> Spans.with_span sp "durable.checkpoint" checkpoint | None -> checkpoint ())
  in
  checkpoint_ms := [ ms_of_s ck ];
  delta_before := [ 0 ];
  Server.stop srv;
  server := None;
  let bytes = dir_bytes dir in
  put "bytes_per_user_byte" (float_of_int bytes /. float_of_int (db_size * String.length payloads.(0)));
  put "layout.snapshot_bytes"
    (float_of_int (List.fold_left ( + ) 0 (List.init shards (fun i -> file_size (newest_snapshot i)))));
  let sample = Array.init 50 Fun.id in
  let sh', recs = repeated ~name:"recover_s" ~repeats:recover_repeats ~discard:(fun (sh', _) -> Shards.close sh') (fun _ -> open_shards ()) in
  put "durable.replayed_ops" (float_of_int (Array.fold_left (fun a (r : Durable.recovery) -> a + r.replayed_ops) 0 recs));
  let answers =
    Shards.search_many sh' (Array.map (fun q -> (queries.(q), { Shards.budget; probes = 0; radius = 0 })) sample)
  in
  let same =
    Array.for_all2
      (fun q (a : Shards.answer) -> match Hashtbl.find_opt first_answer q with Some x -> a.nn = Some x | None -> true)
      sample answers
  in
  Shards.close sh';
  (* Layer counts the wire does not carry: replay the distinct queries
     against each reopened shard directly. *)
  if ctx.trace then begin
    let parts =
      List.init shards (fun i ->
          fst
            (Durable.open_or_create ~fsync:false ~rng:(Rng.create 0) ~space ~config ~target_accuracy:0.9
               ~encode:encode_vec ~decode:decode_vec ~dir:(shard_dir i) ()))
    in
    meter.pivots <- Array.concat (List.map (fun d -> pivots_of (Durable.online d)) parts);
    let sp = Option.get spans in
    meter.enabled <- true;
    (* One request's figures are the sums over its shard searches. *)
    let results =
      Array.map
        (fun q ->
          let rs =
            List.map
              (fun d ->
                Spans.with_span sp "hierarchical.search" (fun () ->
                    Durable.search ~opts:(Dbh.Query_opts.budgeted budget) d q))
              parts
          in
          List.fold_left
            (fun (a : _ Dbh.Online.result) (r : _ Dbh.Online.result) ->
              { a with stats = Dbh.Index.add_stats a.stats r.stats; levels_probed = a.levels_probed + r.levels_probed })
            (List.hd rs) (List.tl rs))
        queries
    in
    meter.enabled <- false;
    let correct =
      Array.fold_left ( + ) 0
        (Array.mapi
           (fun q _ ->
             match Hashtbl.find_opt first_answer q with
             | Some a -> Bool.to_int (Ground_truth.is_correct truth q (Some a))
             | None -> 0)
           queries)
    in
    stats_metrics ~correct results;
    let searches = Spans.named sp "hierarchical.search" in
    put "hierarchical.self_ms_per_query"
      (ms_of_ns (List.fold_left (fun a s -> a + Spans.self_ns s) 0 searches) /. float_of_int distinct_queries);
    (* Summed over shards, the replayed cost must equal the reply's. *)
    note "replayed_cost_gap"
      (Json.Num
         (float_of_int
            (Array.fold_left ( + ) 0
               (Array.mapi
                  (fun q (r : _ Dbh.Online.result) ->
                    match Hashtbl.find_opt first_cost q with Some c -> abs (c - Dbh.Index.total_cost r.stats) | None -> 0)
                  results))));
    cascade_metrics (List.map Durable.online parts);
    List.iter Durable.close parts
  end;
  checkpoint_metrics ();
  put "wal.bytes_per_write" 0.;
  put "peak_rss_mb" (Runrec.peak_rss_mb ());
  absent [ "dtw.cells_per_query" ];
  write_trace ctx spans;
  let ok = tally.failed = 0 && same && rebuilds = 0 in
  (ok, tally.attempted, tally.failed)
