(* dtw-query: the paper's headline setting.  About a thousand pen
   trajectories under DTW in a durable online index (target accuracy
   0.9, 40 pivots, 80 sample queries), then one caller searching held-out
   trajectories in a closed loop.  Distance kernels dominate here, so
   kernel and refinement work should show in this workload and nowhere
   else. *)

open Common
open Perfbench_harness
module Pen = Dbh_datasets.Pen_digits

let db_size = 1000
let pool_size = 600
let distinct_queries = 300
let recover_repeats = 3

(* Slightly harder than the library defaults, as in bench/main.ml, so
   nearest-neighbour distances spread enough to stratify. *)
let pen_params =
  { Pen.default_params with control_jitter = 0.05; noise_sigma = 0.02; warp_strength = 0.3 }

let config = { Dbh.Builder.default_config with num_pivots = 40; num_sample_queries = 80 }

let run ctx =
  pin_to_one_cpu ();
  let all = Pen.generate_set ~rng:(Rng.create dataset_seed) ~params:pen_params (db_size + pool_size) in
  let db = Array.sub all 0 db_size and pool = Array.sub all db_size pool_size in
  let raw = Pen.space in
  let picks = List.hd (draw ~rng:(Rng.create ctx.seed) pool [ distinct_queries ]) in
  let queries = Array.map (fun i -> pool.(i)) picks in
  let truth = truth_of (ground_truth ~space:raw ~encode:encode_pen ~db ~queries:pool) picks in
  let cells (a : Pen.instance) (b : Pen.instance) = Array.length a.points * Array.length b.points in
  let meter = Dist_meter.create ~cells () in
  let space = Space.make ?item_cost:raw.item_cost ~name:raw.name (Dist_meter.wrap meter raw.distance) in
  let spans = if ctx.trace then Some (Spans.create ~snapshot:(fun () -> Dist_meter.snapshot meter) ()) else None in
  let dir = fresh_dir "dtw-query" in
  note_durable ~dir ~fsync:true;
  let open_dir ?data () =
    Durable.open_or_create ~rng:(Rng.create index_seed) ~space ~config ~target_accuracy:0.9
      ~encode:encode_pen ~decode:decode_pen ~dir ?data ()
  in
  (* Set-up: build + initial snapshot. *)
  meter.enabled <- ctx.trace;
  let d =
    timed_setup ?spans ~dir ~build:(fun () -> fst (open_dir ~data:db ())) ~discard:Durable.close ()
  in
  meter.pivots <- pivots_of (Durable.online d);
  (* Closed loop.  The first pass over the distinct queries is verified
     and scored; later passes must repeat its answers exactly. *)
  settle ();
  let first = Array.make distinct_queries None in
  (* Each search is followed by one reference unit, timed apart. *)
  let pace = Pace.create () in
  let lat_on = ref [] and lat_off = ref [] in
  let failed = ref 0 and attempted = ref 0 in
  let meter0 = Dist_meter.snapshot meter in
  let gc1 = gc_now () in
  let t0 = Clock.now_s () in
  (* Enough searches for a p99; traced runs, which report no end-to-end
     percentiles, need one scored pass. *)
  let min_searches = if ctx.trace then distinct_queries else Pct.min_samples ~permille:990 in
  let block = 20 in
  let k = ref 0 and traced_cost = ref 0 in
  while Clock.now_s () -. t0 < ctx.seconds || !k < min_searches do
    let i = !k mod distinct_queries in
    (* Traced runs alternate traced and untraced blocks, so the tracing
       overhead is measured under the same machine conditions. *)
    let traced = ctx.trace && !k / block mod 2 = 0 in
    meter.enabled <- traced;
    let q = queries.(i) in
    let a = Clock.now_ns () in
    (* Allocation is counted over the first pass, which every run makes. *)
    let search () = if !k < distinct_queries then counting_alloc (fun () -> Durable.search d q) else Durable.search d q in
    let r =
      match spans with
      | Some sp when traced -> Spans.with_span sp ~req:!k "hierarchical.search" search
      | _ -> search ()
    in
    let b = Clock.now_ns () in
    Pace.tick pace;
    let dst = if traced || not ctx.trace then lat_on else lat_off in
    dst := (a, ms_of_ns (b - a)) :: !dst;
    if traced then traced_cost := !traced_cost + Dbh.Index.total_cost r.stats;
    incr attempted;
    (match first.(i) with
    | None ->
        first.(i) <- Some r;
        if not (verifies ~space:raw ~get:(Durable.get d) q r.nn) || r.truncated then incr failed
    | Some r0 -> if r.nn <> r0.Dbh.Online.nn then incr failed);
    incr k
  done;
  meter.enabled <- false;
  let q_gc = gc_since gc1 in
  let dq = Dist_meter.diff (Dist_meter.snapshot meter) meter0 in
  let results = Array.map Option.get first in
  let answers = Array.map (fun (r : _ Dbh.Online.result) -> r.nn) results in
  let correct = Array.fold_left ( + ) 0 (Array.mapi (fun i nn -> Bool.to_int (Ground_truth.is_correct truth i nn)) answers) in
  let ps = Pace.samples pace in
  let sp = Pace.speed ps in
  let at_nominal l = Array.of_list (List.map (fun (a, ms) -> ms *. Pace.factor sp ~at:(float_of_int a *. 1e-9)) l) in
  let lat = at_nominal !lat_on and lat_off = at_nominal !lat_off in
  put_pct "query_p50_ms" ~permille:500 "query_ms" lat;
  put_pct ~optional:ctx.trace "query_p99_ms" ~permille:990 "query_ms" lat;
  note_pace ~raw_p50_ms:(Stats.median (Array.of_list (List.map snd !lat_on))) ps;
  (* Searches per second of search time, at the nominal speed: the
     reference units and the answer checks between searches are not
     counted. *)
  let busy_s = (Array.fold_left ( +. ) 0. lat +. Array.fold_left ( +. ) 0. lat_off) *. 1e-3 in
  put "query_qps" (float_of_int !attempted /. busy_s);
  put "accuracy" (float_of_int correct /. float_of_int distinct_queries);
  put "dist_per_query"
    (Stats.mean (Array.map (fun (r : _ Dbh.Online.result) -> float_of_int (Dbh.Index.total_cost r.stats)) results));
  stats_metrics ~correct results;
  cascade_metrics [ Durable.online d ];
  (* Per-layer figures from the traced blocks. *)
  (match spans with
  | Some sp ->
      put "dtw.ns_per_cell" (float_of_int dq.ns /. float_of_int (max 1 dq.cells));
      (* Per-query figures over the first pass's traced searches, the same
         queries in every run of a seed. *)
      search_metrics (List.filter (fun (s : Spans.span) -> s.req < distinct_queries) (Spans.named sp "hierarchical.search"));
      note "space_calls_minus_cost" (Json.Num (float_of_int (dq.calls - !traced_cost)));
      builder_metrics sp;
      put "trace.overhead" (Stats.median lat /. Stats.median lat_off -. 1.)
  | None -> ());
  put "gc.minor_words_per_op" (!allocated /. float_of_int distinct_queries);
  put "gc.major_collections" (float_of_int q_gc.major_collections);
  let rebuilds = Dbh.Online.rebuilds (Durable.online d) in
  put "online.rebuilds" (float_of_int rebuilds);
  (* Durable epilogue: final checkpoint, bytes, reopen. *)
  let user_bytes = Array.fold_left (fun a x -> a + String.length (encode_pen x)) 0 db in
  let same =
    durable_epilogue ~checkpoint:(fun () -> timed_checkpoint ?spans d) ~repeats:recover_repeats ~dir ~d
      ~reopen:(fun () -> open_dir ()) ~user_bytes ~sample:(Array.sub queries 0 50)
  in
  checkpoint_metrics ();
  put "peak_rss_mb" (Runrec.peak_rss_mb ());
  put "wal.bytes_per_write" 0.;
  absent [ "minkowski.bytes_per_query"; "server.batch_size_mean"; "admission.shed"; "admission.timed_out" ];
  write_trace ctx spans;
  rm_rf dir;
  let ok = !failed = 0 && same && rebuilds = 0 in
  (ok, !attempted, !failed)
