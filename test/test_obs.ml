(* Tests for the observability layer (lib/obs) and its wiring through
   the query pipeline:

   - the registry primitives (counters, gauges, histograms) and the
     Prometheus text exposition round-trip,
   - reconciliation: the ambient metric set must agree exactly with the
     per-query stats it summarizes AND with a counted space's raw
     distance-call delta on the serving path,
   - trace event ordering for a cascaded query,
   - logical counters identical between a sequential run and a 4-domain
     pool run of the same workload,
   - Query_opts carrying budgets/metrics/traces into every query shape. *)

module Rng = Dbh_util.Rng
module Pool = Dbh_util.Pool
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Hash_family = Dbh.Hash_family
module Analysis = Dbh.Analysis
module Index = Dbh.Index
module Key = Dbh.Key
module Hierarchical = Dbh.Hierarchical
module Builder = Dbh.Builder
module Query_opts = Dbh.Query_opts
module Registry = Dbh_obs.Registry
module Metrics = Dbh_obs.Metrics
module Trace = Dbh_obs.Trace

let l2 = Minkowski.l2_space

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:6 n in
  db

(* A single-level index over a counted space, so raw distance calls can
   be reconciled against the metric counters. *)
let make_index ?(seed = 70) () =
  let db = test_db seed 400 in
  let rng = Rng.create (seed + 1) in
  let counted, counter = Space.with_counter l2 in
  let family =
    Hash_family.make ~rng ~space:counted ~num_pivots:20 ~threshold_sample:150 db
  in
  let index = Index.build ~rng ~family ~db ~k:6 ~l:8 () in
  (index, db, counter)

let make_hier ?(seed = 80) () =
  let db = test_db seed 500 in
  let rng = Rng.create (seed + 1) in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:25 ~threshold_sample:200 db in
  let query_indices = Rng.sample_indices rng 80 500 in
  let analysis =
    Analysis.build ~rng ~family ~db ~pivot_table:(Hash_family.pivot_table family db)
      ~query_indices ~num_fns:200 ~db_sample:200 ()
  in
  let h =
    Hierarchical.build ~rng ~family ~db ~analysis ~target_accuracy:0.9 ~levels:4
      ~k_max:15 ~l_max:200 ()
  in
  (h, db, rng)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let queries_for db rng n =
  Array.init n (fun _ ->
      Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(Rng.int rng (Array.length db)))

(* ------------------------------------------------------------- registry *)

let test_registry_counter_gauge () =
  let reg = Registry.create () in
  let c = Registry.counter reg ~help:"a counter" "t_total" in
  let g = Registry.gauge reg "t_depth" in
  Registry.inc c;
  Registry.add c 4;
  Registry.set g 7;
  Registry.set g 3;
  Alcotest.(check int) "counter" 5 (Registry.counter_value c);
  Alcotest.(check int) "gauge keeps last" 3 (Registry.gauge_value g);
  Alcotest.check_raises "counters are monotone"
    (Invalid_argument "Registry.add: counters are monotone") (fun () ->
      Registry.add c (-1))

let test_registry_duplicate_rejected () =
  let reg = Registry.create () in
  let _ = Registry.counter reg "dup_total" in
  (try
     let _ = Registry.counter reg "dup_total" in
     Alcotest.fail "duplicate registration must raise"
   with Invalid_argument _ -> ());
  (* Same name with a different label set is a distinct sample. *)
  let _ = Registry.counter reg ~labels:[ ("kind", "a") ] "lab_total" in
  let _ = Registry.counter reg ~labels:[ ("kind", "b") ] "lab_total" in
  ()

let test_registry_histogram_invariants () =
  let reg = Registry.create () in
  let h = Registry.histogram reg ~buckets:[| 1.; 5.; 25. |] "t_cost" in
  List.iter (Registry.observe h) [ 0.5; 0.5; 3.; 30.; 4.; 25. ];
  Alcotest.(check int) "count" 6 (Registry.histogram_count h);
  Alcotest.(check (float 1e-9)) "sum" 63. (Registry.histogram_sum h);
  let samples = Registry.parse_exposition (Registry.exposition reg) in
  let sample name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.fail (Printf.sprintf "missing sample %s" name)
  in
  (* Cumulative buckets are monotone and the +Inf bucket equals count. *)
  let b1 = sample "t_cost_bucket{le=\"1\"}" in
  let b5 = sample "t_cost_bucket{le=\"5\"}" in
  let b25 = sample "t_cost_bucket{le=\"25\"}" in
  let binf = sample "t_cost_bucket{le=\"+Inf\"}" in
  Alcotest.(check (float 0.)) "le 1" 2. b1;
  Alcotest.(check (float 0.)) "le 5" 4. b5;
  Alcotest.(check (float 0.)) "le 25 includes boundary" 5. b25;
  Alcotest.(check (float 0.)) "+Inf = count" 6. binf;
  Alcotest.(check bool) "monotone" true (b1 <= b5 && b5 <= b25 && b25 <= binf);
  Alcotest.(check (float 0.)) "count sample" 6. (sample "t_cost_count");
  Alcotest.(check (float 1e-9)) "sum sample" 63. (sample "t_cost_sum")

let test_exposition_round_trip () =
  let m = Metrics.create () in
  Registry.add m.Metrics.distance_computations_total 123;
  Registry.inc m.Metrics.queries_total;
  Registry.set m.Metrics.snapshot_bytes 4096;
  Registry.observe m.Metrics.query_seconds 0.002;
  let samples = Registry.parse_exposition (Registry.exposition m.Metrics.registry) in
  let get name = List.assoc_opt name samples in
  Alcotest.(check (option (float 0.))) "counter" (Some 123.)
    (get "dbh_distance_computations_total");
  Alcotest.(check (option (float 0.))) "queries" (Some 1.) (get "dbh_queries_total");
  Alcotest.(check (option (float 0.))) "gauge" (Some 4096.) (get "dbh_snapshot_bytes");
  Alcotest.(check (option (float 0.))) "histogram count" (Some 1.)
    (get "dbh_query_seconds_count");
  (* find_sample is the same lookup. *)
  Alcotest.(check (option (float 0.))) "find_sample" (Some 123.)
    (Registry.find_sample m.Metrics.registry "dbh_distance_computations_total");
  (* JSON export mentions every family name. *)
  let json = Registry.to_json m.Metrics.registry in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in json") true (contains ~affix:name json))
    [ "dbh_queries_total"; "dbh_query_cost"; "dbh_snapshot_bytes" ]

(* ------------------------------------------------------- reconciliation *)

let test_counters_match_space_delta () =
  let index, db, counter = make_index () in
  let rng = Rng.create 71 in
  let queries = queries_for db rng 40 in
  Space.reset counter;
  let m = Metrics.create () in
  let opts = Query_opts.make ~metrics:m () in
  let results = Array.map (Index.search ~opts index) queries in
  let delta = Space.count counter in
  let reported =
    Array.fold_left (fun acc r -> acc + Index.total_cost r.Index.stats) 0 results
  in
  let counted = Registry.counter_value m.Metrics.distance_computations_total in
  Alcotest.(check int) "counter = per-query stats" reported counted;
  Alcotest.(check int) "counter = raw space delta" delta counted;
  Alcotest.(check int) "queries_total" (Array.length queries)
    (Registry.counter_value m.Metrics.queries_total);
  Alcotest.(check int) "hash + lookup = total"
    counted
    (Registry.counter_value m.Metrics.hash_distance_computations_total
    + Registry.counter_value m.Metrics.lookup_distance_computations_total);
  (* The per-query cost histogram summarizes the same numbers. *)
  Alcotest.(check int) "histogram count = queries" (Array.length queries)
    (Registry.histogram_count m.Metrics.query_cost);
  Alcotest.(check (float 1e-9)) "histogram sum = total cost" (float_of_int counted)
    (Registry.histogram_sum m.Metrics.query_cost)

let test_ambient_install_and_explicit_override () =
  let index, db, _ = make_index ~seed:72 () in
  let q = db.(0) in
  let ambient = Metrics.create () in
  let explicit = Metrics.create () in
  Metrics.with_installed ambient (fun () ->
      ignore (Index.search index q);
      ignore (Index.search ~opts:(Query_opts.make ~metrics:explicit ()) index q));
  Alcotest.(check int) "ambient saw only the bare query" 1
    (Registry.counter_value ambient.Metrics.queries_total);
  Alcotest.(check int) "explicit wins over ambient" 1
    (Registry.counter_value explicit.Metrics.queries_total);
  (* Outside with_installed nothing is recorded. *)
  ignore (Index.search index q);
  Alcotest.(check int) "uninstalled records nothing" 1
    (Registry.counter_value ambient.Metrics.queries_total)

let test_budget_via_opts () =
  let index, db, _ = make_index ~seed:73 () in
  let rng = Rng.create 74 in
  let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(7) in
  let m = Metrics.create () in
  let tight = Index.search ~opts:(Query_opts.make ~budget:5 ~metrics:m ()) index q in
  Alcotest.(check bool) "tight budget truncates" true tight.Index.truncated;
  Alcotest.(check int) "truncation counted" 1
    (Registry.counter_value m.Metrics.queries_truncated_total);
  Alcotest.(check int) "truncation spent the whole budget" 5
    (Index.total_cost tight.Index.stats);
  let loose = Index.search ~opts:(Query_opts.budgeted 100_000) index q in
  Alcotest.(check bool) "loose budget completes" false loose.Index.truncated

(* k-NN, range and collision-ranked queries have no best-so-far answer
   to truncate to, so they refuse a budget instead of ignoring it. *)
let test_budget_rejected_without_truncation () =
  let index, db, _ = make_index ~seed:74 () in
  let q = db.(3) in
  let opts = Query_opts.budgeted 3 in
  let rejects name f =
    Alcotest.check_raises name
      (Invalid_argument (name ^ ": opts.budget is not supported (use search)"))
      (fun () -> ignore (f ()))
  in
  rejects "Index.query_knn" (fun () -> Index.query_knn ~opts index 5 q);
  rejects "Index.query_range" (fun () -> Index.query_range ~opts index 1. q);
  rejects "Index.query_budgeted" (fun () ->
      Index.query_budgeted ~opts index ~max_candidates:4 q)

(* Metrics cost a constant per query, not a cost per candidate, and
   never change an answer.  Over a warmed sweep of 400 pen digits under
   a frozen DTW memo, installing a metric set adds 16 words per query to
   both the single-level and the cascade search: a clock reading, the
   elapsed seconds and three histogram sums.  The ceiling of 24 breaks
   as soon as the metrics path allocates for each scored candidate.
   The bare, metered and traced sweeps must return identical results. *)
let test_metrics_cost_constant_per_query () =
  let w = Memo_pen.make ~n:400 ~m:75 in
  let db = w.Memo_pen.db and queries = w.Memo_pen.queries in
  let config =
    {
      Builder.default_config with
      num_pivots = 15;
      threshold_sample = 75;
      num_sample_queries = 50;
      num_fns = 100;
      db_sample = 100;
      levels = 3;
    }
  in
  let rng = Rng.create 97 in
  let prepared = Builder.prepare ~rng ~space:w.Memo_pen.space ~config db in
  let index =
    Index.build ~rng ~family:prepared.Builder.family ~db
      ~pivot_table:prepared.Builder.pivot_table ~k:10 ~l:8 ()
  in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let m = Metrics.create () in
  let surfaces =
    [
      ("Index.search", fun opts q -> Index.search ~opts index q);
      ("Hierarchical.search", fun opts q -> Hierarchical.search ~opts h q);
    ]
  in
  let bare search q = search Query_opts.default q in
  let traced search q = search (Query_opts.make ~trace:(Trace.create ()) ()) q in
  (* Warm every mode once, then freeze the memo. *)
  List.iter
    (fun (_, search) ->
      ignore (Array.map (bare search) queries);
      ignore (Metrics.with_installed m (fun () -> Array.map (bare search) queries));
      ignore (Array.map (traced search) queries))
    surfaces;
  w.Memo_pen.freeze ();
  List.iter
    (fun (name, search) ->
      let off, off_words = Memo_pen.words_per_query (bare search) queries in
      let on, on_words =
        Metrics.with_installed m (fun () -> Memo_pen.words_per_query (bare search) queries)
      in
      if on_words -. off_words > 24. then
        Alcotest.failf "%s: metrics added %.1f words per query; the ceiling is 24" name
          (on_words -. off_words);
      Alcotest.(check bool) (name ^ ": metrics change no answer") true (on = off);
      Alcotest.(check bool)
        (name ^ ": tracing changes no answer")
        true
        (Array.map (traced search) queries = off))
    surfaces

(* ------------------------------------------------------------- tracing *)

let test_trace_knn_timeline () =
  let index, db, _ = make_index ~seed:76 () in
  let rng = Rng.create 77 in
  let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(9) in
  let trace = Trace.create () in
  let hits, stats = Index.query_knn ~opts:(Query_opts.make ~trace ()) index 5 q in
  let events = Array.map snd (Trace.events trace) in
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped trace);
  Alcotest.(check bool) "found neighbours" true (Array.length hits > 0);
  (match events.(0) with
  | Trace.Query_start _ -> ()
  | _ -> Alcotest.fail "first event must be Query_start");
  let count p = Array.fold_left (fun n e -> if p e then n + 1 else n) 0 events in
  Alcotest.(check int) "one Candidate per lookup" stats.Index.lookup_cost
    (count (function Trace.Candidate _ -> true | _ -> false));
  Alcotest.(check int) "one Bucket_probe per probe" stats.Index.probes
    (count (function Trace.Bucket_probe _ -> true | _ -> false));
  (* The same holds when the probe budget covers the whole Hamming ball:
     radius 1 with k extra probes, radius 2 with the ball's k + k(k-1)/2. *)
  let k = Index.k index in
  List.iter
    (fun radius ->
      let ball = Key.ball_size ~width:k ~radius in
      let trace = Trace.create () in
      let opts =
        Query_opts.make ~trace ~probes_per_table:(1 + ball) ~hamming_radius:radius ()
      in
      let _, stats = Index.query_knn ~opts index 5 q in
      let what = Printf.sprintf "full radius-%d ball" radius in
      Alcotest.(check int) (what ^ ": nothing dropped") 0 (Trace.dropped trace);
      Alcotest.(check int) (what ^ ": every ball key probed")
        (Index.l index * (1 + ball))
        stats.Index.probes;
      Alcotest.(check int)
        (what ^ ": one Bucket_probe per probe")
        stats.Index.probes
        (Array.fold_left
           (fun n (_, e) -> match e with Trace.Bucket_probe _ -> n + 1 | _ -> n)
           0 (Trace.events trace)))
    [ 1; 2 ];
  Alcotest.(check int) "one Pivot_miss per hash distance" stats.Index.hash_cost
    (count (function Trace.Pivot_miss _ -> true | _ -> false));
  (match events.(Array.length events - 1) with
  | Trace.Query_done { hash_cost; lookup_cost; probes; levels_probed; truncated } ->
      Alcotest.(check int) "done hash_cost" stats.Index.hash_cost hash_cost;
      Alcotest.(check int) "done lookup_cost" stats.Index.lookup_cost lookup_cost;
      Alcotest.(check int) "done probes" stats.Index.probes probes;
      Alcotest.(check int) "done levels" 1 levels_probed;
      Alcotest.(check bool) "done truncated" false truncated
  | _ -> Alcotest.fail "last event must be Query_done");
  (* Every returned neighbour was scored, at the distance it carries. *)
  Array.iter
    (fun (id, d) ->
      Alcotest.(check bool) "neighbour has its Candidate event" true
        (Array.exists
           (function
             | Trace.Candidate { id = c; distance; _ } -> c = id && distance = d
             | _ -> false)
           events))
    hits


let test_trace_cascade_ordering () =
  let h, db, rng = make_hier () in
  let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.2 db.(11) in
  let trace = Trace.create () in
  let r = Hierarchical.search ~opts:(Query_opts.make ~trace ()) h q in
  let events = Array.map snd (Trace.events trace) in
  let times = Array.map fst (Trace.events trace) in
  Alcotest.(check bool) "non-empty" true (Array.length events > 2);
  Alcotest.(check int) "nothing dropped" 0 (Trace.dropped trace);
  (* Timestamps never go backwards. *)
  Array.iteri
    (fun i t -> if i > 0 then Alcotest.(check bool) "time monotone" true (t >= times.(i - 1)))
    times;
  (match events.(0) with
  | Trace.Query_start { kind } ->
      Alcotest.(check bool) "kind names the cascade" true
        (contains ~affix:"hierarchical" kind)
  | _ -> Alcotest.fail "first event must be Query_start");
  (match events.(Array.length events - 1) with
  | Trace.Query_done { hash_cost; lookup_cost; levels_probed; truncated; _ } ->
      Alcotest.(check int) "done hash_cost" r.Index.stats.Index.hash_cost hash_cost;
      Alcotest.(check int) "done lookup_cost" r.Index.stats.Index.lookup_cost lookup_cost;
      Alcotest.(check int) "done levels" r.Index.levels_probed levels_probed;
      Alcotest.(check bool) "done truncated" r.Index.truncated truncated
  | _ -> Alcotest.fail "last event must be Query_done");
  (* Cascade structure: levels are entered in order starting at 0, every
     probe/candidate happens inside some level, and the number of levels
     entered is what the result reports. *)
  let current_level = ref (-1) in
  let entered = ref 0 in
  Array.iter
    (fun ev ->
      match ev with
      | Trace.Level_enter { level; _ } ->
          Alcotest.(check int) "levels in order" (!current_level + 1) level;
          current_level := level;
          incr entered
      | Trace.Bucket_probe { level; _ } ->
          Alcotest.(check int) "probe inside current level" !current_level level
      | Trace.Candidate _ | Trace.Pivot_hit _ | Trace.Pivot_miss _ ->
          Alcotest.(check bool) "work only inside a level" true (!current_level >= 0)
      | Trace.Level_settled { level; _ } ->
          Alcotest.(check int) "settled at current level" !current_level level
      | _ -> ())
    events;
  Alcotest.(check int) "levels entered = levels_probed" r.Index.levels_probed !entered;
  (* Candidate [improved] flags replay the best-so-far chain. *)
  let best = ref infinity in
  Array.iter
    (function
      | Trace.Candidate { distance; improved; _ } ->
          Alcotest.(check bool) "improved flag consistent" (distance < !best) improved;
          if improved then best := distance
      | _ -> ())
    events;
  (match r.Index.nn with
  | Some (_, d) -> Alcotest.(check (float 1e-9)) "final best = result" d !best
  | None -> Alcotest.fail "expected a neighbor");
  (* The timeline pretty-printer and JSON export stay total. *)
  let rendered = Format.asprintf "%a" Trace.pp trace in
  Alcotest.(check bool) "pp renders all lines" true
    (List.length (String.split_on_char '\n' (String.trim rendered))
    >= Array.length events);
  Alcotest.(check bool) "json non-empty" true (String.length (Trace.to_json trace) > 2)

(* One evaluation per hash function per query: the levels of a cascade
   share the query's family row, so a level skips every function an
   earlier level already evaluated.  Each evaluation looks up two pivot
   distances, so a traced search that enters several levels records at
   most two pivot events (hit or miss) per family function. *)
let test_trace_one_eval_per_function () =
  let h, db, rng = make_hier () in
  let bound = 2 * Hash_family.size (Hierarchical.family h) in
  let pivot_events trace =
    Array.fold_left
      (fun n (_, e) -> match e with Trace.Pivot_hit _ | Trace.Pivot_miss _ -> n + 1 | _ -> n)
      0 (Trace.events trace)
  in
  (* Queries far from the data run the cascade deep. *)
  let deep =
    List.init 20 (fun i -> Dbh_datasets.Vectors.perturb ~rng ~sigma:1.0 db.(i * 7))
    |> List.filter_map (fun q ->
           let trace = Trace.create () in
           let r = Hierarchical.search ~opts:(Query_opts.make ~trace ()) h q in
           if r.Index.levels_probed >= 2 then Some (r.Index.levels_probed, pivot_events trace)
           else None)
  in
  Alcotest.(check bool) "some query enters two levels" true (deep <> []);
  List.iter
    (fun (levels, events) ->
      if events > bound then
        Alcotest.failf "%d pivot events over %d levels; at most %d expected" events levels bound)
    deep

(* The family row is reset between queries: in a domain whose workspace
   a first query just used, a second query answers, costs, truncates and
   traces exactly as in a freshly spawned domain, whatever budget cut
   the first one short (mid-hash included), with and without
   multi-probe. *)
let test_shared_scratch_resets_family_row () =
  let h, db, rng = make_hier () in
  let q1 = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.3 db.(3) in
  let q2 = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.3 db.(250) in
  let run ?budget ~probes q =
    let trace = Trace.create ~clock:(fun () -> 0.) () in
    let opts = Query_opts.make ?budget ~trace ~probes_per_table:probes ~hamming_radius:1 () in
    let r = Hierarchical.search ~opts h q in
    (r.Index.nn, r.Index.stats, r.Index.truncated, r.Index.levels_probed, Trace.events trace)
  in
  List.iter
    (fun probes ->
      List.iter
        (fun budget ->
          ignore (run ?budget ~probes q1);
          let fresh = Domain.join (Domain.spawn (fun () -> run ?budget ~probes q2)) in
          if run ?budget ~probes q2 <> fresh then
            Alcotest.failf "a used workspace changed the second query (budget %s, probes %d)"
              (match budget with None -> "none" | Some b -> string_of_int b)
              probes)
        (None :: List.init 60 (fun b -> Some (b + 1))))
    [ 1; 4 ]

let test_trace_capacity_bounded () =
  let trace = Trace.create ~clock:(fun () -> 0.) ~capacity:4 () in
  for i = 0 to 9 do
    Trace.record trace (Trace.Pivot_miss { pivot = i })
  done;
  Alcotest.(check int) "capped" 4 (Trace.length trace);
  Alcotest.(check int) "dropped the rest" 6 (Trace.dropped trace);
  Trace.clear trace;
  Alcotest.(check int) "clear empties" 0 (Trace.length trace);
  Alcotest.(check int) "clear resets dropped" 0 (Trace.dropped trace)

(* ------------------------------------------------------- multicore runs *)

let test_parallel_logical_counters_identical () =
  let h, db, rng = make_hier ~seed:81 () in
  let queries = queries_for db rng 60 in
  (* Installed (not explicit) metrics, so the pool's own physical
     instrumentation lands in the same set as the query counters. *)
  let run pool =
    let m = Metrics.create () in
    let results =
      Metrics.with_installed m (fun () ->
          Hierarchical.search_batch ~opts:(Query_opts.make ?pool ()) h queries)
    in
    (m, results)
  in
  let m_seq, r_seq = run None in
  let m_par, r_par = Pool.with_pool ~domains:4 (fun pool -> run (Some pool)) in
  Alcotest.(check bool) "answers bit-identical" true (r_seq = r_par);
  (* Every logical counter agrees; pool_* gauges/counters are physical
     and deliberately excluded. *)
  List.iter
    (fun (name, pick) ->
      Alcotest.(check int) name
        (Registry.counter_value (pick m_seq))
        (Registry.counter_value (pick m_par)))
    [
      ("queries_total", fun m -> m.Metrics.queries_total);
      ("queries_truncated_total", fun m -> m.Metrics.queries_truncated_total);
      ("distance_computations_total", fun m -> m.Metrics.distance_computations_total);
      ("hash_distance_computations_total", fun m -> m.Metrics.hash_distance_computations_total);
      ("lookup_distance_computations_total", fun m -> m.Metrics.lookup_distance_computations_total);
      ("bucket_probes_total", fun m -> m.Metrics.bucket_probes_total);
      ("levels_probed_total", fun m -> m.Metrics.levels_probed_total);
      ("pivot_cache_hits_total", fun m -> m.Metrics.pivot_cache_hits_total);
      ("pivot_cache_misses_total", fun m -> m.Metrics.pivot_cache_misses_total);
    ];
  Alcotest.(check int) "cost histogram count identical"
    (Registry.histogram_count m_seq.Metrics.query_cost)
    (Registry.histogram_count m_par.Metrics.query_cost);
  Alcotest.(check (float 1e-9)) "cost histogram sum identical"
    (Registry.histogram_sum m_seq.Metrics.query_cost)
    (Registry.histogram_sum m_par.Metrics.query_cost);
  (* The pool run did record physical pool activity. *)
  Alcotest.(check bool) "pool tasks recorded" true
    (Registry.counter_value m_par.Metrics.pool_tasks_total > 0);
  Alcotest.(check int) "sequential run used no pool" 0
    (Registry.counter_value m_seq.Metrics.pool_tasks_total)

(* ------------------------------------------------ Query_opts equivalences *)

(* The batch spelling must agree with the per-query one it stands for. *)
let test_query_opts_equivalences () =
  let index, db, _ = make_index ~seed:75 () in
  let qs = Array.sub db 0 10 in
  Alcotest.(check bool) "batch agrees with per-query" true
    (Index.search_batch index qs = Array.map (Index.search index) qs)

let () =
  Alcotest.run "dbh_obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter and gauge" `Quick test_registry_counter_gauge;
          Alcotest.test_case "duplicate names rejected" `Quick test_registry_duplicate_rejected;
          Alcotest.test_case "histogram invariants" `Quick test_registry_histogram_invariants;
          Alcotest.test_case "exposition round-trip" `Quick test_exposition_round_trip;
        ] );
      ( "reconciliation",
        [
          Alcotest.test_case "counters = space delta = stats" `Quick
            test_counters_match_space_delta;
          Alcotest.test_case "ambient install + override" `Quick
            test_ambient_install_and_explicit_override;
          Alcotest.test_case "budget via opts" `Quick test_budget_via_opts;
          Alcotest.test_case "budget rejected without truncation" `Quick
            test_budget_rejected_without_truncation;
          Alcotest.test_case "metrics cost a constant per query" `Quick
            test_metrics_cost_constant_per_query;
        ] );
      ( "trace",
        [
          Alcotest.test_case "cascade event ordering" `Quick test_trace_cascade_ordering;
          Alcotest.test_case "k-NN timeline" `Quick test_trace_knn_timeline;
          Alcotest.test_case "capacity bounded" `Quick test_trace_capacity_bounded;
          Alcotest.test_case "one evaluation per function" `Quick
            test_trace_one_eval_per_function;
          Alcotest.test_case "shared scratch resets the family row" `Quick
            test_shared_scratch_resets_family_row;
        ] );
      ( "multicore",
        [
          Alcotest.test_case "4-domain logical counters identical" `Quick
            test_parallel_logical_counters_identical;
        ] );
      ( "compat",
        [
          Alcotest.test_case "query_opts equivalences" `Quick test_query_opts_equivalences;
        ] );
    ]
