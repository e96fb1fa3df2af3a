(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md section 4 for the experiment index).

   Sections, in output order (key, id, what):
     serve          (N1)  network tier goodput across saturation, writes BENCH_serve.json
     family-stats   (T1)  family construction audit (Sec. VI-B)
     non-lsh        (T4)  random-matrix collision rates (Sec. IV-B)
     kl-landscape   (T3)  U-shaped cost in k (Sec. IV-D)
     bruteforce     (T2)  brute-force 1-NN errors + throughputs (Sec. VI-A)
     calibration    (T5)  predicted vs measured accuracy and cost
     figure5-unipen (F5a) accuracy vs cost, three methods
     figure5-mnist  (F5b)
     figure5-hands  (F5c)
     xsmall         (A1)  |X_small| sweep
     levels         (A2)  hierarchical s sweep
     vs-lsh         (A3)  DBH vs classical LSH on L2
     baselines      (B1)  DBH vs LAESA, M-tree, FastMap filter+refine
     multiprobe     (A4)  multi-probe vs plain tables, writes BENCH_multiprobe.json
     faults         (R1)  hardened pipeline under injected faults
     parallel       (P1)  domain-pool scaling, writes BENCH_parallel.json
     micro                Bechamel micro-benchmarks

   Durability, replication, storage and instrumentation costs are gated
   by the tests (test_persist, test_replica, test_storage, test_obs) and
   timed by perfbench/.  The two timed sections here, parallel and
   serve, share [interleaved].

   DBH_BENCH_SCALE=quick shrinks every workload ~4x for smoke runs;
   DBH_BENCH_SECTIONS=key,key runs only the named sections and rejects
   an unknown key. *)

module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Stats = Dbh_util.Stats
module Report = Dbh_eval.Report
module Figure5 = Dbh_eval.Figure5
module Ground_truth = Dbh_eval.Ground_truth
module Tradeoff = Dbh_eval.Tradeoff

let quick =
  match Sys.getenv_opt "DBH_BENCH_SCALE" with Some "quick" -> true | _ -> false

let sc n = if quick then max 10 (n / 4) else n

(* [f ()] and the seconds it took.  With [min_time], [f] is called
   until that long has passed and the mean seconds per call reported, so
   a phase of a few milliseconds is not timed by one scheduler tick. *)
let seconds ?(min_time = 0.) f =
  let t0 = Unix.gettimeofday () in
  let rec go calls =
    let y = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= min_time then (y, dt /. float_of_int calls) else go (calls + 1)
  in
  go 1

type reading = { median : float; cv : float }

let rounds = 5

(* The harness of the timed sections.  [modes.(i) ()] runs compared mode
   [i] once and returns its output and one reading per phase (seconds,
   or a rate).  Every mode first runs once as a discarded warm-up; then
   each of [rounds] rounds runs every mode once, starting one mode later
   than the round before, so a slow stretch of the machine lands on
   every mode alike instead of on whichever ran last.  Each mode comes
   back as its last output and, per phase, the median of its per-round
   readings and their coefficient of variation. *)
let interleaved modes =
  let n = Array.length modes in
  let last = Array.map (fun mode -> fst (mode ())) modes in
  let readings = Array.make n [] in
  for round = 0 to rounds - 1 do
    for k = 0 to n - 1 do
      let i = (round + k) mod n in
      let out, r = modes.(i) () in
      last.(i) <- out;
      readings.(i) <- r :: readings.(i)
    done
  done;
  Array.mapi
    (fun i per_round ->
      let per_round = Array.of_list per_round in
      ( last.(i),
        Array.init (Array.length per_round.(0)) (fun phase ->
            let xs = Array.map (fun r -> r.(phase)) per_round in
            { median = Stats.median xs; cv = Stats.stddev xs /. Stats.mean xs }) ))
    readings

(* Pen digits slightly harder than the library defaults, so that the
   brute-force 1-NN error is non-trivial (the paper's UNIPEN error is
   2.05%) and nearest-neighbor distances spread enough to stratify. *)
let pen_params =
  {
    Dbh_datasets.Pen_digits.default_params with
    control_jitter = 0.05;
    noise_sigma = 0.02;
    warp_strength = 0.3;
  }

let pen_set ~rng n = Dbh_datasets.Pen_digits.generate_set ~rng ~params:pen_params n

let mean_index_cost results =
  Stats.mean
    (Array.map (fun r -> float_of_int (Dbh.Index.total_cost r.Dbh.Index.stats)) results)

(* ------------------------------------------------------- T1 family stats *)

let table_family_stats () =
  Report.print_heading "table/family-stats (T1): hash family construction, Sec. VI-B";
  let rng = Rng.create 1 in
  let db = pen_set ~rng (sc 2000) in
  let space = Dbh_datasets.Pen_digits.space in
  let counted, counter = Space.with_counter space in
  let family =
    Dbh.Hash_family.make ~rng ~space:counted ~num_pivots:100 ~threshold_sample:(sc 500) db
  in
  let build_cost = Space.count counter in
  Report.print_kv
    [
      ("|X_small| (pivots)", string_of_int (Dbh.Hash_family.num_pivots family));
      ("binary functions (paper: 4950)", string_of_int (Dbh.Hash_family.size family));
      ("distances spent building family", string_of_int build_cost);
    ];
  (* Hashing cost is bounded by |X_small| no matter how many functions a
     query evaluates (Sec. V-B). *)
  Space.reset counter;
  let q = Dbh_datasets.Pen_digits.generate ~rng ~params:pen_params 0 in
  let cache = Dbh.Hash_family.cache family q in
  for i = 0 to Dbh.Hash_family.size family - 1 do
    ignore (Dbh.Hash_family.eval family cache i)
  done;
  Report.print_kv
    [
      ( "distances to evaluate all functions on one query",
        Printf.sprintf "%d (bound: %d)" (Space.count counter)
          (Dbh.Hash_family.num_pivots family) );
    ];
  (* Balance of Eq. 6 thresholds on held-out data. *)
  let holdout = Dbh_datasets.Pen_digits.generate_set ~rng:(Rng.create 2) (sc 300) in
  let sample_fns =
    Rng.sample_indices (Rng.create 3)
      (min 200 (Dbh.Hash_family.size family))
      (Dbh.Hash_family.size family)
  in
  let balances = Array.map (fun i -> Dbh.Hash_family.balance family i holdout) sample_fns in
  Report.print_kv
    [
      ( "binary-function balance on held-out data (target 0.5)",
        Printf.sprintf "mean %.3f, min %.3f, max %.3f" (Stats.mean balances)
          (Stats.minimum balances) (Stats.maximum balances) );
    ]

(* ----------------------------------------------------------- T4 non-LSH *)

let table_non_lsh () =
  Report.print_heading
    "table/non-lsh (T4): random metric matrices defeat locality sensitivity, Sec. IV-B";
  let rng = Rng.create 4 in
  let n = sc 200 in
  let m = Space.random_metric_matrix rng n in
  let space = Space.of_matrix m in
  let db = Array.init n (fun i -> i) in
  let family = Dbh.Hash_family.make ~rng ~space ~num_pivots:50 ~threshold_sample:n db in
  let pairs = ref [] in
  for _ = 1 to 400 do
    let i = Rng.int rng n and j = Rng.int rng n in
    if i <> j then pairs := (i, j) :: !pairs
  done;
  let rates =
    Array.of_list (List.map (fun (i, j) -> Dbh.Collision.estimate_exact family i j) !pairs)
  in
  let dists = Array.of_list (List.map (fun (i, j) -> m.(i).(j)) !pairs) in
  Report.print_kv
    [
      ("pairs sampled", string_of_int (Array.length rates));
      ( "collision rate C(X1,X2)",
        Printf.sprintf "mean %.3f, stddev %.3f (paper: ~0.5 regardless of distance)"
          (Stats.mean rates) (Stats.stddev rates) );
      ( "corr(distance, collision rate)",
        Printf.sprintf "%.3f (locality-sensitive families need strongly negative)"
          (Stats.pearson dists rates) );
    ];
  (* Contrast with a structured space, where distance is informative. *)
  let db2 = pen_set ~rng (sc 300) in
  let family2 =
    Dbh.Hash_family.make ~rng ~space:Dbh_datasets.Pen_digits.space ~num_pivots:40
      ~threshold_sample:(sc 200) db2
  in
  let pairs2 = ref [] in
  for _ = 1 to 300 do
    let i = Rng.int rng (Array.length db2) and j = Rng.int rng (Array.length db2) in
    if i <> j then pairs2 := (i, j) :: !pairs2
  done;
  let rates2 =
    Array.of_list
      (List.map (fun (i, j) -> Dbh.Collision.estimate_exact family2 db2.(i) db2.(j)) !pairs2)
  in
  let dists2 =
    Array.of_list
      (List.map
         (fun (i, j) -> Dbh_datasets.Pen_digits.space.Space.distance db2.(i) db2.(j))
         !pairs2)
  in
  Report.print_kv
    [
      ( "pen digits, corr(distance, collision rate)",
        Printf.sprintf "%.3f (structured spaces: distances informative)"
          (Stats.pearson dists2 rates2) );
    ]

(* ------------------------------------------------------ T3 k,l landscape *)

let table_kl_landscape () =
  Report.print_heading
    "table/kl-landscape (T3): cost is U-shaped in k at fixed accuracy, Sec. IV-D";
  let rng = Rng.create 5 in
  let db = pen_set ~rng (sc 2000) in
  let space = Dbh_datasets.Pen_digits.space in
  let config =
    { Dbh.Builder.default_config with num_sample_queries = sc 200; db_sample = sc 500 }
  in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  let choices =
    Dbh.Params.landscape prepared.Dbh.Builder.analysis ~target_accuracy:0.9 ~k_min:1
      ~k_max:30 ~l_max:1000 ()
  in
  Printf.printf "  target accuracy 0.90 on pen digits (n=%d)\n" (Array.length db);
  Printf.printf "  %4s %6s %12s %12s %12s\n" "k" "min l" "lookup" "hash" "total cost";
  Array.iter
    (fun (c : Dbh.Params.choice) ->
      Printf.printf "  %4d %6d %12.1f %12.1f %12.1f\n" c.Dbh.Params.k c.Dbh.Params.l
        c.Dbh.Params.predicted_lookup c.Dbh.Params.predicted_hash c.Dbh.Params.predicted_cost)
    choices;
  match Dbh.Params.optimize prepared.Dbh.Builder.analysis ~target_accuracy:0.9 () with
  | Some c -> Printf.printf "  chosen: %s\n" (Format.asprintf "%a" Dbh.Params.pp_choice c)
  | None -> print_endline "  no feasible (k,l)"

(* ------------------------------------------------- T2 brute-force table *)

let throughput name distance pairs =
  let n = Array.length pairs in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun (a, b) -> ignore (distance a b)) pairs;
  let dt = Unix.gettimeofday () -. t0 in
  (name, float_of_int n /. dt)

let table_bruteforce () =
  Report.print_heading
    "table/bruteforce (T2): exact 1-NN classification and distance throughput, Sec. VI-A";
  let rng = Rng.create 6 in
  (* Pen digits (paper: UNIPEN, brute-force error 2.05%). *)
  let pen_db = pen_set ~rng (sc 2000) in
  let pen_q = pen_set ~rng:(Rng.create 7) (sc 300) in
  let pen_truth =
    Ground_truth.compute ~space:Dbh_datasets.Pen_digits.space ~db:pen_db ~queries:pen_q ()
  in
  let pen_err =
    Dbh_eval.Classification.error_rate
      ~db_labels:(Array.map (fun i -> i.Dbh_datasets.Pen_digits.label) pen_db)
      ~query_labels:(Array.map (fun i -> i.Dbh_datasets.Pen_digits.label) pen_q)
      (Array.map (fun i -> Some (i, 0.)) pen_truth.Ground_truth.nn_index)
  in
  (* Image digits (paper: MNIST + shape context, error 0.54%). *)
  let img_db = Dbh_datasets.Image_digits.generate_set ~rng (sc 800) in
  let img_q = Dbh_datasets.Image_digits.generate_set ~rng:(Rng.create 8) (sc 120) in
  let img_truth =
    Ground_truth.compute ~space:Dbh_datasets.Image_digits.space ~db:img_db ~queries:img_q ()
  in
  let img_err =
    Dbh_eval.Classification.error_rate
      ~db_labels:(Array.map (fun i -> i.Dbh_datasets.Image_digits.label) img_db)
      ~query_labels:(Array.map (fun i -> i.Dbh_datasets.Image_digits.label) img_q)
      (Array.map (fun i -> Some (i, 0.)) img_truth.Ground_truth.nn_index)
  in
  Printf.printf "  1-NN classification error (brute force):\n";
  Printf.printf "    pen digits / DTW            : %5.2f%%  (paper UNIPEN: 2.05%%)\n"
    (100. *. pen_err);
  Printf.printf "    image digits / shape context: %5.2f%%  (paper MNIST: 0.54%%)\n"
    (100. *. img_err);
  (* Distance throughputs (the paper quotes 890 DTW/s, 15 SC/s, 715
     chamfer/s on 2003-era hardware and full-size objects; only the
     ordering — shape context most expensive — is expected to carry). *)
  let mk_pairs arr n =
    Array.init n (fun i ->
        (arr.(i mod Array.length arr), arr.((i * 7 + 1) mod Array.length arr)))
  in
  let hands = Dbh_datasets.Hand_shapes.database ~rng ~rotations_per_class:10 in
  let rows =
    [
      throughput "DTW (32-point trajectories)"
        (fun a b -> Dbh_datasets.Pen_digits.space.Space.distance a b)
        (mk_pairs pen_db (sc 2000));
      throughput "shape context (24 points)"
        (fun a b -> Dbh_datasets.Image_digits.space.Space.distance a b)
        (mk_pairs img_db (sc 400));
      throughput "chamfer (hand contours)"
        (fun a b -> Dbh_datasets.Hand_shapes.space.Space.distance a b)
        (mk_pairs hands (sc 2000));
    ]
  in
  Printf.printf "  distance throughput:\n";
  List.iter (fun (name, rate) -> Printf.printf "    %-29s: %8.0f distances/sec\n" name rate) rows

(* ------------------------------------------------------- T5 calibration *)

let table_calibration () =
  Report.print_heading
    "table/calibration (T5): predicted vs measured accuracy/cost (Eq. 11-14 in action)";
  let rng = Rng.create 7 in
  let db = pen_set ~rng (sc 2000) in
  let queries = pen_set ~rng:(Rng.create 8) (sc 200) in
  let space = Dbh_datasets.Pen_digits.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config =
    { Dbh.Builder.default_config with num_sample_queries = sc 200; db_sample = sc 500 }
  in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  let points =
    Dbh_eval.Calibration.single_level ~rng ~prepared ~db ~queries ~truth
      ~targets:[| 0.80; 0.85; 0.90; 0.95 |] ~config ()
  in
  print_string (Format.asprintf "%a" Dbh_eval.Calibration.pp_points points);
  Printf.printf "  accuracy MAE %.4f, cost mean relative error %.3f\n"
    (Dbh_eval.Calibration.accuracy_mae points)
    (Dbh_eval.Calibration.cost_mre points);
  (* Index health at the 0.9 operating point. *)
  match Dbh.Builder.single ~rng ~prepared ~db ~target_accuracy:0.9 ~config () with
  | None -> ()
  | Some (index, _) ->
      let stats = Dbh.Diagnostics.index_stats index in
      Printf.printf "  index health: %s -> %s\n"
        (Format.asprintf "%a" Dbh.Diagnostics.pp_table_stats stats)
        (if Dbh.Diagnostics.healthy stats then "healthy" else "DEGENERATE")

(* --------------------------------------------------------- Figure 5 runs *)

let figure5_config () =
  {
    Figure5.targets =
      (if quick then [| 0.8; 0.9 |] else [| 0.80; 0.85; 0.90; 0.95; 0.975; 0.99 |]);
    vp_budget_fractions =
      (if quick then [| 0.1; 0.5 |] else [| 0.02; 0.05; 0.1; 0.2; 0.35; 0.5; 0.75; 1.0 |]);
    builder =
      {
        Figure5.default_config.Figure5.builder with
        num_sample_queries = sc 200;
        db_sample = sc 500;
        threshold_sample = sc 500;
      };
    multiprobe_probes = Figure5.default_config.Figure5.multiprobe_probes;
    multiprobe_radius = Figure5.default_config.Figure5.multiprobe_radius;
  }

let figure5_unipen () =
  let rng = Rng.create 10 in
  let db = pen_set ~rng (sc 4000) in
  let queries = pen_set ~rng:(Rng.create 11) (sc 400) in
  let result, dt =
    seconds (fun () ->
        Figure5.run ~rng ~dataset:"unipen analogue (pen digits + DTW)"
          ~space:Dbh_datasets.Pen_digits.space ~db ~queries ~config:(figure5_config ()) ())
  in
  Report.print_figure5 result;
  Printf.printf "  (experiment wall time: %.0f s)\n" dt

let figure5_mnist () =
  let rng = Rng.create 12 in
  let db = Dbh_datasets.Image_digits.generate_set ~rng (sc 1200) in
  let queries = Dbh_datasets.Image_digits.generate_set ~rng:(Rng.create 13) (sc 150) in
  let config =
    let base = figure5_config () in
    { base with Figure5.builder = { base.Figure5.builder with num_sample_queries = sc 150 } }
  in
  let result, dt =
    seconds (fun () ->
        Figure5.run ~rng ~dataset:"mnist analogue (image digits + shape context)"
          ~space:Dbh_datasets.Image_digits.space ~db ~queries ~config ())
  in
  Report.print_figure5 result;
  Printf.printf "  (experiment wall time: %.0f s)\n" dt

let figure5_hands () =
  let rng = Rng.create 14 in
  let db = Dbh_datasets.Hand_shapes.database ~rng ~rotations_per_class:(sc 200) in
  (* Mild query noise: the paper's real-image queries sit moderately off
     the clean synthetic manifold; heavier noise exaggerates the
     tuning-mismatch effect far beyond Fig. 5's. *)
  let noise =
    { Dbh_datasets.Hand_shapes.jitter_sigma = 0.008; occlusion = 0.08; clutter = 0.06 }
  in
  let queries = Dbh_datasets.Hand_shapes.queries ~rng:(Rng.create 15) ~noise (sc 400) in
  let result, dt =
    seconds (fun () ->
        Figure5.run ~rng ~dataset:"hands analogue (hand contours + chamfer)"
          ~space:Dbh_datasets.Hand_shapes.space ~db ~queries ~config:(figure5_config ()) ())
  in
  Report.print_figure5 result;
  Printf.printf "  (experiment wall time: %.0f s)\n" dt

(* --------------------------------------------------- A1 |X_small| sweep *)

let ablation_xsmall () =
  Report.print_heading "ablation/xsmall (A1): effect of |X_small|, Sec. V-B";
  let rng = Rng.create 20 in
  let db = pen_set ~rng (sc 2000) in
  let queries = pen_set ~rng:(Rng.create 21) (sc 200) in
  let space = Dbh_datasets.Pen_digits.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  (* Shared sample queries and their ground truth across family sizes. *)
  let query_indices = Rng.sample_indices rng (sc 200) (Array.length db) in
  let sample_truth = Ground_truth.compute_self ~space ~db ~query_indices in
  let gt =
    Array.init (Array.length query_indices) (fun i ->
        (sample_truth.Ground_truth.nn_index.(i), sample_truth.Ground_truth.nn_distance.(i)))
  in
  Printf.printf "  %8s %10s %12s %12s %12s\n" "|Xsmall|" "functions" "accuracy" "cost/query"
    "hash cost";
  List.iter
    (fun m ->
      let rng = Rng.create (100 + m) in
      let family =
        Dbh.Hash_family.make ~rng ~space ~num_pivots:m ~threshold_sample:(sc 500) db
      in
      let pivot_table = Dbh.Hash_family.pivot_table family db in
      let analysis =
        Dbh.Analysis.build ~rng ~family ~db ~pivot_table ~query_indices ~ground_truth:gt
          ~num_fns:250 ~db_sample:(sc 500) ()
      in
      let h =
        Dbh.Hierarchical.build ~rng ~family ~db ~analysis ~target_accuracy:0.9 ~pivot_table ()
      in
      let results = Array.map (fun q -> Dbh.Hierarchical.search h q) queries in
      let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Dbh.Index.nn) results) in
      let hash_cost =
        Stats.mean
          (Array.map (fun r -> float_of_int r.Dbh.Index.stats.Dbh.Index.hash_cost) results)
      in
      Printf.printf "  %8d %10d %12.3f %12.1f %12.1f\n" m (Dbh.Hash_family.size family) acc
        (mean_index_cost results) hash_cost)
    [ 25; 50; 100; 200 ]

(* --------------------------------------------------- A2 hierarchy levels *)

let ablation_levels () =
  Report.print_heading "ablation/levels (A2): hierarchical strata count s, Sec. V-A";
  let rng = Rng.create 30 in
  let db = pen_set ~rng (sc 2000) in
  let queries = pen_set ~rng:(Rng.create 31) (sc 200) in
  let space = Dbh_datasets.Pen_digits.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config =
    { Dbh.Builder.default_config with num_sample_queries = sc 200; db_sample = sc 500 }
  in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  Printf.printf "  %6s %12s %12s\n" "s" "accuracy" "cost/query";
  List.iter
    (fun s ->
      let h =
        Dbh.Hierarchical.build ~rng ~family:prepared.Dbh.Builder.family ~db
          ~analysis:prepared.Dbh.Builder.analysis ~target_accuracy:0.9
          ~pivot_table:prepared.Dbh.Builder.pivot_table ~levels:s ()
      in
      let results = Array.map (fun q -> Dbh.Hierarchical.search h q) queries in
      let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Dbh.Index.nn) results) in
      Printf.printf "  %6d %12.3f %12.1f\n" s acc (mean_index_cost results))
    [ 1; 3; 5; 8 ]

(* --------------------------------------------------------- A3 DBH vs LSH *)

let ablation_vs_lsh () =
  Report.print_heading "ablation/vs-lsh (A3): DBH vs classical LSH on L2, where both apply";
  let rng = Rng.create 40 in
  let dim = 16 in
  let all, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim (sc 4400) in
  let db = Array.sub all 0 (sc 4000) in
  let queries = Array.sub all (sc 4000) (sc 400) in
  let space = Dbh_metrics.Minkowski.l2_space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config =
    { Dbh.Builder.default_config with num_sample_queries = sc 200; db_sample = sc 500 }
  in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  let dbh_methods =
    List.filter_map
      (fun target ->
        match Dbh.Builder.single ~rng ~prepared ~db ~target_accuracy:target ~config () with
        | None -> None
        | Some (index, _) ->
            Some
              {
                Tradeoff.label = "DBH (single)";
                setting = Printf.sprintf "target=%.2f" target;
                run =
                  (fun q ->
                    let r = Dbh.Index.search index q in
                    (r.Dbh.Index.nn, Dbh.Index.total_cost r.Dbh.Index.stats));
              })
      [ 0.9; 0.95; 0.99 ]
  in
  let lsh_methods =
    List.map
      (fun (k, l, w) ->
        let index =
          Dbh_lsh.Lsh.build ~rng ~family:(Dbh_lsh.Lsh.random_projection ~dim ~w) ~db ~k ~l
        in
        {
          Tradeoff.label = "E2LSH";
          setting = Printf.sprintf "k=%d,l=%d,w=%.1f" k l w;
          run = (fun q -> Dbh_lsh.Lsh.query index ~space q);
        })
      [ (4, 8, 4.0); (8, 16, 4.0); (4, 8, 8.0); (8, 32, 8.0) ]
  in
  let vp = Dbh_vptree.Vp_tree.build ~rng ~space db in
  let vp_methods =
    List.map
      (fun frac ->
        let budget = max 1 (int_of_float (frac *. float_of_int (Array.length db))) in
        {
          Tradeoff.label = "VP-tree";
          setting = Printf.sprintf "budget=%d" budget;
          run = (fun q -> Dbh_vptree.Vp_tree.nn_budgeted vp ~budget q);
        })
      [ 0.05; 0.2 ]
  in
  Report.print_series_table
    [
      Tradeoff.sweep ~queries ~truth ~label:"DBH" dbh_methods;
      Tradeoff.sweep ~queries ~truth ~label:"E2LSH" lsh_methods;
      Tradeoff.sweep ~queries ~truth ~label:"VP-tree" vp_methods;
    ]

(* ------------------------------------------------ B1 all baselines panel *)

let ablation_baselines () =
  Report.print_heading
    "ablation/baselines (B1): every distance-based method in the repo, one workload";
  let rng = Rng.create 70 in
  let db = pen_set ~rng (sc 2000) in
  let queries = pen_set ~rng:(Rng.create 71) (sc 200) in
  let space = Dbh_datasets.Pen_digits.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config =
    { Dbh.Builder.default_config with num_sample_queries = sc 200; db_sample = sc 500 }
  in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  let dbh_methods =
    List.map
      (fun target ->
        let h = Dbh.Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:target ~config () in
        {
          Tradeoff.label = "hierarchical DBH";
          setting = Printf.sprintf "target=%.2f" target;
          run =
            (fun q ->
              let r = Dbh.Hierarchical.search h q in
              (r.Dbh.Index.nn, Dbh.Index.total_cost r.Dbh.Index.stats));
        })
      [ 0.9; 0.99 ]
  in
  let vp = Dbh_vptree.Vp_tree.build ~rng ~space db in
  let vp_methods =
    List.map
      (fun frac ->
        let budget = max 1 (int_of_float (frac *. float_of_int (Array.length db))) in
        {
          Tradeoff.label = "VP-tree";
          setting = Printf.sprintf "budget=%d" budget;
          run = (fun q -> Dbh_vptree.Vp_tree.nn_budgeted vp ~budget q);
        })
      [ 0.05; 0.15 ]
  in
  let laesa = Dbh_laesa.Laesa.build ~rng ~space ~num_pivots:32 db in
  let laesa_methods =
    [
      {
        Tradeoff.label = "LAESA";
        setting = "exact (triangle)";
        run =
          (fun q ->
            let answer, spent = Dbh_laesa.Laesa.nn laesa q in
            (Some answer, spent));
      };
      {
        Tradeoff.label = "LAESA";
        setting = "budget=10%";
        run =
          (fun q ->
            Dbh_laesa.Laesa.nn_budgeted laesa ~budget:(Array.length db / 10) q);
      };
    ]
  in
  let mtree = Dbh_mtree.M_tree.build ~space db in
  let mtree_methods =
    [
      {
        Tradeoff.label = "M-tree";
        setting = "exact (triangle)";
        run = (fun q -> Dbh_mtree.M_tree.nn mtree q);
      };
      {
        Tradeoff.label = "M-tree";
        setting = "budget=10%";
        run = (fun q -> Dbh_mtree.M_tree.nn_budgeted mtree ~budget:(Array.length db / 10) q);
      };
    ]
  in
  let map = Dbh_embedding.Fastmap.fit ~rng ~space ~dims:8 db in
  let fr = Dbh_embedding.Filter_refine.of_fitted ~map db in
  let fr_methods =
    List.map
      (fun refine ->
        {
          Tradeoff.label = "FastMap f+r";
          setting = Printf.sprintf "refine=%d" refine;
          run = (fun q -> Dbh_embedding.Filter_refine.nn fr ~refine q);
        })
      [ 20; 100 ]
  in
  Report.print_series_table
    [
      Tradeoff.sweep ~queries ~truth ~label:"DBH" dbh_methods;
      Tradeoff.sweep ~queries ~truth ~label:"VP-tree" vp_methods;
      Tradeoff.sweep ~queries ~truth ~label:"LAESA" laesa_methods;
      Tradeoff.sweep ~queries ~truth ~label:"M-tree" mtree_methods;
      Tradeoff.sweep ~queries ~truth ~label:"FastMap" fr_methods;
    ]

(* -------------------------------------------- A4 multi-probe query path *)

(* The multi-probe engine on the paper's UNIPEN/DTW workload: re-tune
   (k, l) under the probed collision model — landing on fewer tables —
   and check that the l' < l index queried with the probe knobs reaches
   the plain engine's measured accuracy at >= 1.3x fewer logical
   distance computations per query.  The dbh_distance_computations_total
   counter is reconciled against the per-query stats for both engines,
   and the knob defaults (probes_per_table = 1, hamming_radius = 0) are
   pinned bit-identical to the plain engine, sequentially and at 4
   domains.  Numbers land in BENCH_multiprobe.json; violations fail the
   run. *)

let multiprobe_section () =
  Report.print_heading
    "multiprobe (A4): Hamming-range multi-probe vs plain tables on the UNIPEN/DTW \
     workload";
  let module Pool = Dbh_util.Pool in
  let rng = Rng.create 60 in
  let db = pen_set ~rng (sc 2000) in
  let queries = pen_set ~rng:(Rng.create 61) (sc 200) in
  let space = Dbh_datasets.Pen_digits.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config =
    {
      Dbh.Builder.default_config with
      (* A rich pivot pool keeps per-query hash cost proportional to
         k * l (with few pivots the cached pivot distances saturate and
         the table count stops mattering, Eq. 13/14); k is capped away
         from the degenerate all-tables corner the small quick-scale
         sample can pick. *)
      num_pivots = sc 800;
      max_functions = Some 15000;
      k_max = 16;
      num_sample_queries = sc 200;
      db_sample = sc 500;
      threshold_sample = sc 300;
    }
  in
  let prepared = Dbh.Builder.prepare ~rng:(Rng.create 62) ~space ~config db in
  let target = 0.9 in
  let probes = 16 and radius = 2 in
  let plain_index, plain_choice =
    match
      Dbh.Builder.single ~rng:(Rng.create 63) ~prepared ~db ~target_accuracy:target
        ~config ()
    with
    | Some r -> r
    | None -> failwith "multiprobe (A4): plain tuning found no feasible (k, l)"
  in
  let mp_index0, mp_choice =
    match
      Dbh.Builder.single ~probes ~radius ~rng:(Rng.create 64) ~prepared ~db
        ~target_accuracy:target ~config ()
    with
    | Some r -> r
    | None -> failwith "multiprobe (A4): probed tuning found no feasible (k, l)"
  in
  (* Each engine measures under its own metric set so the logical
     distance counter reconciles per engine. *)
  let measure label setting index opts =
    let m = Dbh_obs.Metrics.create () in
    let point =
      Dbh_obs.Metrics.with_installed m (fun () ->
          Tradeoff.measure ~queries ~truth
            {
              Tradeoff.label;
              setting;
              run =
                (fun q ->
                  let r = Dbh.Index.search ~opts index q in
                  (r.Dbh.Index.nn, Dbh.Index.total_cost r.Dbh.Index.stats));
            })
    in
    let counted =
      Dbh_obs.Registry.counter_value m.Dbh_obs.Metrics.distance_computations_total
    in
    (point, counted)
  in
  let plain_point, plain_counted =
    measure "plain"
      (Printf.sprintf "k=%d,l=%d" plain_choice.Dbh.Params.k plain_choice.Dbh.Params.l)
      plain_index Dbh.Query_opts.default
  in
  (* The probed collision estimate treats every flipped bit as a
     typical miss, but Probe_seq flips the lowest-margin bits -- the
     projections that disagreed only narrowly -- so the model's l' is a
     conservative upper bound (measured multi-probe accuracy lands well
     above the target).  Walk l' down from the probed optimum (index
     builds reuse the pivot table, so they cost no distances) and keep
     the cheapest point that still matches the plain engine's measured
     accuracy. *)
  let mp_k = mp_choice.Dbh.Params.k and mp_l0 = mp_choice.Dbh.Params.l in
  let ladder =
    List.sort_uniq compare
      (List.map
         (fun f -> max 1 (int_of_float (Float.round (f *. float_of_int mp_l0))))
         [ 0.125; 0.25; 0.375; 0.5; 0.75; 1.0 ])
  in
  let probe_ladder = List.sort_uniq compare [ max 2 (probes / 2); probes; 2 * probes ] in
  let swept =
    List.concat_map
      (fun l' ->
        let index =
          if l' = mp_l0 then mp_index0
          else
            Dbh.Index.build ~rng:(Rng.create 64) ~family:prepared.Dbh.Builder.family ~db
              ~pivot_table:prepared.Dbh.Builder.pivot_table ~k:mp_k ~l:l' ()
        in
        List.map
          (fun p' ->
            let point, counted =
              measure "multi-probe"
                (Printf.sprintf "k=%d,l=%d,p=%d,r=%d" mp_k l' p' radius)
                index
                (Dbh.Query_opts.multiprobe ~hamming_radius:radius p')
            in
            (l', p', point, counted))
          probe_ladder)
      ladder
  in
  let by_cost (_, _, a, _) (_, _, b, _) = compare a.Tradeoff.mean_cost b.Tradeoff.mean_cost in
  let mp_l, mp_p, mp_point, mp_counted =
    match
      List.sort by_cost
        (List.filter
           (fun (_, _, p, _) -> p.Tradeoff.accuracy >= plain_point.Tradeoff.accuracy)
           swept)
    with
    | best :: _ -> best
    | [] ->
        (* No swept point held accuracy: surface the strongest one and
           let the accuracy gate below fail honestly. *)
        List.hd
          (List.sort
             (fun (_, _, a, _) (_, _, b, _) ->
               compare b.Tradeoff.accuracy a.Tradeoff.accuracy)
             swept)
  in
  Report.print_series_table
    [
      {
        Tradeoff.series_label = "multiprobe";
        points = Array.of_list (plain_point :: List.map (fun (_, _, p, _) -> p) swept);
      };
    ];
  let distance_reduction = plain_point.Tradeoff.mean_cost /. mp_point.Tradeoff.mean_cost in
  Report.print_kv
    [
      ( "plain (k, l)",
        Printf.sprintf "(%d, %d)" plain_choice.Dbh.Params.k plain_choice.Dbh.Params.l );
      ( "probed-model optimum (k', l')",
        Printf.sprintf "(%d, %d)" mp_k mp_l0 );
      ( "multi-probe (k', l')",
        Printf.sprintf "(%d, %d) with %d probes, radius %d" mp_k mp_l mp_p radius );
      ("distance reduction", Printf.sprintf "%.2fx" distance_reduction);
      ( "metrics reconciliation",
        Printf.sprintf "plain %d = %d, multi-probe %d = %d" plain_counted
          plain_point.Tradeoff.total_cost mp_counted mp_point.Tradeoff.total_cost );
    ];
  (* Default knobs must leave the engine untouched: explicit
     (probes_per_table = 1, hamming_radius = 0) queries are bit-identical
     to plain search, sequentially and fanned over 4 domains. *)
  let base = Array.map (fun q -> Dbh.Index.search plain_index q) queries in
  let default_opts = Dbh.Query_opts.make ~probes_per_table:1 ~hamming_radius:0 () in
  let knobs_seq = Dbh.Index.search_batch ~opts:default_opts plain_index queries in
  let knobs_par =
    Pool.with_pool ~domains:4 (fun pool ->
        Dbh.Index.search_batch
          ~opts:(Dbh.Query_opts.make ~pool ~probes_per_table:1 ~hamming_radius:0 ())
          plain_index queries)
  in
  let identical_seq = knobs_seq = base in
  let identical_par = knobs_par = base in
  Printf.printf "  default knobs bit-identical (sequential): %b\n" identical_seq;
  Printf.printf "  default knobs bit-identical (4 domains) : %b\n" identical_par;
  let l_reduced = mp_l < plain_choice.Dbh.Params.l in
  let accuracy_held = mp_point.Tradeoff.accuracy >= plain_point.Tradeoff.accuracy in
  let cheap_enough = distance_reduction >= 1.3 in
  let reconciled =
    plain_counted = plain_point.Tradeoff.total_cost
    && mp_counted = mp_point.Tradeoff.total_cost
  in
  let oc = open_out "BENCH_multiprobe.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"quick_scale\": %b,\n" quick;
  Printf.fprintf oc
    "  \"dataset\": { \"db_size\": %d, \"queries\": %d, \"space\": \"pen-dtw\" },\n"
    (Array.length db) (Array.length queries);
  Printf.fprintf oc "  \"target_accuracy\": %.3f,\n" target;
  Printf.fprintf oc
    "  \"plain\": { \"k\": %d, \"l\": %d, \"accuracy\": %.6f, \"mean_cost\": %.3f, \
     \"total_cost\": %d, \"counted\": %d },\n"
    plain_choice.Dbh.Params.k plain_choice.Dbh.Params.l plain_point.Tradeoff.accuracy
    plain_point.Tradeoff.mean_cost plain_point.Tradeoff.total_cost plain_counted;
  Printf.fprintf oc
    "  \"multiprobe\": { \"k\": %d, \"l\": %d, \"probed_model_l\": %d, \
     \"probes_per_table\": %d, \"hamming_radius\": %d, \"accuracy\": %.6f, \
     \"mean_cost\": %.3f, \"total_cost\": %d, \"counted\": %d },\n"
    mp_k mp_l mp_l0 mp_p radius mp_point.Tradeoff.accuracy mp_point.Tradeoff.mean_cost
    mp_point.Tradeoff.total_cost mp_counted;
  Printf.fprintf oc "  \"sweep\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun (l', p', p, _) ->
            Printf.sprintf
              "{ \"l\": %d, \"probes\": %d, \"accuracy\": %.6f, \"mean_cost\": %.3f }" l'
              p' p.Tradeoff.accuracy p.Tradeoff.mean_cost)
          swept));
  Printf.fprintf oc "  \"distance_reduction\": %.3f,\n" distance_reduction;
  Printf.fprintf oc "  \"l_reduced\": %b,\n" l_reduced;
  Printf.fprintf oc "  \"accuracy_held\": %b,\n" accuracy_held;
  Printf.fprintf oc "  \"metrics_reconciled\": %b,\n" reconciled;
  Printf.fprintf oc "  \"default_knobs_bit_identical_sequential\": %b,\n" identical_seq;
  Printf.fprintf oc "  \"default_knobs_bit_identical_4_domains\": %b\n" identical_par;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_multiprobe.json\n";
  if not l_reduced then
    failwith "multiprobe (A4): probed tuning did not reduce the table count";
  if not accuracy_held then
    failwith
      "multiprobe (A4): multi-probe at fewer tables fell below the plain engine's \
       accuracy";
  if not cheap_enough then
    failwith "multiprobe (A4): distance reduction below the 1.3x gate";
  if not reconciled then
    failwith
      "multiprobe (A4): dbh_distance_computations_total diverged from per-query stats";
  if not (identical_seq && identical_par) then
    failwith "multiprobe (A4): default knobs changed the plain engine's results"

(* --------------------------------------------- R1 robustness under faults *)

let robust_faults () =
  Report.print_heading
    "robust/faults (R1): accuracy and cost through guard + breaker under injected faults";
  let base = Dbh_metrics.Minkowski.l2_space in
  let rng = Rng.create 90 in
  let all, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim:16 (sc 2200) in
  let db = Array.sub all 0 (sc 2000) in
  let queries = Array.sub all (sc 2000) (sc 200) in
  let truth = Ground_truth.compute ~space:base ~db ~queries () in
  let config =
    { Dbh.Builder.default_config with num_sample_queries = sc 200; db_sample = sc 500 }
  in
  Printf.printf "  %-16s %10s %12s %10s %10s %6s %6s\n" "fault mix" "accuracy" "cost/query"
    "anomalies" "fallbacks" "trips" "recov";
  List.iter
    (fun (label, fault_config) ->
      let faulty, faults = Dbh_robust.Faulty_space.wrap ~rng:(Rng.create 91) base in
      let guarded, guard = Dbh_robust.Guard.wrap faulty in
      let online =
        Dbh.Online.create ~rng:(Rng.create 92) ~space:guarded ~config ~target_accuracy:0.9 db
      in
      let breaker = Dbh_robust.Breaker.create ~guard online in
      Dbh_robust.Faulty_space.set_config faults fault_config;
      let cost = ref 0 in
      let nns =
        Array.map
          (fun q ->
            let out = Dbh_robust.Breaker.search breaker q in
            cost := !cost + Dbh.Index.total_cost out.Dbh_robust.Breaker.result.Dbh.Online.stats;
            out.Dbh_robust.Breaker.result.Dbh.Online.nn)
          queries
      in
      Printf.printf "  %-16s %10.3f %12.1f %10d %10d %6d %6d\n" label
        (Ground_truth.accuracy truth nns)
        (float_of_int !cost /. float_of_int (Array.length queries))
        (Dbh_robust.Guard.anomalies guard)
        (Dbh_robust.Breaker.fallback_queries breaker)
        (Dbh_robust.Breaker.trips breaker)
        (Dbh_robust.Breaker.recoveries breaker))
    [
      ("none", Dbh_robust.Faulty_space.quiet);
      ("nan=2%", Dbh_robust.Faulty_space.faults ~nan:0.02 ());
      ("nan=5% exn=1%", Dbh_robust.Faulty_space.faults ~nan:0.05 ~exn_:0.01 ());
      ("perturb=25%", Dbh_robust.Faulty_space.faults ~perturb:0.25 ());
    ];
  (* Hard per-query distance budgets on a clean index: graceful accuracy
     degradation with a guaranteed cost ceiling. *)
  let online =
    Dbh.Online.create ~rng:(Rng.create 93) ~space:base ~config ~target_accuracy:0.9 db
  in
  Printf.printf "  budgeted queries (clean space):\n";
  Printf.printf "  %10s %10s %12s %10s\n" "budget" "accuracy" "cost/query" "truncated";
  List.iter
    (fun budget ->
      let cost = ref 0 and truncated = ref 0 in
      let opts = Dbh.Query_opts.budgeted budget in
      let nns =
        Array.map
          (fun q ->
            let r = Dbh.Online.search ~opts online q in
            cost := !cost + Dbh.Index.total_cost r.Dbh.Online.stats;
            if r.Dbh.Online.truncated then incr truncated;
            r.Dbh.Online.nn)
          queries
      in
      Printf.printf "  %10d %10.3f %12.1f %10d\n" budget
        (Ground_truth.accuracy truth nns)
        (float_of_int !cost /. float_of_int (Array.length queries))
        !truncated)
    [ 25; 50; 100; 200 ]

(* ------------------------------------------------- P1 parallel scaling *)

(* Build + collision-matrix + batched-query wall time at 1/2/4/N domains,
   with bit-identity checks against the 1-domain run, recorded to
   BENCH_parallel.json so the perf trajectory is tracked across PRs.
   The widths run interleaved through [interleaved], each phase repeated
   for at least 0.1 s per round, and every speedup is a ratio of phase
   medians.  Speedups are whatever the machine gives — on a single
   hardware core the pool can only add overhead, and the JSON says so
   honestly. *)

(* Container CPU quotas make nproc a lie: a 2-vCPU box capped by cgroup
   at one core of runtime can only lose from parallelism, while its
   recommended_domain_count still says 2.  Read the quota (cgroup v2,
   then v1) so such rounds are published as advisory rather than as
   regressions. *)
let cpu_quota_cores () =
  let read path =
    try
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
          Some (String.trim (input_line ic)))
    with _ -> None
  in
  let of_ratio quota period =
    match (int_of_string_opt quota, int_of_string_opt period) with
    | Some q, Some p when q > 0 && p > 0 ->
        Some (max 1 ((q + p - 1) / p)) (* ceil: a 1.5-core quota runs 2 domains *)
    | _ -> None
  in
  match read "/sys/fs/cgroup/cpu.max" with
  | Some line -> (
      match String.split_on_char ' ' line with
      | [ "max"; _ ] -> None
      | [ quota; period ] -> of_ratio quota period
      | _ -> None)
  | None -> (
      match
        ( read "/sys/fs/cgroup/cpu/cpu.cfs_quota_us",
          read "/sys/fs/cgroup/cpu/cpu.cfs_period_us" )
      with
      | Some quota, Some period -> of_ratio quota period
      | _ -> None)

let parallel_scaling () =
  Report.print_heading
    "parallel (P1): domain-pool scaling of build, collision estimation and batched queries";
  let module Pool = Dbh_util.Pool in
  let space = Dbh_metrics.Minkowski.l2_space in
  let data_rng = Rng.create 60 in
  let all, _ =
    Dbh_datasets.Vectors.gaussian_mixture ~rng:data_rng ~num_clusters:20 ~dim:32 (sc 2400)
  in
  let db = Array.sub all 0 (sc 2000) in
  let queries = Array.sub all (sc 2000) (sc 400) in
  let collision_sample = Array.sub db 0 (sc 250) in
  let encode (v : float array) =
    let buf = Buffer.create 32 in
    Dbh_util.Binio.write_float_array buf v;
    Buffer.contents buf
  in
  let serialized index =
    let buf = Buffer.create 4096 in
    Dbh.Index.write ~encode buf index;
    Buffer.contents buf
  in
  (* One pass at a given pool width; identical seeds each time, so every
     pass must produce the same artifacts. *)
  let phases pool =
    let min_time = 0.1 in
    let build () =
      let rng = Rng.create 61 in
      let family =
        Dbh.Hash_family.make ?pool ~rng ~space ~num_pivots:(sc 80)
          ~threshold_sample:(sc 400) db
      in
      let pivot_table = Dbh.Hash_family.pivot_table ?pool family db in
      Dbh.Index.build ?pool ~rng ~family ~db ~pivot_table ~k:10 ~l:10 ()
    in
    let index, build_s = seconds ~min_time build in
    let matrix, collision_s =
      seconds ~min_time (fun () ->
          Dbh.Collision.pairwise_matrix ?pool ~rng:(Rng.create 62) ~num_fns:200
            (Dbh.Index.family index) collision_sample)
    in
    let results, query_s =
      seconds ~min_time (fun () ->
          Dbh.Index.search_batch ~opts:(Dbh.Query_opts.make ?pool ~budget:400 ()) index queries)
    in
    ((index, matrix, results), [| build_s; collision_s; query_s |])
  in
  let cores = Domain.recommended_domain_count () in
  let effective_cores =
    match cpu_quota_cores () with Some q -> min q cores | None -> cores
  in
  let widths = Array.of_list (List.sort_uniq compare [ 1; 2; 4; cores ]) in
  (* One pass at a width: its artifacts and, for a pooled pass, the
     pool's telemetry with the pass's wall time.  A pass spawns its own
     pool, so no idle pool's domains sit in the other widths'
     measurements. *)
  let mode domains () =
    if domains = 1 then
      let out, times = phases None in
      ((out, None), times)
    else
      Pool.with_pool ~domains (fun pool ->
          let (out, times), wall = seconds (fun () -> phases (Some pool)) in
          ((out, Some (Pool.telemetry pool, wall)), times))
  in
  let measured = interleaved (Array.map mode widths) in
  let artifacts = Array.map (fun ((out, _), _) -> out) measured in
  let telemetry i = snd (fst measured.(i)) in
  let medians = Array.map snd measured in
  (* Bit-identity of every parallel run against the sequential baseline. *)
  let base_index, base_matrix, base_results = artifacts.(0) in
  let base_blob = serialized base_index in
  let identical =
    Array.for_all
      (fun (index, matrix, results) ->
        serialized index = base_blob && matrix = base_matrix && results = base_results)
      artifacts
  in
  let per_query =
    let opts = Dbh.Query_opts.budgeted 400 in
    Array.map (fun q -> Dbh.Index.search ~opts base_index q) queries
  in
  let batch_matches = base_results = per_query in
  (* Per-domain busy fraction of a pooled pass's wall time, plus the
     steal/local-pop split — the work-stealing design's vital signs. *)
  let sum = Array.fold_left ( + ) 0 in
  let steals_of = function None -> 0 | Some (t, _) -> sum t.Pool.steals in
  let pops_of = function None -> 0 | Some (t, _) -> sum t.Pool.local_pops in
  let busy_fractions = function
    | None -> [||]
    | Some (t, wall) -> Array.map (fun b -> b /. wall) t.Pool.busy_seconds
  in
  let min_busy fr = if fr = [||] then 1. else Array.fold_left Float.min infinity fr in
  let speedup i phase = medians.(0).(phase).median /. medians.(i).(phase).median in
  let max_cv i = Array.fold_left (fun acc r -> Float.max acc r.cv) 0. medians.(i) in
  Printf.printf "  hardware cores: %d (effective after cpu quota: %d)\n" cores
    effective_cores;
  Printf.printf "  medians of %d interleaved rounds after a discarded warm-up\n" rounds;
  Printf.printf "  %8s %10s %14s %12s %8s %8s %8s %7s %8s %8s %9s\n" "domains" "build(s)"
    "collision(s)" "queries(s)" "build-x" "coll-x" "query-x" "max-cv" "steals" "pops"
    "min-busy";
  Array.iteri
    (fun i domains ->
      let m = medians.(i) and tel = telemetry i in
      Printf.printf "  %8d %10.4f %14.4f %12.4f %8.2f %8.2f %8.2f %6.1f%% %8d %8d %8.0f%%\n"
        domains m.(0).median m.(1).median m.(2).median (speedup i 0) (speedup i 1)
        (speedup i 2) (100. *. max_cv i) (steals_of tel) (pops_of tel)
        (100. *. min_busy (busy_fractions tel)))
    widths;
  (* Speedups from rounds running more domains than the machine has
     hardware cores measure scheduler contention, not the pool: publish
     them as advisory so downstream gates know not to assert on them. *)
  let advisory domains = domains > effective_cores in
  if Array.exists advisory widths then
    Printf.printf
      "  note: rounds with domains > %d effective cores are advisory (oversubscribed; \
       speedups not gated)\n"
      effective_cores;
  Printf.printf "  bit-identical across pool widths: %b\n" identical;
  Printf.printf "  query_batch matches per-query results: %b\n" batch_matches;
  if not (identical && batch_matches) then
    failwith "parallel (P1): parallel results diverged from sequential baseline";
  let oc = open_out "BENCH_parallel.json" in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"hardware_cores\": %d,\n" cores;
  Printf.fprintf oc "  \"effective_cores\": %d,\n" effective_cores;
  (* Top-level advisory: the 4-domain gate rounds are only meaningful on
     >= 4 effective cores; quick-scale or throttled machines can't
     regress. *)
  Printf.fprintf oc "  \"advisory\": %b,\n" (effective_cores < 4);
  Printf.fprintf oc "  \"quick_scale\": %b,\n" quick;
  Printf.fprintf oc
    "  \"dataset\": { \"db_size\": %d, \"queries\": %d, \"dim\": 32, \"space\": \"l2\" },\n"
    (Array.length db) (Array.length queries);
  Printf.fprintf oc "  \"index\": { \"k\": 10, \"l\": 10, \"pivots\": %d },\n" (sc 80);
  Printf.fprintf oc
    "  \"timing\": { \"statistic\": \"median\", \"rounds\": %d, \"warmup_rounds\": 1, \
     \"min_phase_s\": 0.1 },\n"
    rounds;
  Printf.fprintf oc "  \"rounds\": [\n";
  let last = Array.length widths - 1 in
  Array.iteri
    (fun i domains ->
      let m = medians.(i) and tel = telemetry i in
      let fr_json =
        busy_fractions tel |> Array.to_list
        |> List.map (Printf.sprintf "%.3f")
        |> String.concat ", "
      in
      Printf.fprintf oc
        "    { \"domains\": %d, \"build_s\": %.6f, \"collision_matrix_s\": %.6f, \
         \"query_batch_s\": %.6f, \"build_cv\": %.4f, \"collision_cv\": %.4f, \
         \"query_cv\": %.4f, \"build_speedup\": %.3f, \"collision_speedup\": %.3f, \
         \"query_speedup\": %.3f, \"steals\": %d, \"local_pops\": %d, \
         \"busy_fraction\": [%s], \"advisory\": %b }%s\n"
        domains m.(0).median m.(1).median m.(2).median m.(0).cv m.(1).cv m.(2).cv
        (speedup i 0) (speedup i 1) (speedup i 2) (steals_of tel) (pops_of tel) fr_json
        (advisory domains)
        (if i = last then "" else ","))
    widths;
  Printf.fprintf oc "  ],\n";
  Printf.fprintf oc "  \"bit_identical_across_widths\": %b,\n" identical;
  Printf.fprintf oc "  \"query_batch_matches_per_query\": %b\n" batch_matches;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "  wrote BENCH_parallel.json\n"

(* --------------------------------------------------------------- serve *)

(* N1: the network tier across its saturation point.  A closed-loop
   stage finds peak goodput; an open-loop stage offers three times the
   latest peak.  The two run as interleaved pairs through [interleaved].
   Admission control must shed the excess with explicit [Overloaded]
   replies while the median overload goodput stays within 80% of the
   median peak — "shed, don't collapse" — and a violation, or any
   transport error, fails the run.  Numbers land in BENCH_serve.json. *)

let serve_section () =
  Report.print_heading "serve (N1): admission-controlled network tier across saturation";
  let module Binio = Dbh_util.Binio in
  let module Shards = Dbh_serve.Shards in
  let module Server = Dbh_serve.Server in
  let module Admission = Dbh_serve.Admission in
  let module Loadgen = Dbh_serve.Loadgen in
  let space = Dbh_metrics.Minkowski.l2_space in
  let vectors seed n =
    let db, _ =
      Dbh_datasets.Vectors.gaussian_mixture ~rng:(Rng.create seed) ~num_clusters:8
        ~dim:16 n
    in
    db
  in
  let db = vectors 120 (sc 2000) in
  let queries = vectors 121 (sc 200) in
  let encode (v : float array) =
    let buf = Buffer.create 64 in
    Binio.write_float_array buf v;
    Buffer.contents buf
  in
  let decode s =
    let r = Binio.reader s in
    let v = Binio.read_float_array r in
    if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in vector");
    v
  in
  let build =
    {
      Dbh.Builder.default_config with
      num_pivots = sc 40;
      num_sample_queries = sc 80;
      db_sample = sc 200;
    }
  in
  let dir = Filename.temp_file "dbh_bench_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm_rf d =
    if Sys.file_exists d then begin
      Array.iter
        (fun f ->
          let p = Filename.concat d f in
          if Sys.is_directory p then rm_rf p else Sys.remove p)
        (Sys.readdir d);
      Unix.rmdir d
    end
  in
  (* The load generator runs in a forked child so its worker threads
     never share a runtime (GC, master lock, scheduler) with the server
     under measurement.  Fork BEFORE any domain is spawned; stages are
     shipped over pipes as marshalled configs, reports come back the
     same way, each with the CPU seconds the child spent on it. *)
  let cpu_seconds () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  let p2c_r, p2c_w = Unix.pipe ~cloexec:false () in
  let c2p_r, c2p_w = Unix.pipe ~cloexec:false () in
  let child =
    match Unix.fork () with
    | 0 ->
        Unix.close p2c_w;
        Unix.close c2p_r;
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let inc = Unix.in_channel_of_descr p2c_r in
        let outc = Unix.out_channel_of_descr c2p_w in
        let rec serve_stages () =
          match (Marshal.from_channel inc : Loadgen.config option) with
          | None -> exit 0
          | Some config ->
              let cpu0 = cpu_seconds () in
              let report = Loadgen.run config in
              Marshal.to_channel outc (report, cpu_seconds () -. cpu0) [];
              flush outc;
              serve_stages ()
        in
        (try serve_stages () with _ -> exit 1)
    | pid ->
        Unix.close p2c_r;
        Unix.close c2p_w;
        pid
  in
  let to_child = Unix.out_channel_of_descr p2c_w in
  let from_child = Unix.in_channel_of_descr c2p_r in
  (* A stage's report, with the CPU seconds this process (the server)
     and the child (the load generator) spent on it. *)
  let run_stage config =
    let cpu0 = cpu_seconds () in
    Marshal.to_channel to_child (Some config) [];
    flush to_child;
    let report, loadgen_cpu = (Marshal.from_channel from_child : Loadgen.report * float) in
    (report, cpu_seconds () -. cpu0, loadgen_cpu)
  in
  Fun.protect
    ~finally:(fun () ->
      (try
         Marshal.to_channel to_child (None : Loadgen.config option) [];
         flush to_child
       with Sys_error _ -> ());
      (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ());
      rm_rf dir)
    (fun () ->
      let shards, _ =
        Shards.open_or_create ~fsync:false ~build ~seed:122 ~shards:2
          ~target_accuracy:0.9 ~space ~encode ~decode ~dir ~data:db ()
      in
      let admission =
        {
          Admission.default_config with
          queue_capacity = 16;
          default_deadline = 1.0;
          default_class =
            { Admission.rate = 1_000_000.; burst = 1_000_000.; max_budget = 20_000 };
        }
      in
      (* The shard fan-out runs on its own domains: the loadgen's worker
         threads live in this process, and without the pool they would
         contend with the batcher for one runtime lock, measuring the
         bench instead of the server. *)
      Dbh_util.Pool.with_pool ~domains:2 @@ fun pool ->
      let server =
        Server.start ~pool ~decode { Server.default_config with admission } shards
      in
      Fun.protect
        ~finally:(fun () -> Server.stop server)
        (fun () ->
          let payloads = Array.map encode queries in
          let duration = if quick then 1.5 else 4.0 in
          let stage ?(connections = 8) rate =
            run_stage
              {
                Loadgen.host = "127.0.0.1";
                port = Server.port server;
                connections;
                duration;
                rate;
                tenants = [];
                deadline_ms = 1_000;
                budget = 2_000;
                probes = 0;
                radius = 0;
                payloads;
                seed = 123;
              }
          in
          let print_stage label ((r : Loadgen.report), server_cpu, loadgen_cpu) =
            Printf.printf
              "  %-22s %8.0f qps offered, %8.0f qps goodput, %6d shed, %4d timed \
               out  (p50 %.1f ms, p99 %.1f ms, p99.9 %.1f ms; cpu server %.2f s, \
               loadgen %.2f s)\n"
              label r.Loadgen.qps r.Loadgen.goodput_qps r.Loadgen.shed
              r.Loadgen.timed_out r.Loadgen.p50_ms r.Loadgen.p99_ms r.Loadgen.p999_ms
              server_cpu loadgen_cpu
          in
          Printf.printf "  db %d over 2 shards, %d query payloads (L2, dim 16)\n"
            (Array.length db) (Array.length queries);
          (* The latest peak goodput sets the overload stage's rate;
             transport errors are summed over every stage. *)
          let peak = ref 0. and errors = ref 0 in
          let run label ((r, server_cpu, loadgen_cpu) as measured) =
            print_stage label measured;
            errors := !errors + r.Loadgen.errors;
            (r, [| r.Loadgen.goodput_qps; server_cpu; loadgen_cpu |])
          in
          let peak_stage () =
            let ((r, _, _) as measured) = stage ~connections:16 None in
            peak := r.Loadgen.goodput_qps;
            run "closed-loop peak" measured
          in
          (* Past saturation the workers must not be latency-bound, or
             the open loop can never actually offer 3x peak: give the
             overload stage enough connections to hold its schedule. *)
          let overload_stage () =
            run "overload (3x peak)" (stage ~connections:32 (Some (3.0 *. !peak)))
          in
          let measured = interleaved [| peak_stage; overload_stage |] in
          let peak, peak_qps = (fst measured.(0), (snd measured.(0)).(0))
          and overload, overload_qps = (fst measured.(1), (snd measured.(1)).(0)) in
          let ratio = overload_qps.median /. peak_qps.median in
          Printf.printf "  medians of %d interleaved pairs after a discarded warm-up pair:\n"
            rounds;
          let print_median label i =
            let r = snd measured.(i) in
            Printf.printf
              "  %-22s %8.0f qps goodput (cv %.1f%%), cpu server %.2f s, loadgen %.2f s\n"
              label r.(0).median (100. *. r.(0).cv) r.(1).median r.(2).median
          in
          print_median "closed-loop peak" 0;
          print_median "overload (3x peak)" 1;
          Printf.printf "  %-22s %8.2f   (gate: >= 0.80)\n" "goodput ratio" ratio;
          if overload.Loadgen.shed = 0 then
            Printf.printf
              "  note: the last overload stage shed nothing — offered load stayed within \
               capacity\n";
          let oc = open_out "BENCH_serve.json" in
          let stage_json label (r : Loadgen.report) =
            Printf.sprintf
              "{ \"label\": %S, \"duration_s\": %.3f, \"sent\": %d, \"ok\": %d, \
               \"shed\": %d, \"timed_out\": %d, \"errors\": %d, \"offered_qps\": %.1f, \
               \"goodput_qps\": %.1f, \"p50_ms\": %.2f, \"p99_ms\": %.2f, \
               \"p999_ms\": %.2f }"
              label r.Loadgen.duration r.Loadgen.sent r.Loadgen.ok r.Loadgen.shed
              r.Loadgen.timed_out r.Loadgen.errors r.Loadgen.qps r.Loadgen.goodput_qps
              r.Loadgen.p50_ms r.Loadgen.p99_ms r.Loadgen.p999_ms
          in
          Printf.fprintf oc "{\n";
          Printf.fprintf oc "  \"quick_scale\": %b,\n" quick;
          Printf.fprintf oc
            "  \"dataset\": { \"db_size\": %d, \"queries\": %d, \"shards\": 2, \
             \"space\": \"l2-16d\" },\n"
            (Array.length db) (Array.length queries);
          Printf.fprintf oc
            "  \"timing\": { \"statistic\": \"median\", \"rounds\": %d, \
             \"warmup_rounds\": 1, \"stage_s\": %.1f },\n"
            rounds duration;
          Printf.fprintf oc "  \"last_stages\": [\n    %s,\n    %s\n  ],\n"
            (stage_json "closed_loop_peak" peak)
            (stage_json "overload_3x_peak" overload);
          Printf.fprintf oc "  \"peak_goodput_qps\": %.1f,\n" peak_qps.median;
          Printf.fprintf oc "  \"peak_goodput_cv\": %.4f,\n" peak_qps.cv;
          Printf.fprintf oc "  \"overload_goodput_qps\": %.1f,\n" overload_qps.median;
          Printf.fprintf oc "  \"overload_goodput_cv\": %.4f,\n" overload_qps.cv;
          Printf.fprintf oc "  \"overload_goodput_ratio\": %.3f,\n" ratio;
          List.iter
            (fun (key, i) ->
              let r = snd measured.(i) in
              Printf.fprintf oc
                "  \"%s_cpu_s\": { \"server\": %.3f, \"loadgen\": %.3f },\n" key
                r.(1).median r.(2).median)
            [ ("peak", 0); ("overload", 1) ];
          Printf.fprintf oc "  \"transport_errors\": %d,\n" !errors;
          Printf.fprintf oc "  \"goodput_gate_ok\": %b\n" (ratio >= 0.8);
          Printf.fprintf oc "}\n";
          close_out oc;
          Printf.printf "  wrote BENCH_serve.json\n";
          if !errors > 0 then
            failwith (Printf.sprintf "serve (N1): %d transport errors" !errors);
          if ratio < 0.8 then
            failwith
              (Printf.sprintf
                 "serve (N1): goodput collapsed beyond saturation (%.2f of peak)" ratio)))

(* ------------------------------------------------- Bechamel micro-benches *)

let micro_benchmarks () =
  Report.print_heading "micro/*: Bechamel micro-benchmarks";
  let open Bechamel in
  let rng = Rng.create 50 in
  let pen = Dbh_datasets.Pen_digits.generate_set ~rng 64 in
  let imgs = Dbh_datasets.Image_digits.generate_set ~rng 32 in
  let hands = Dbh_datasets.Hand_shapes.database ~rng ~rotations_per_class:2 in
  let vecs, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:5 ~dim:16 512 in
  let strings, _ =
    Dbh_datasets.Strings.clusters ~rng ~alphabet:"abcdefgh" ~num_clusters:5 ~length:24
      ~mutation_edits:3 64
  in
  let family =
    Dbh.Hash_family.make ~rng ~space:Dbh_metrics.Minkowski.l2_space ~num_pivots:50
      ~threshold_sample:200 vecs
  in
  let index = Dbh.Index.build ~rng ~family ~db:vecs ~k:8 ~l:10 () in
  (* One query's key path over the whole family: a pivot cache over a
     reused row, every function through one family row (cleared each
     run), as [Index] hashes a query. *)
  let all_fns = Array.init (Dbh.Hash_family.size family) Fun.id in
  let fn_row = Dbh.Hash_family.row (Dbh.Hash_family.size family) in
  let pivot_row = Array.make (Dbh.Hash_family.num_pivots family) nan in
  let hungarian_cost = Array.init 24 (fun _ -> Array.init 24 (fun _ -> Rng.float rng 1.)) in
  let counter = ref 0 in
  let pick arr =
    incr counter;
    arr.(!counter mod Array.length arr)
  in
  let tests =
    [
      Test.make ~name:"dtw-32pt"
        (Staged.stage (fun () ->
             Dbh_metrics.Dtw.points (pick pen).Dbh_datasets.Pen_digits.points
               (pick pen).Dbh_datasets.Pen_digits.points));
      Test.make ~name:"shape-context-24pt"
        (Staged.stage (fun () ->
             Dbh_metrics.Shape_context.matching_cost
               (pick imgs).Dbh_datasets.Image_digits.descriptor
               (pick imgs).Dbh_datasets.Image_digits.descriptor));
      Test.make ~name:"chamfer-hand"
        (Staged.stage (fun () ->
             Dbh_metrics.Chamfer.symmetric (pick hands).Dbh_datasets.Hand_shapes.points
               (pick hands).Dbh_datasets.Hand_shapes.points));
      Test.make ~name:"hungarian-24x24"
        (Staged.stage (fun () -> Dbh_hungarian.Hungarian.solve hungarian_cost));
      Test.make ~name:"levenshtein-24"
        (Staged.stage (fun () ->
             Dbh_metrics.Edit_distance.levenshtein (pick strings) (pick strings)));
      Test.make ~name:"l2-16d"
        (Staged.stage (fun () -> Dbh_metrics.Minkowski.l2 (pick vecs) (pick vecs)));
      Test.make ~name:"hash-all-fns-on-query"
        (Staged.stage (fun () ->
             let c = Dbh.Hash_family.cache_in family ~dists:pivot_row (pick vecs) in
             Dbh.Hash_family.eval_fns family c fn_row all_fns;
             Dbh.Hash_family.clear_row fn_row));
      Test.make ~name:"index-query"
        (Staged.stage (fun () -> Dbh.Index.search index (pick vecs)));
    ]
  in
  let grouped = Test.make_grouped ~name:"dbh" ~fmt:"%s/%s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols = Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> Printf.printf "  %-28s %12.0f ns/op\n" name ns
      | Some _ | None -> Printf.printf "  %-28s (no estimate)\n" name)
    (List.sort compare rows)

(* ------------------------------------------------------------------ main *)

(* DBH_BENCH_SECTIONS=kl-landscape,parallel runs only the named sections
   (comma-separated keys below) and fails on a key not listed there;
   unset runs everything.  [serve] runs first: it forks its load
   generator, and OCaml 5 refuses [Unix.fork] once any domain has been
   spawned, which the pooled sections do.  A section whose gate fails
   does not stop the sections after it; the run then exits 1. *)
let sections =
  [
    ("serve", serve_section);
    ("family-stats", table_family_stats);
    ("non-lsh", table_non_lsh);
    ("kl-landscape", table_kl_landscape);
    ("bruteforce", table_bruteforce);
    ("calibration", table_calibration);
    ("figure5-unipen", figure5_unipen);
    ("figure5-mnist", figure5_mnist);
    ("figure5-hands", figure5_hands);
    ("xsmall", ablation_xsmall);
    ("levels", ablation_levels);
    ("vs-lsh", ablation_vs_lsh);
    ("baselines", ablation_baselines);
    ("multiprobe", multiprobe_section);
    ("faults", robust_faults);
    ("parallel", parallel_scaling);
    ("micro", micro_benchmarks);
  ]

let () =
  Printf.printf "DBH benchmark harness%s\n" (if quick then " (quick scale)" else "");
  Printf.printf "Reproduces the evaluation of Athitsos et al., ICDE 2008 (see DESIGN.md).\n";
  let wanted =
    match Sys.getenv_opt "DBH_BENCH_SECTIONS" with
    | None | Some "" -> fun _ -> true
    | Some spec ->
        let keys = String.split_on_char ',' spec |> List.map String.trim in
        (match List.filter (fun key -> not (List.mem_assoc key sections)) keys with
        | [] -> ()
        | unknown ->
            Printf.eprintf "DBH_BENCH_SECTIONS: unknown section %s; valid keys: %s\n"
              (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
              (String.concat "," (List.map fst sections));
            exit 2);
        fun name -> List.mem name keys
  in
  let failed, dt =
    seconds (fun () ->
        List.filter_map
          (fun (name, section) ->
            if not (wanted name) then None
            else
              match section () with
              | () -> None
              | exception e ->
                  Printf.printf "  FAILED: %s\n%!" (Printexc.to_string e);
                  Some name)
          sections)
  in
  Printf.printf "\nTotal wall time: %.0f s\n" dt;
  if failed <> [] then begin
    Printf.eprintf "failed sections: %s\n" (String.concat ", " failed);
    exit 1
  end
