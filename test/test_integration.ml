(* End-to-end integration tests: the full offline-online DBH pipeline on
   Euclidean and non-metric workloads, model calibration, and the Figure 5
   experiment runner. *)

module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Builder = Dbh.Builder
module Index = Dbh.Index
module Hierarchical = Dbh.Hierarchical
module Analysis = Dbh.Analysis
module Params = Dbh.Params
module Collision = Dbh.Collision
module Ground_truth = Dbh_eval.Ground_truth
module Figure5 = Dbh_eval.Figure5
module Tradeoff = Dbh_eval.Tradeoff

let small_config =
  {
    Builder.default_config with
    num_pivots = 30;
    threshold_sample = 200;
    num_sample_queries = 100;
    num_fns = 200;
    db_sample = 250;
    k_max = 20;
    l_max = 300;
  }

let run_queries_single index queries =
  Array.map (fun q -> Index.search index q) queries

let mean_cost results =
  Dbh_util.Stats.mean
    (Array.map (fun r -> float_of_int (Index.total_cost r.Index.stats)) results)

let test_l2_calibration () =
  (* The statistical model's predicted accuracy must roughly match the
     realized accuracy when test queries are drawn like sample queries
     (fresh points whose NN structure resembles db-to-db NN). *)
  let rng = Rng.create 100 in
  (* One mixture split into database and held-out queries, so the sample
     queries drawn from the database are representative of the test
     queries — the assumption Sec. V-A spells out. *)
  let all, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:15 ~dim:6 1700 in
  let db = Array.sub all 0 1500 in
  let queries = Array.sub all 1500 200 in
  let truth = Ground_truth.compute ~space:Minkowski.l2_space ~db ~queries () in
  let prepared = Builder.prepare ~rng ~space:Minkowski.l2_space ~config:small_config db in
  List.iter
    (fun target ->
      match Builder.single ~rng ~prepared ~db ~target_accuracy:target ~config:small_config () with
      | None -> Alcotest.failf "target %.2f should be feasible" target
      | Some (index, choice) ->
          let results = run_queries_single index queries in
          let acc =
            Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results)
          in
          (* Queries from a fresh mixture draw have farther NNs than
             database resamples, so allow a generous band; the point is
             that predictions are informative, not vacuous. *)
          Alcotest.(check bool)
            (Printf.sprintf "measured %.3f vs predicted %.3f (target %.2f)" acc
               choice.Dbh.Params.predicted_accuracy target)
            true
            (acc >= target -. 0.25);
          (* And far cheaper than brute force. *)
          Alcotest.(check bool) "cheaper than brute force" true
            (mean_cost results < 0.8 *. float_of_int (Array.length db)))
    [ 0.8; 0.9 ]

let test_hierarchical_cheaper_than_single () =
  let rng = Rng.create 110 in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:15 ~dim:6 1500 in
  let queries =
    Array.init 150 (fun i -> Dbh_datasets.Vectors.perturb ~rng ~sigma:0.08 db.(i * 9))
  in
  let truth = Ground_truth.compute ~space:Minkowski.l2_space ~db ~queries () in
  let prepared = Builder.prepare ~rng ~space:Minkowski.l2_space ~config:small_config db in
  match Builder.single ~rng ~prepared ~db ~target_accuracy:0.9 ~config:small_config () with
  | None -> Alcotest.fail "0.9 should be feasible"
  | Some (index, _) ->
      let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config:small_config () in
      let single_results = run_queries_single index queries in
      let hier_results = Array.map (fun q -> Hierarchical.search h q) queries in
      let single_acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) single_results) in
      let hier_acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) hier_results) in
      let single_cost = mean_cost single_results in
      let hier_cost = mean_cost hier_results in
      Alcotest.(check bool) "both accurate" true (single_acc > 0.8 && hier_acc > 0.8);
      (* Sec. V-A: the cascade should be cheaper (easy queries exit early). *)
      Alcotest.(check bool)
        (Printf.sprintf "hier %.0f <= single %.0f" hier_cost single_cost)
        true
        (hier_cost <= 1.1 *. single_cost)

let test_dbh_on_non_metric_dtw () =
  (* The headline claim: DBH indexes a non-metric space directly. *)
  let rng = Rng.create 120 in
  let db = Dbh_datasets.Pen_digits.generate_set ~rng 400 in
  let queries = Dbh_datasets.Pen_digits.generate_set ~rng:(Rng.create 121) 60 in
  let space = Dbh_datasets.Pen_digits.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config = { small_config with num_pivots = 25; num_sample_queries = 80 } in
  let prepared = Builder.prepare ~rng ~space ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let results = Array.map (fun q -> Hierarchical.search h q) queries in
  let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results) in
  let cost = mean_cost results in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f > 0.6" acc) true (acc > 0.6);
  Alcotest.(check bool) (Printf.sprintf "cost %.0f < db size" cost) true
    (cost < 0.8 *. float_of_int (Array.length db))

let test_lean_plans_keep_accuracy () =
  (* The builder's default slack trades a few percent of predicted
     distances for far fewer tables; measured on held-out queries, the
     lean cascade must answer as accurately as the paper's optimum, up to
     a 95% margin for the difference of two binomial proportions. *)
  let rng = Rng.create 140 in
  let db = Dbh_datasets.Pen_digits.generate_set ~rng 600 in
  let queries = Dbh_datasets.Pen_digits.generate_set ~rng:(Rng.create 141) 150 in
  let space = Dbh_datasets.Pen_digits.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config =
    { Builder.default_config with num_pivots = 30; num_sample_queries = 100; db_sample = 300 }
  in
  let prepared = Builder.prepare ~rng ~space ~config db in
  let cascade config =
    let h =
      Builder.hierarchical ~rng:(Rng.create 142) ~prepared ~db ~target_accuracy:0.9 ~config ()
    in
    let tables = Array.fold_left (fun acc i -> acc + i.Hierarchical.l) 0 (Hierarchical.levels h) in
    let results = Array.map (fun q -> Hierarchical.search h q) queries in
    (tables, Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results))
  in
  let lean_tables, lean_acc = cascade config in
  let paper_tables, paper_acc = cascade { config with slack = 0. } in
  Alcotest.(check bool)
    (Printf.sprintf "tables %d vs %d at slack 0" lean_tables paper_tables)
    true
    (1.5 *. float_of_int lean_tables <= float_of_int paper_tables);
  let n = float_of_int (Array.length queries) in
  let pooled = (lean_acc +. paper_acc) /. 2. in
  let margin = 1.96 *. sqrt (2. *. pooled *. (1. -. pooled) /. n) in
  Alcotest.(check bool)
    (Printf.sprintf "accuracy %.3f vs %.3f at slack 0 (margin %.3f)" lean_acc paper_acc margin)
    true
    (lean_acc >= paper_acc -. margin)

(* The cascade model (Sec. V-A, Eq. 10) of a built cascade, stratum by
   stratum, written out per sample query from its NN collision rate c:
   levels draw their functions independently, so the neighbour escapes
   levels 0..j with probability Π (1 − C_{k,l}(c)).  [own] is the
   prediction through each stratum's own level, which the level must
   store; [all] the prediction through every level.  A held-out query
   whose neighbour lies in stratum i passes levels 0..i at least and may
   run on, so its chance of being answered lies between the two. *)
let cascade_model ~analysis ~levels ~target =
  let s = Array.length levels and nq = Analysis.num_queries analysis in
  let order = Analysis.queries_by_nn_distance analysis in
  let stratum i =
    let lo = i * nq / s and hi = ((i + 1) * nq / s) - 1 in
    Array.sub order lo (hi - lo + 1)
  in
  let through last positions =
    Dbh_util.Stats.mean
      (Array.map
         (fun p ->
           let c = Analysis.nn_collision analysis p in
           let miss = ref 1. in
           for j = 0 to last do
             let lev = levels.(j) in
             miss := !miss *. (1. -. Collision.c_kl c ~k:lev.Hierarchical.k ~l:lev.Hierarchical.l)
           done;
           1. -. !miss)
         positions)
  in
  (* credited.(i): the model credited with levels 0..i-1. *)
  let credited = Array.make s analysis in
  for i = 1 to s - 1 do
    let prev = levels.(i - 1) in
    credited.(i) <- Analysis.credit credited.(i - 1) ~k:prev.Hierarchical.k ~l:prev.Hierarchical.l
  done;
  let own = Array.init s (fun i -> through i (stratum i)) in
  let all = Array.init s (fun i -> through (s - 1) (stratum i)) in
  Array.iteri
    (fun i (info : Hierarchical.level_info) ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "level %d stores its cascade prediction" i)
        own.(i) info.predicted_accuracy;
      (* Unless the stratum fell back, the builder took the lean plan of
         its stratum under the credited model, which meets the target. *)
      match
        Params.optimize ~slack:Builder.default_config.slack
          (Analysis.restrict credited.(i) (stratum i))
          ~target_accuracy:target ~k_max:Builder.default_config.k_max
          ~l_max:Builder.default_config.l_max ()
      with
      | None -> ()
      | Some c ->
          Alcotest.(check (pair int int))
            (Printf.sprintf "level %d plan" i)
            (c.Params.k, c.Params.l) (info.k, info.l);
          Alcotest.(check bool)
            (Printf.sprintf "level %d predicts %.3f >= target %.2f" i own.(i) target)
            true (own.(i) >= target))
    levels;
  (Dbh_util.Stats.mean own, Dbh_util.Stats.mean all)

(* Held-out accuracy of cascades built at three targets must lie within
   2.58 binomial standard errors (99%) of the cascade model's bracket:
   at least the prediction through each stratum's own level, at most the
   prediction through every level.  The per-level model of the paper
   sits 5 to 8 standard errors below what held-out queries reach. *)
let check_cascade_model ~space ~config ~db ~queries =
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let prepared = Builder.prepare ~rng:(Rng.create 160) ~space ~config db in
  let n = float_of_int (Array.length queries) in
  let se p = sqrt (p *. (1. -. p) /. n) in
  List.iter
    (fun target ->
      let h =
        Builder.hierarchical ~rng:(Rng.create 161) ~prepared ~db ~target_accuracy:target ~config
          ()
      in
      let own, all =
        cascade_model ~analysis:prepared.Builder.analysis ~levels:(Hierarchical.levels h) ~target
      in
      let results = Array.map (fun q -> Hierarchical.search h q) queries in
      let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results) in
      let lo = own -. (2.58 *. se own) and hi = all +. (2.58 *. se all) in
      Alcotest.(check bool)
        (Printf.sprintf "target %.2f: held-out %.3f in [%.3f, %.3f] (own %.3f, all %.3f)" target
           acc lo hi own all)
        true
        (acc >= lo && acc <= hi))
    [ 0.8; 0.9; 0.95 ]

let test_cascade_model_pen () =
  let params =
    {
      Dbh_datasets.Pen_digits.default_params with
      control_jitter = 0.05;
      noise_sigma = 0.02;
      warp_strength = 0.3;
    }
  in
  let all = Dbh_datasets.Pen_digits.generate_set ~rng:(Rng.create 162) ~params 1100 in
  check_cascade_model ~space:Dbh_datasets.Pen_digits.space
    ~config:{ Builder.default_config with num_pivots = 40; num_sample_queries = 80 }
    ~db:(Array.sub all 0 800) ~queries:(Array.sub all 800 300)

let test_cascade_model_l2 () =
  let all, _ =
    Dbh_datasets.Vectors.gaussian_mixture ~rng:(Rng.create 163) ~num_clusters:25 ~dim:16 2300
  in
  check_cascade_model ~space:Minkowski.l2_space
    ~config:{ Builder.default_config with num_pivots = 50; num_sample_queries = 100 }
    ~db:(Array.sub all 0 2000) ~queries:(Array.sub all 2000 300)

let test_dbh_on_strings () =
  (* Edit distance: another black-box space, queries are mutated members. *)
  let rng = Rng.create 130 in
  let db, _ =
    Dbh_datasets.Strings.clusters ~rng ~alphabet:"abcdefgh" ~num_clusters:30 ~length:24
      ~mutation_edits:3 500
  in
  let queries = Array.init 50 (fun i -> Dbh_datasets.Strings.mutate ~rng ~alphabet:"abcdefgh" ~edits:1 db.(i * 9)) in
  let space = Dbh_metrics.Edit_distance.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config = { small_config with num_pivots = 25 } in
  let prepared = Builder.prepare ~rng ~space ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let results = Array.map (fun q -> Hierarchical.search h q) queries in
  let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results) in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f" acc) true (acc > 0.7)

let test_dbh_on_jaccard_documents () =
  (* Jaccard sets: yet another black-box space; also exercised against
     MinHash LSH in test_lsh.  Queries are fresh documents of known
     topics. *)
  let rng = Rng.create 135 in
  let db = Dbh_datasets.Documents.generate_set ~rng ~num_topics:20 600 in
  let queries = Dbh_datasets.Documents.generate_set ~rng:(Rng.create 136) ~num_topics:20 60 in
  let space = Dbh_datasets.Documents.space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config = { small_config with num_pivots = 25 } in
  let prepared = Builder.prepare ~rng ~space ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let results = Array.map (fun q -> Hierarchical.search h q) queries in
  let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results) in
  let cost = mean_cost results in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f" acc) true (acc > 0.6);
  Alcotest.(check bool) (Printf.sprintf "cost %.0f < scan" cost) true
    (cost < 0.8 *. float_of_int (Array.length db))

let test_dbh_on_kl_histograms () =
  (* Symmetric KL over discrete distributions: asymmetric building block,
     no triangle inequality — the paper's canonical "non-metric measure
     used in practice".  Queries are perturbed database members. *)
  let rng = Rng.create 137 in
  let db = Dbh_datasets.Vectors.histograms ~rng ~bins:16 600 in
  let queries =
    Array.init 60 (fun i ->
        let base = db.(i * 9) in
        let noisy = Array.map (fun x -> x *. exp (Rng.gaussian ~sigma:0.1 rng)) base in
        Dbh_metrics.Divergence.normalize noisy)
  in
  let space = Dbh_metrics.Divergence.symmetric_kl_space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config = { small_config with num_pivots = 25 } in
  let prepared = Builder.prepare ~rng ~space ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let results = Array.map (fun q -> Hierarchical.search h q) queries in
  let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results) in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f" acc) true (acc > 0.7)

let test_dbh_on_dna_alignment () =
  (* Biological-sequence retrieval (motivated in the paper's intro):
     Needleman–Wunsch alignment distance over mutated sequence families. *)
  let rng = Rng.create 138 in
  let db = Dbh_datasets.Dna.generate_set ~rng ~num_families:40 500 in
  let queries = Array.init 50 (fun i ->
      { Dbh_datasets.Dna.label = db.(i * 9).Dbh_datasets.Dna.label;
        sequence = Dbh_datasets.Dna.mutate ~rng db.(i * 9).Dbh_datasets.Dna.sequence }) in
  let space = Dbh_datasets.Dna.global_space in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let config = { small_config with num_pivots = 25 } in
  let prepared = Builder.prepare ~rng ~space ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let results = Array.map (fun q -> Hierarchical.search h q) queries in
  let acc = Ground_truth.accuracy truth (Array.map (fun r -> r.Index.nn) results) in
  let cost = mean_cost results in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f" acc) true (acc > 0.6);
  Alcotest.(check bool) (Printf.sprintf "cost %.0f < scan" cost) true
    (cost < 0.8 *. float_of_int (Array.length db))

let test_figure5_runner_small () =
  (* The experiment harness end-to-end on a small Euclidean instance. *)
  let rng = Rng.create 140 in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:10 ~dim:5 600 in
  let queries, _ =
    Dbh_datasets.Vectors.gaussian_mixture ~rng:(Rng.create 141) ~num_clusters:10 ~dim:5 60
  in
  let config =
    {
      Figure5.targets = [| 0.8; 0.9 |];
      vp_budget_fractions = [| 0.1; 0.5 |];
      builder = small_config;
      multiprobe_probes = 4;
      multiprobe_radius = 2;
    }
  in
  let result =
    Figure5.run ~rng ~dataset:"unit-test" ~space:Minkowski.l2_space ~db ~queries ~config ()
  in
  Alcotest.(check int) "db size" 600 result.Figure5.db_size;
  Alcotest.(check int) "queries" 60 result.Figure5.num_queries;
  Alcotest.(check int) "vp points" 2 (Array.length result.Figure5.vp.Tradeoff.points);
  Alcotest.(check int) "hier points" 2
    (Array.length result.Figure5.hierarchical.Tradeoff.points);
  Array.iter
    (fun (p : Tradeoff.point) ->
      Alcotest.(check bool) "accuracy in range" true
        (p.Tradeoff.accuracy >= 0. && p.Tradeoff.accuracy <= 1.);
      Alcotest.(check bool) "cost positive" true (p.Tradeoff.mean_cost > 0.))
    result.Figure5.hierarchical.Tradeoff.points;
  Alcotest.(check int) "brute force cost" 600 result.Figure5.brute_force_cost

let test_counted_space_agrees_with_stats () =
  (* The distance bookkeeping reported in Index.stats equals the real
     number of distance evaluations observed through a counted space. *)
  let rng = Rng.create 150 in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:5 400 in
  let counted, counter = Space.with_counter Minkowski.l2_space in
  let family =
    Dbh.Hash_family.make ~rng ~space:counted ~num_pivots:20 ~threshold_sample:150 db
  in
  let index = Index.build ~rng ~family ~db ~k:5 ~l:6 () in
  for i = 0 to 20 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(i * 11) in
    Space.reset counter;
    let r = Index.search index q in
    Alcotest.(check int) "stats = real distance calls" (Space.count counter)
      (Index.total_cost r.Index.stats)
  done

let () =
  Alcotest.run "dbh_integration"
    [
      ( "integration",
        [
          Alcotest.test_case "L2 calibration" `Slow test_l2_calibration;
          Alcotest.test_case "hierarchical cheaper" `Slow test_hierarchical_cheaper_than_single;
          Alcotest.test_case "non-metric DTW" `Slow test_dbh_on_non_metric_dtw;
          Alcotest.test_case "lean plans keep accuracy" `Slow test_lean_plans_keep_accuracy;
          Alcotest.test_case "cascade model brackets pen/DTW" `Slow test_cascade_model_pen;
          Alcotest.test_case "cascade model brackets 16-d L2" `Slow test_cascade_model_l2;
          Alcotest.test_case "strings" `Slow test_dbh_on_strings;
          Alcotest.test_case "jaccard documents" `Slow test_dbh_on_jaccard_documents;
          Alcotest.test_case "KL histograms" `Slow test_dbh_on_kl_histograms;
          Alcotest.test_case "DNA alignment" `Slow test_dbh_on_dna_alignment;
          Alcotest.test_case "figure5 runner" `Slow test_figure5_runner_small;
          Alcotest.test_case "counted space agrees" `Quick test_counted_space_agrees_with_stats;
        ] );
    ]
