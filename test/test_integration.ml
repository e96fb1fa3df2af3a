(* End-to-end integration tests: the full offline-online DBH pipeline on
   Euclidean and non-metric workloads, model calibration, and the Figure 5
   experiment runner. *)

module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Builder = Dbh.Builder
module Index = Dbh.Index
module Hierarchical = Dbh.Hierarchical
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
          Alcotest.test_case "strings" `Slow test_dbh_on_strings;
          Alcotest.test_case "jaccard documents" `Slow test_dbh_on_jaccard_documents;
          Alcotest.test_case "KL histograms" `Slow test_dbh_on_kl_histograms;
          Alcotest.test_case "DNA alignment" `Slow test_dbh_on_dna_alignment;
          Alcotest.test_case "figure5 runner" `Slow test_figure5_runner_small;
          Alcotest.test_case "counted space agrees" `Quick test_counted_space_agrees_with_stats;
        ] );
    ]
