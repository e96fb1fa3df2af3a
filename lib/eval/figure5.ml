module Rng = Dbh_util.Rng

type config = {
  targets : float array;
  vp_budget_fractions : float array;
  builder : Dbh.Builder.config;
  multiprobe_probes : int;
  multiprobe_radius : int;
}

let default_config =
  {
    targets = [| 0.80; 0.85; 0.90; 0.95; 0.975; 0.99 |];
    vp_budget_fractions = [| 0.02; 0.05; 0.1; 0.2; 0.35; 0.5; 0.75; 1.0 |];
    builder = { Dbh.Builder.default_config with slack = 0. };
    multiprobe_probes = 8;
    multiprobe_radius = 2;
  }

type result = {
  dataset : string;
  db_size : int;
  num_queries : int;
  vp : Tradeoff.series;
  single : Tradeoff.series;
  multiprobe : Tradeoff.series;
  hierarchical : Tradeoff.series;
  brute_force_cost : int;
}

let run ?pool ~rng ~dataset ~space ~db ~queries ?(config = default_config) () =
  let truth = Ground_truth.compute ?pool ~space ~db ~queries () in
  (* Offline: family + statistical model, from the database only. *)
  let prepared = Dbh.Builder.prepare ?pool ~rng ~space ~config:config.builder db in
  let dbh_run index q =
    let r = Dbh.Index.search index q in
    (r.Dbh.Index.nn, Dbh.Index.total_cost r.Dbh.Index.stats)
  in
  let single_methods =
    Array.to_list config.targets
    |> List.filter_map (fun target ->
           match
             Dbh.Builder.single ?pool ~rng ~prepared ~db ~target_accuracy:target
               ~config:config.builder ()
           with
           | None -> None
           | Some (index, _choice) ->
               Some
                 {
                   Tradeoff.label = "single-level DBH";
                   setting = Printf.sprintf "target=%.3f" target;
                   run = dbh_run index;
                 })
  in
  let hier_methods =
    Array.to_list config.targets
    |> List.map (fun target ->
           let h =
             Dbh.Builder.hierarchical ?pool ~rng ~prepared ~db ~target_accuracy:target
               ~config:config.builder ()
           in
           {
             Tradeoff.label = "hierarchical DBH";
             setting = Printf.sprintf "target=%.3f" target;
             run =
               (fun q ->
                 let r = Dbh.Hierarchical.search h q in
                 (r.Dbh.Index.nn, Dbh.Index.total_cost r.Dbh.Index.stats));
           })
  in
  (* Multi-probe series: each target is re-tuned under the probed
     collision model — typically landing on fewer tables — and queried
     with the matching runtime knobs, so the curve shows what the probe
     path buys at equal accuracy. *)
  let mp_probes = config.multiprobe_probes in
  let mp_radius = config.multiprobe_radius in
  let mp_opts = Dbh.Query_opts.multiprobe ~hamming_radius:mp_radius mp_probes in
  let multiprobe_methods =
    Array.to_list config.targets
    |> List.filter_map (fun target ->
           match
             Dbh.Builder.single ?pool ~probes:mp_probes ~radius:mp_radius ~rng ~prepared
               ~db ~target_accuracy:target ~config:config.builder ()
           with
           | None -> None
           | Some (index, _choice) ->
               Some
                 {
                   Tradeoff.label = "multi-probe DBH";
                   setting = Printf.sprintf "target=%.3f" target;
                   run =
                     (fun q ->
                       let r = Dbh.Index.search ~opts:mp_opts index q in
                       (r.Dbh.Index.nn, Dbh.Index.total_cost r.Dbh.Index.stats));
                 })
  in
  let vp_tree = Dbh_vptree.Vp_tree.build ~rng ~space db in
  let vp_methods =
    Array.to_list config.vp_budget_fractions
    |> List.map (fun frac ->
           let budget = max 1 (int_of_float (frac *. float_of_int (Array.length db))) in
           {
             Tradeoff.label = "VP-tree";
             setting = Printf.sprintf "budget=%d" budget;
             run =
               (fun q ->
                 let answer, spent = Dbh_vptree.Vp_tree.nn_budgeted vp_tree ~budget q in
                 (answer, spent));
           })
  in
  {
    dataset;
    db_size = Array.length db;
    num_queries = Array.length queries;
    vp = Tradeoff.sweep ~queries ~truth ~label:"VP-tree" vp_methods;
    single = Tradeoff.sweep ~queries ~truth ~label:"single-level DBH" single_methods;
    multiprobe = Tradeoff.sweep ~queries ~truth ~label:"multi-probe DBH" multiprobe_methods;
    hierarchical = Tradeoff.sweep ~queries ~truth ~label:"hierarchical DBH" hier_methods;
    brute_force_cost = truth.Ground_truth.cost_per_query;
  }

let cost_at_accuracy series ~accuracy =
  let best = ref None in
  Array.iter
    (fun (p : Tradeoff.point) ->
      if p.Tradeoff.accuracy >= accuracy then
        match !best with
        | Some c when c <= p.Tradeoff.mean_cost -> ()
        | _ -> best := Some p.Tradeoff.mean_cost)
    series.Tradeoff.points;
  !best

let speedup_at result ~accuracy =
  match
    ( cost_at_accuracy result.vp ~accuracy,
      cost_at_accuracy result.hierarchical ~accuracy,
      cost_at_accuracy result.single ~accuracy )
  with
  | Some vp, Some hier, Some single -> Some (vp /. hier, vp /. single)
  | _ -> None
