module Rng = Dbh_util.Rng

let log_src = Logs.Src.create "dbh.builder" ~doc:"DBH offline pipeline"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  num_pivots : int;
  threshold_sample : int;
  max_functions : int option;
  num_sample_queries : int;
  num_fns : int;
  db_sample : int;
  k_min : int;
  k_max : int;
  l_max : int;
  slack : float;
  levels : int;
}

let default_config =
  {
    num_pivots = 100;
    threshold_sample = 500;
    max_functions = None;
    num_sample_queries = 200;
    num_fns = 250;
    db_sample = 500;
    k_min = 1;
    k_max = 30;
    l_max = 1000;
    slack = 0.03;
    levels = 5;
  }

type 'a prepared = {
  family : 'a Hash_family.t;
  analysis : Analysis.t;
  sample_query_indices : int array;
  pivot_table : float array array;
}

let prepare ?pool ~rng ~space ?(config = default_config) db =
  Params.check_slack config.slack;
  Log.info (fun m ->
      m "preparing family over %d objects (space %s, %d pivots)" (Array.length db)
        space.Dbh_space.Space.name config.num_pivots);
  (* The table comes first: the family's fit, the model's signatures
     and every index build read their pivot distances from it. *)
  let family, pivot_table =
    Hash_family.make_with_table ?pool ~rng ~space ~num_pivots:config.num_pivots
      ~threshold_sample:config.threshold_sample ~max_functions:config.max_functions db
  in
  let n = Array.length db in
  let query_indices = Rng.sample_indices rng (min config.num_sample_queries n) n in
  let analysis =
    Analysis.build ?pool ~rng ~family ~db ~pivot_table ~query_indices ~num_fns:config.num_fns
      ~db_sample:config.db_sample ()
  in
  Log.info (fun m ->
      m "prepared: %d binary functions, %d sample queries, pivot table %dx%d"
        (Hash_family.size family) (Array.length query_indices) (Array.length pivot_table)
        (Hash_family.num_pivots family));
  { family; analysis; sample_query_indices = query_indices; pivot_table }

let single ?pool ?probes ?radius ~rng ~prepared ~db ~target_accuracy
    ?(config = default_config) () =
  match
    Params.optimize ?probes ?radius ~slack:config.slack prepared.analysis ~target_accuracy
      ~k_min:config.k_min ~k_max:config.k_max ~l_max:config.l_max ()
  with
  | None -> None
  | Some choice ->
      Log.info (fun m -> m "single-level: %a" Params.pp_choice choice);
      let index =
        Index.build ?pool ~rng ~family:prepared.family ~db
          ~pivot_table:prepared.pivot_table ~k:choice.Params.k ~l:choice.Params.l ()
      in
      Some (index, choice)

let hierarchical ?pool ~rng ~prepared ~db ~target_accuracy ?(config = default_config) () =
  Hierarchical.build ?pool ~rng ~family:prepared.family ~db ~analysis:prepared.analysis
    ~target_accuracy ~pivot_table:prepared.pivot_table ~levels:config.levels
    ~k_min:config.k_min ~k_max:config.k_max ~l_max:config.l_max ~slack:config.slack ()

let auto ?pool ~rng ~space ?(config = default_config) ~target_accuracy db =
  let prepared = prepare ?pool ~rng ~space ~config db in
  hierarchical ?pool ~rng ~prepared ~db ~target_accuracy ~config ()
