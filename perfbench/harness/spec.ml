(* The metrics the result line carries, with their units.  Every run
   reports all of [end_to_end] (tracing off) or all of [per_layer]
   (tracing on), whatever the workload: a layer a workload never enters
   reports a count of 0.  The run record carries [recorded] as well:
   timings that exist in one workload only (so no reported time is a
   constant), and query_p99_ms and recover_s, whose run-to-run spread
   on a shared two-vCPU host is larger than any bound a regression gate
   can use.

   query_p50_ms, query_p99_ms and query_qps (and the insert latencies)
   are stated at the nominal speed of a reference unit timed beside the
   work ([Pace]); the run record keeps the raw p50 next to them.
   setup_s and the per-layer times are raw. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("query_p50_ms", "ms");
    ("query_qps", "1/s");
    ("accuracy", "fraction");
    ("dist_per_query", "count");
    ("bytes_per_user_byte", "ratio");
    ("peak_rss_mb", "MiB");
  ]

let per_layer =
  [
    ("space.calls_per_query", "count");
    ("dtw.cells_per_query", "count");
    ("minkowski.bytes_per_query", "bytes");
    ("hash_family.dist_per_query", "count");
    ("hash_family.dist_ms_per_query", "ms");
    ("index.lookup_per_query", "count");
    ("index.refine_ms_per_query", "ms");
    ("index.probes_per_query", "count");
    ("index.refine_yield", "ratio");
    ("hierarchical.self_ms_per_query", "ms");
    ("hierarchical.levels_per_query", "count");
    ("hierarchical.tables", "count");
    ("csr.table_words", "words");
    ("builder.dist_s", "s");
    ("builder.self_s", "s");
    ("builder.major_words", "words");
    ("online.rebuilds", "count");
    ("online.delta_entries", "count");
    ("durable.checkpoint_ms_p50", "ms");
    ("durable.checkpoint_ms_max", "ms");
    ("durable.replayed_ops", "count");
    ("wal.bytes_per_write", "bytes");
    ("layout.snapshot_bytes", "bytes");
    ("server.batch_size_mean", "count");
    ("admission.shed", "count");
    ("admission.timed_out", "count");
    ("gc.minor_words_per_op", "words");
    ("gc.major_collections", "count");
    ("trace.overhead", "ratio");
  ]

let recorded =
  [
    ("query_p99_ms", "ms");
    ("recover_s", "s");
    ("insert_p50_ms", "ms");
    ("insert_p99_ms", "ms");
    ("max_qps_at_slo", "1/s");
    ("dtw.ns_per_cell", "ns");
    ("online.insert_ms_p50", "ms");
    ("online.insert_dist_ms", "ms");
    ("online.delete_ms_p50", "ms");
    ("online.wait_ms_p99", "ms");
    ("server.request_ms_p50", "ms");
    ("shards.dist_ms_per_request", "ms");
    ("client.late_ms_p99", "ms");
  ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ per_layer @ recorded) with
  | Some u -> u
  | None -> invalid_arg ("Spec: unknown metric " ^ name)

let metric_obj values =
  Json.Obj
    (List.map
       (fun (name, v) -> (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of name)) ]))
       values)

(* The result line: exactly the declared metrics of the mode, each
   present once and finite, or the run fails. *)
let result ~trace ~correct ~attempted ~failed values =
  let declared = if trace then per_layer else end_to_end in
  let metrics =
    List.map
      (fun (name, _) ->
        match List.assoc_opt name values with
        | Some v when Float.is_finite v -> (name, v)
        | Some v -> failwith (Printf.sprintf "metric %s is not finite (%g)" name v)
        | None -> failwith ("metric missing from the run: " ^ name))
      declared
  in
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Num (float_of_int attempted));
      ("failed", Json.Num (float_of_int failed));
      ("metrics", metric_obj metrics);
    ]
