(* dbh-cli: command-line front end for the DBH library.

   Subcommands:
     demo        build an index on a synthetic dataset and run queries
     experiment  run one accuracy-vs-cost panel (Figure 5 of the paper)
     tune        print the (k,l) parameter landscape for a dataset
     health      report family balance, index structure, model calibration
     render      print ASCII renderings of the synthetic digit images
     stress      query through guard + circuit breaker while injecting faults
     trace       print one query's full event timeline (pivots, probes, candidates)
     persist     run a durable index in a directory: journaled updates + crash-safe close
     checkpoint  snapshot a durable index directory and truncate its log
     verify      check snapshot/log files for corruption without opening an index
     index-stats print storage-layout statistics of a snapshot (buckets, deltas, bytes)
     replicate   ship a leader directory into a follower and tail it as a read-only replica
     loadgen     drive a running dbh-serve and report latency percentiles

   `experiment --metrics` and `stress --metrics` install a Dbh_obs metric
   set for the run and print its Prometheus exposition afterwards;
   `experiment --metrics` additionally reconciles the
   dbh_distance_computations_total counter against the per-query costs
   the run itself reported and fails on any mismatch. *)

module Rng = Dbh_util.Rng
module Binio = Dbh_util.Binio
module Space = Dbh_space.Space
module Ground_truth = Dbh_eval.Ground_truth
module Durable = Dbh.Online.Durable
module Envelope = Dbh_persist.Envelope
module Wal = Dbh_persist.Wal
module Layout = Dbh_persist.Layout

(* A dataset bundle erases the element type so the CLI can treat all
   workloads uniformly. *)
type bundle =
  | Bundle : {
      space : 'a Space.t;
      db : 'a array;
      queries : 'a array;
    }
      -> bundle

let make_bundle name ~seed ~db_size ~num_queries =
  let rng = Rng.create seed in
  let qrng = Rng.create (seed + 1) in
  match name with
  | "pen" ->
      Bundle
        {
          space = Dbh_datasets.Pen_digits.space;
          db = Dbh_datasets.Pen_digits.generate_set ~rng db_size;
          queries = Dbh_datasets.Pen_digits.generate_set ~rng:qrng num_queries;
        }
  | "mnist" ->
      Bundle
        {
          space = Dbh_datasets.Image_digits.space;
          db = Dbh_datasets.Image_digits.generate_set ~rng db_size;
          queries = Dbh_datasets.Image_digits.generate_set ~rng:qrng num_queries;
        }
  | "hands" ->
      let rotations = max 1 (db_size / Dbh_datasets.Hand_shapes.num_classes) in
      Bundle
        {
          space = Dbh_datasets.Hand_shapes.space;
          db = Dbh_datasets.Hand_shapes.database ~rng ~rotations_per_class:rotations;
          queries = Dbh_datasets.Hand_shapes.queries ~rng:qrng num_queries;
        }
  | "vectors" ->
      let all, _ =
        Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim:16
          (db_size + num_queries)
      in
      Bundle
        {
          space = Dbh_metrics.Minkowski.l2_space;
          db = Array.sub all 0 db_size;
          queries = Array.sub all db_size num_queries;
        }
  | "strings" ->
      let all, _ =
        Dbh_datasets.Strings.clusters ~rng ~alphabet:"abcdefgh" ~num_clusters:40 ~length:24
          ~mutation_edits:3 (db_size + num_queries)
      in
      Bundle
        {
          space = Dbh_metrics.Edit_distance.space;
          db = Array.sub all 0 db_size;
          queries = Array.sub all db_size num_queries;
        }
  | other -> invalid_arg (Printf.sprintf "unknown dataset %S" other)

let builder_config ~pivots ~sample_queries =
  { Dbh.Builder.default_config with num_pivots = pivots; num_sample_queries = sample_queries }

(* Run [f] with the pool implied by --domains: none for 1 (fully
   sequential, the default), a properly shut-down pool otherwise.
   Results are bit-identical either way; only wall time changes.  More
   domains than the machine recommends still run, after a warning: each
   minor collection stops every domain, so an oversubscribed pool can
   build slower than no pool at all. *)
let with_domains domains f =
  if domains < 1 then begin
    Printf.eprintf "dbh-cli: --domains must be >= 1 (got %d)\n" domains;
    1
  end
  else begin
    let recommended = Domain.recommended_domain_count () in
    if domains > recommended then
      Printf.eprintf
        "dbh-cli: warning: --domains %d exceeds the %d this machine recommends; it may \
         run slower than --domains %d\n%!"
        domains recommended recommended;
    if domains = 1 then f None else Dbh_util.Pool.with_pool ~domains (fun pool -> f (Some pool))
  end

(* ------------------------------------------------------------------ demo *)

let run_demo dataset seed db_size num_queries target pivots =
  let (Bundle { space; db; queries }) = make_bundle dataset ~seed ~db_size ~num_queries in
  Printf.printf "dataset=%s  db=%d  queries=%d  space=%s  target=%.2f\n%!" dataset
    (Array.length db) (Array.length queries) space.Space.name target;
  let rng = Rng.create (seed + 2) in
  let config = builder_config ~pivots ~sample_queries:(min 200 (Array.length db / 2)) in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  let index = Dbh.Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:target ~config () in
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let results = Array.map (fun q -> Dbh.Hierarchical.search index q) queries in
  let acc =
    Ground_truth.accuracy truth (Array.map (fun r -> r.Dbh.Index.nn) results)
  in
  let cost =
    Dbh_util.Stats.mean
      (Array.map (fun r -> float_of_int (Dbh.Index.total_cost r.Dbh.Index.stats)) results)
  in
  Printf.printf "accuracy           : %.3f\n" acc;
  Printf.printf "distances per query: %.1f (brute force %d, speedup %.1fx)\n" cost
    (Array.length db)
    (float_of_int (Array.length db) /. cost);
  Array.iteri
    (fun i info ->
      Printf.printf "level %d: k=%d l=%d radius<=%.4f\n" i info.Dbh.Hierarchical.k
        info.Dbh.Hierarchical.l info.Dbh.Hierarchical.d_threshold)
    (Dbh.Hierarchical.levels index);
  0

(* ------------------------------------------------------------ experiment *)

let sum_reported_cost (s : Dbh_eval.Tradeoff.series) =
  Array.fold_left
    (fun acc (p : Dbh_eval.Tradeoff.point) -> acc + p.Dbh_eval.Tradeoff.total_cost)
    0 s.Dbh_eval.Tradeoff.points

let run_experiment dataset seed db_size num_queries csv_path domains metrics =
  with_domains domains @@ fun pool ->
  let (Bundle { space; db; queries }) = make_bundle dataset ~seed ~db_size ~num_queries in
  let rng = Rng.create (seed + 2) in
  let mset = if metrics then Some (Dbh_obs.Metrics.create ()) else None in
  let run () = Dbh_eval.Figure5.run ?pool ~rng ~dataset ~space ~db ~queries () in
  let result =
    match mset with
    | None -> run ()
    | Some m -> Dbh_obs.Metrics.with_installed m run
  in
  Dbh_eval.Report.print_figure5 result;
  (match csv_path with
  | None -> ()
  | Some path ->
      let csv =
        Dbh_eval.Report.csv_of_series
          [
            result.Dbh_eval.Figure5.vp;
            result.Dbh_eval.Figure5.single;
            result.Dbh_eval.Figure5.multiprobe;
            result.Dbh_eval.Figure5.hierarchical;
          ]
      in
      let oc = open_out path in
      output_string oc csv;
      close_out oc;
      Printf.printf "\nwrote %s\n" path);
  match mset with
  | None -> 0
  | Some m ->
      print_newline ();
      print_string (Dbh_obs.Registry.exposition m.Dbh_obs.Metrics.registry);
      (* Reconcile the counter with the run's own per-query cost report.
         Only the DBH methods query through the instrumented entry
         points — the VP-tree baseline and ground truth never touch
         them — so the two integers must match exactly, at any domain
         count. *)
      let reported =
        sum_reported_cost result.Dbh_eval.Figure5.single
        + sum_reported_cost result.Dbh_eval.Figure5.multiprobe
        + sum_reported_cost result.Dbh_eval.Figure5.hierarchical
      in
      let counted =
        Dbh_obs.Registry.counter_value m.Dbh_obs.Metrics.distance_computations_total
      in
      if counted = reported then begin
        Printf.printf "\nmetrics check: dbh_distance_computations_total = %d = sum of \
                       reported per-query costs\n"
          counted;
        0
      end
      else begin
        Printf.eprintf
          "dbh-cli: metrics mismatch: dbh_distance_computations_total = %d but the run \
           reported %d distance computations\n"
          counted reported;
        1
      end

(* ------------------------------------------------------------------ tune *)

let run_tune dataset seed db_size target =
  let (Bundle { space; db; queries = _ }) =
    make_bundle dataset ~seed ~db_size ~num_queries:1
  in
  let rng = Rng.create (seed + 2) in
  let config = builder_config ~pivots:100 ~sample_queries:(min 200 (Array.length db / 2)) in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  let choices =
    Dbh.Params.landscape prepared.Dbh.Builder.analysis ~target_accuracy:target ()
  in
  Printf.printf "(k,l) landscape for %s at target %.2f (n=%d)\n" dataset target
    (Array.length db);
  Printf.printf "%4s %6s %10s %10s %10s %10s\n" "k" "l" "accuracy" "lookup" "hash" "cost";
  Array.iter
    (fun (c : Dbh.Params.choice) ->
      Printf.printf "%4d %6d %10.4f %10.1f %10.1f %10.1f\n" c.Dbh.Params.k c.Dbh.Params.l
        c.Dbh.Params.predicted_accuracy c.Dbh.Params.predicted_lookup
        c.Dbh.Params.predicted_hash c.Dbh.Params.predicted_cost)
    choices;
  (match
     Dbh.Params.optimize ~slack:config.Dbh.Builder.slack prepared.Dbh.Builder.analysis
       ~target_accuracy:target ()
   with
  | Some c ->
      Printf.printf "chosen (slack %g): %s\n" config.Dbh.Builder.slack
        (Format.asprintf "%a" Dbh.Params.pp_choice c)
  | None -> print_endline "no feasible (k,l) at this target");
  0

(* ---------------------------------------------------------------- health *)

let run_health dataset seed db_size num_queries target =
  let (Bundle { space; db; queries }) = make_bundle dataset ~seed ~db_size ~num_queries in
  let rng = Rng.create (seed + 2) in
  let config = builder_config ~pivots:100 ~sample_queries:(min 200 (Array.length db / 2)) in
  let prepared = Dbh.Builder.prepare ~rng ~space ~config db in
  (* Family balance. *)
  let mean, mn, mx =
    Dbh.Diagnostics.family_balance_profile ~rng prepared.Dbh.Builder.family
      (Dbh_util.Rng.subsample rng 200 db)
  in
  Printf.printf "family: %d functions over %d pivots; balance mean %.3f [%.3f, %.3f]\n"
    (Dbh.Hash_family.size prepared.Dbh.Builder.family)
    (Dbh.Hash_family.num_pivots prepared.Dbh.Builder.family)
    mean mn mx;
  (* Per-level structure at the chosen target. *)
  let h = Dbh.Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:target ~config () in
  Array.iteri
    (fun i ((info : Dbh.Hierarchical.level_info), stats) ->
      Printf.printf "level %d (radius<=%.4f): %s -> %s\n" i info.Dbh.Hierarchical.d_threshold
        (Format.asprintf "%a" Dbh.Diagnostics.pp_table_stats stats)
        (if Dbh.Diagnostics.healthy stats then "healthy" else "DEGENERATE"))
    (Dbh.Diagnostics.hierarchical_stats h);
  (* Calibration against held-out queries. *)
  let truth = Ground_truth.compute ~space ~db ~queries () in
  let points =
    Dbh_eval.Calibration.single_level ~rng ~prepared ~db ~queries ~truth
      ~targets:[| 0.8; 0.9; target |] ~config ()
  in
  print_string (Format.asprintf "%a" Dbh_eval.Calibration.pp_points points);
  if points <> [] then
    Printf.printf "accuracy MAE %.4f, cost MRE %.3f\n"
      (Dbh_eval.Calibration.accuracy_mae points)
      (Dbh_eval.Calibration.cost_mre points);
  0

(* ---------------------------------------------------------------- stress *)

module Guard = Dbh_robust.Guard
module Faulty_space = Dbh_robust.Faulty_space
module Breaker = Dbh_robust.Breaker

(* Three phases over the same query set: healthy, faulted, restored.  The
   breaker should serve phase 1 from the index, trip to the linear-scan
   fallback during phase 2, and recover during phase 3. *)
let run_stress dataset seed db_size num_queries target nan exn_p negative perturb policy
    budget domains metrics =
  with_domains domains @@ fun pool ->
  let mset = if metrics then Some (Dbh_obs.Metrics.create ()) else None in
  let with_mset f = match mset with None -> f () | Some m -> Dbh_obs.Metrics.with_installed m f in
  with_mset @@ fun () ->
  try
  let (Bundle { space = base; db; queries }) = make_bundle dataset ~seed ~db_size ~num_queries in
  (* Validate the fault mix before spending time building the index. *)
  let fault_config = Faulty_space.faults ~nan ~exn_:exn_p ~negative ~perturb () in
  let faulty_space, faults = Faulty_space.wrap ~rng:(Rng.create (seed + 3)) base in
  Faulty_space.set_config faults fault_config;
  Faulty_space.disable faults;
  let guarded, guard = Guard.wrap ~policy faulty_space in
  let config = builder_config ~pivots:50 ~sample_queries:(min 100 (Array.length db / 2)) in
  let online =
    Dbh.Online.create ?pool ~rng:(Rng.create (seed + 2)) ~space:guarded ~config
      ~target_accuracy:target db
  in
  let breaker = Breaker.create ~guard online in
  let truth = Ground_truth.compute ?pool ~space:base ~db ~queries () in
  Printf.printf "dataset=%s  db=%d  queries/phase=%d  space=%s  budget=%s\n%!" dataset
    (Array.length db) (Array.length queries) guarded.Space.name
    (if budget > 0 then string_of_int budget else "none");
  let run_phase label =
    let nns = Array.make (Array.length queries) None in
    let linear = ref 0 and truncated = ref 0 and cost = ref 0 in
    let opts =
      if budget > 0 then Dbh.Query_opts.budgeted budget else Dbh.Query_opts.default
    in
    Array.iteri
      (fun i q ->
        let out = Breaker.search ~opts breaker q in
        nns.(i) <- out.Breaker.result.Dbh.Online.nn;
        (match out.Breaker.served_by with `Linear_scan -> incr linear | `Index -> ());
        if out.Breaker.result.Dbh.Online.truncated then incr truncated;
        cost := !cost + Dbh.Index.total_cost out.Breaker.result.Dbh.Online.stats)
      queries;
    Printf.printf
      "%-20s accuracy=%.3f  cost/query=%.1f  index=%d linear=%d truncated=%d  state=%s trips=%d recoveries=%d\n%!"
      label
      (Ground_truth.accuracy truth nns)
      (float_of_int !cost /. float_of_int (Array.length queries))
      (Array.length queries - !linear)
      !linear !truncated
      (Format.asprintf "%a" Breaker.pp_state (Breaker.state breaker))
      (Breaker.trips breaker) (Breaker.recoveries breaker)
  in
  run_phase "phase 1 (healthy)";
  Faulty_space.set_config faults fault_config;
  run_phase "phase 2 (faulted)";
  Faulty_space.disable faults;
  run_phase "phase 3 (restored)";
  Printf.printf "guard : %s\n" (Format.asprintf "%a" Guard.pp guard);
  Printf.printf "faults: calls=%d injected=%d (nan=%d exn=%d negative=%d perturbed=%d)\n"
    (Faulty_space.calls faults) (Faulty_space.injected faults) (Faulty_space.injected_nan faults)
    (Faulty_space.injected_exn faults)
    (Faulty_space.injected_negative faults)
    (Faulty_space.perturbed faults);
  Printf.printf "index : rebuilds=%d  fallback queries total=%d\n" (Dbh.Online.rebuilds online)
    (Breaker.fallback_queries breaker);
  (match mset with
  | None -> ()
  | Some m ->
      print_newline ();
      print_string (Dbh_obs.Registry.exposition m.Dbh_obs.Metrics.registry));
  0
  with Invalid_argument msg ->
    Printf.eprintf "dbh-cli: %s\n" msg;
    1

(* ----------------------------------------------------------------- trace *)

(* Build a hierarchical index, counting the distances the build pays,
   run one query with a trace recorder attached, and print the full
   event timeline: pivot-distance cache activity, per-table bucket
   probes, candidate comparisons, level transitions and the end-of-query
   cost summary. *)
let run_trace dataset seed db_size target pivots query_index budget =
  let (Bundle { space; db; queries }) =
    make_bundle dataset ~seed ~db_size ~num_queries:(max 1 (query_index + 1))
  in
  if query_index < 0 || query_index >= Array.length queries then begin
    Printf.eprintf "dbh-cli: --query must be in [0, %d)\n" (Array.length queries);
    1
  end
  else begin
    let rng = Rng.create (seed + 2) in
    let config = builder_config ~pivots ~sample_queries:(min 200 (Array.length db / 2)) in
    let counted, build_counter = Space.with_counter space in
    let prepared = Dbh.Builder.prepare ~rng ~space:counted ~config db in
    let index =
      Dbh.Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:target ~config ()
    in
    let build_distances = Space.count build_counter in
    let trace = Dbh_obs.Trace.create () in
    let opts =
      Dbh.Query_opts.make ?budget:(if budget > 0 then Some budget else None) ~trace ()
    in
    let q = queries.(query_index) in
    let r = Dbh.Hierarchical.search ~opts index q in
    Printf.printf "dataset=%s  db=%d  space=%s  target=%.2f  query #%d\n" dataset
      (Array.length db) space.Space.name target query_index;
    Printf.printf "build  : %d distances\n" build_distances;
    (match r.Dbh.Index.nn with
    | Some (id, d) -> Printf.printf "answer : id=%d distance=%g\n" id d
    | None -> print_endline "answer : none (all probed buckets empty)");
    Printf.printf
      "cost   : %d distances (%d hash + %d lookup), %d bucket probes, %d/%d levels%s\n\n"
      (Dbh.Index.total_cost r.Dbh.Index.stats)
      r.Dbh.Index.stats.Dbh.Index.hash_cost r.Dbh.Index.stats.Dbh.Index.lookup_cost
      r.Dbh.Index.stats.Dbh.Index.probes r.Dbh.Index.levels_probed
      (Array.length (Dbh.Hierarchical.levels index))
      (if r.Dbh.Index.truncated then "  [budget exhausted]" else "");
    print_string (Format.asprintf "%a" Dbh_obs.Trace.pp trace);
    0
  end

(* ---------------------------------------------------------------- render *)

let run_render seed =
  let rng = Rng.create seed in
  for d = 0 to 9 do
    Printf.printf "--- digit %d ---\n%s\n" d
      (Dbh_datasets.Raster.to_ascii (Dbh_datasets.Image_digits.render ~rng d))
  done;
  0

(* ----------------------------------------------------------- durability *)

(* The durable subcommands fix the workload to float vectors under L2 so
   the object codec is known; a directory written by [persist] can be
   checkpointed and verified by the other two. *)

let encode_vec (v : float array) =
  let buf = Buffer.create 64 in
  Binio.write_float_array buf v;
  Buffer.contents buf

let decode_vec s =
  let r = Binio.reader s in
  let v = Binio.read_float_array r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in vector");
  v

let describe_recovery (r : Durable.recovery) =
  (match r.Durable.source with
  | `Fresh -> Printf.printf "state    : fresh build\n"
  | `Snapshot g -> Printf.printf "state    : recovered from snapshot generation %d\n" g
  | `Rebuilt -> Printf.printf "state    : all snapshots corrupt — rebuilt from raw data\n");
  Printf.printf "generation: %d   replayed ops: %d%s\n" r.Durable.generation
    r.Durable.replayed_ops
    (if r.Durable.torn_tail then "   (torn log tail truncated)" else "");
  List.iter
    (fun (g, why) -> Printf.printf "skipped  : snapshot generation %d: %s\n" g why)
    r.Durable.skipped

let open_durable ?pool ?data ~seed dir =
  Durable.open_or_create ?pool ~rng:(Rng.create seed) ~space:Dbh_metrics.Minkowski.l2_space
    ~config:(builder_config ~pivots:50 ~sample_queries:100)
    ~target_accuracy:0.9 ~encode:encode_vec ~decode:decode_vec ~dir ?data ()

let run_persist dir seed db_size num_ops num_queries domains =
  with_domains domains (fun pool ->
      let rng = Rng.create (seed + 1) in
      let data, _ =
        Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim:16 db_size
      in
      let t, recovery = open_durable ?pool ~data ~seed dir in
      describe_recovery recovery;
      Printf.printf "size     : %d alive objects\n%!" (Durable.size t);
      (* Journal a burst of updates: inserts with an occasional delete. *)
      let extra, _ =
        Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim:16 num_ops
      in
      Array.iteri
        (fun i v ->
          let h = Durable.insert t v in
          if i mod 5 = 4 then Durable.delete t (h - 1))
        extra;
      Printf.printf "journaled: %d ops (generation %d)\n" (Durable.wal_ops t)
        (Durable.generation t);
      let qrng = Rng.create (seed + 2) in
      let queries, _ =
        Dbh_datasets.Vectors.gaussian_mixture ~rng:qrng ~num_clusters:25 ~dim:16 num_queries
      in
      let results = Durable.search_batch t queries in
      let cost =
        Dbh_util.Stats.mean
          (Array.map
             (fun (r : _ Dbh.Online.result) ->
               float_of_int (Dbh.Index.total_cost r.Dbh.Online.stats))
             results)
      in
      Printf.printf "queries  : %d, %.1f distances each\n" num_queries cost;
      (* Close without checkpointing: the journal keeps the updates, and
         `dbh-cli checkpoint` (or the next open) replays them. *)
      let pending = Durable.wal_ops t in
      Durable.close t;
      Printf.printf "closed without checkpoint — %d ops await replay; run `dbh-cli \
                     checkpoint %s` to fold them into a snapshot\n"
        pending dir;
      0)

let run_checkpoint dir seed =
  match open_durable ~seed dir with
  | t, recovery ->
      describe_recovery recovery;
      Durable.checkpoint t;
      Printf.printf "checkpointed to generation %d (%d alive objects)\n"
        (Durable.generation t) (Durable.size t);
      Durable.close t;
      0
  | exception Binio.Corrupt msg ->
      Printf.eprintf "dbh-cli: corrupt state in %s: %s\n" dir msg;
      1
  | exception Invalid_argument msg ->
      Printf.eprintf "dbh-cli: %s\n" msg;
      1

(* WAL shipping: mirror a leader directory into a follower directory and
   tail the copy.  The leader's files are only ever read; the follower
   directory receives shipped bytes and (under --verify) nothing else. *)
let run_replicate leader_dir follower_dir seed follow verify num_queries =
  let module Replica = Dbh_replica.Replica in
  if follow && verify then begin
    (* --follow never returns, so a trailing verify step would be dead
       code (and its exit-1-on-divergence contract unreachable). *)
    Printf.eprintf
      "dbh-cli: --follow and --verify cannot be combined: --follow tails forever, so \
       the verify step would never run; stop following first, then run with --verify\n";
    exit 2
  end;
  let same_dir = leader_dir = follower_dir in
  let ship () =
    if same_dir then 0 else Replica.ship ~src:leader_dir ~dst:follower_dir ()
  in
  match
    let shipped = ship () in
    if not same_dir then Printf.printf "shipped  : %d bytes\n%!" shipped;
    let r =
      Replica.open_
        ~config:(builder_config ~pivots:50 ~sample_queries:100)
        ~space:Dbh_metrics.Minkowski.l2_space ~target_accuracy:0.9 ~decode:decode_vec
        ~dir:follower_dir ()
    in
    let report () =
      let s = Replica.status r in
      Printf.printf
        "follower : generation %d, %d objects, %d records applied, lag %d records\n%!"
        s.Replica.generation (Replica.size r) s.Replica.applied s.Replica.lag_records
    in
    ignore (Replica.catch_up r);
    report ();
    if follow then begin
      (* Tail until SIGINT/SIGTERM, then shut down cleanly: close the
         WAL cursor, flush the lag gauges to zero, exit 0 — so process
         managers see an orderly stop, not a kill. *)
      let stop = Atomic.make false in
      let handler = Sys.Signal_handle (fun _ -> Atomic.set stop true) in
      let previous =
        List.map
          (fun s -> (s, Sys.signal s handler))
          [ Sys.sigint; Sys.sigterm ]
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun (s, b) -> Sys.set_signal s b) previous)
        (fun () ->
          Replica.follow
            ?ship_from:(if same_dir then None else Some leader_dir)
            ~interval:1.0
            ~should_stop:(fun () -> Atomic.get stop)
            ~on_round:(fun ~shipped ~applied ->
              if shipped > 0 || applied > 0 then report ())
            r);
      Printf.printf "stopped  : follow loop closed cleanly\n%!"
    end;
    if not verify then 0
    else begin
      (* Twin check: recover the leader's directory the way the leader
         itself would, and demand bit-identity — same rng state, same
         size, same answer to every probe query. *)
      let t, _recovery = open_durable ~seed leader_dir in
      let qrng = Rng.create (seed + 2) in
      let queries, _ =
        Dbh_datasets.Vectors.gaussian_mixture ~rng:qrng ~num_clusters:25 ~dim:16
          num_queries
      in
      let leader_results = Durable.search_batch t queries in
      let follower_results = Replica.search_batch r queries in
      let mismatches = ref [] in
      if Durable.size t <> Replica.size r then
        mismatches :=
          Printf.sprintf "size: leader %d, follower %d" (Durable.size t)
            (Replica.size r)
          :: !mismatches;
      if Dbh.Online.rng_state (Durable.online t) <> Replica.rng_state r then
        mismatches := "rng state differs" :: !mismatches;
      Array.iteri
        (fun i (lr : _ Dbh.Online.result) ->
          let fr = follower_results.(i) in
          if lr.Dbh.Online.nn <> fr.Dbh.Online.nn then
            mismatches := Printf.sprintf "query %d: nearest neighbor differs" i
                          :: !mismatches)
        leader_results;
      Durable.close t;
      match List.rev !mismatches with
      | [] ->
          Printf.printf "verify   : follower is a bit-identical twin (%d queries)\n"
            num_queries;
          0
      | ms ->
          List.iter (fun m -> Printf.eprintf "dbh-cli: divergence: %s\n" m) ms;
          1
    end
  with
  | code -> code
  | exception Binio.Corrupt msg ->
      Printf.eprintf "dbh-cli: corrupt state: %s\n" msg;
      1
  | exception Failure msg ->
      Printf.eprintf "dbh-cli: %s\n" msg;
      1

(* ------------------------------------------------------------- loadgen *)

(* Drive a running dbh-serve with the shared generator: synthetic vector
   payloads matching the durable fixture codec, a weighted tenant mix,
   open or closed loop.  Prints a summary and the report as one JSON
   line (also written to --out for the bench/CI artifact). *)
let run_loadgen host port connections duration rate tenants deadline_ms budget
    probes radius dim payload_count seed out =
  let rate = if rate <= 0. then None else Some rate in
  let tenant_mix =
    match String.trim tenants with
    | "" -> []
    | spec ->
        List.map
          (fun part ->
            match String.index_opt part '=' with
            | Some i ->
                ( String.sub part 0 i,
                  float_of_string (String.sub part (i + 1) (String.length part - i - 1))
                )
            | None -> (part, 1.))
          (String.split_on_char ',' spec)
  in
  let rng = Rng.create (seed + 2) in
  let qs, _ =
    Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:25 ~dim payload_count
  in
  let payloads = Array.map encode_vec qs in
  match
    Dbh_serve.Loadgen.run
      {
        Dbh_serve.Loadgen.host;
        port;
        connections;
        duration;
        rate;
        tenants = tenant_mix;
        deadline_ms;
        budget;
        probes;
        radius;
        payloads;
        seed;
      }
  with
  | exception Invalid_argument msg ->
      Printf.eprintf "dbh-cli: %s\n" msg;
      2
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "dbh-cli: cannot reach %s:%d: %s\n" host port
        (Unix.error_message e);
      1
  | r ->
      let open Dbh_serve.Loadgen in
      Printf.printf
        "sent     : %d in %.2fs (%.1f qps, %d connections, %s loop)\n"
        r.sent r.duration r.qps connections
        (match rate with Some _ -> "open" | None -> "closed");
      Printf.printf "served   : %d (%.1f qps goodput)\n" r.ok r.goodput_qps;
      Printf.printf "shed     : %d overloaded, %d timed out, %d errors\n" r.shed
        r.timed_out r.errors;
      if r.ok > 0 then
        Printf.printf "latency  : p50 %.2fms  p90 %.2fms  p99 %.2fms  p99.9 %.2fms  max %.2fms\n"
          r.p50_ms r.p90_ms r.p99_ms r.p999_ms r.max_ms;
      List.iter
        (fun (tenant, sent, ok) ->
          Printf.printf "tenant   : %-12s sent %6d  served %6d\n"
            (if tenant = "" then "(anonymous)" else tenant)
            sent ok)
        r.per_tenant;
      let json = report_json r in
      (match out with
      | Some path ->
          let oc = open_out path in
          output_string oc json;
          output_string oc "\n";
          close_out oc
      | None -> ());
      Printf.printf "%s\n" json;
      if r.ok > 0 then 0 else 1

let verify_file path =
  let read_all () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match read_all () with
  | exception Sys_error msg ->
      Printf.printf "%-40s UNREADABLE  %s\n" path msg;
      false
  | data when Envelope.looks_like_envelope data -> (
      let structural (header : Envelope.header) payload =
        (* Decode the full structure with an identity codec and a space
           that must never be called: catches corruption past the
           checksums (impossible ids, broken invariants) without
           touching user code. *)
        let space = Space.make ~name:"verify" (fun (_ : string) _ -> 0.) in
        match header.Envelope.kind with
        | "index" ->
            let r = Binio.reader payload in
            ignore (Dbh.Index.read ~decode:Fun.id ~space r);
            if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes")
        | "hierarchical" ->
            let r = Binio.reader payload in
            ignore (Dbh.Hierarchical.read ~decode:Fun.id ~space r);
            if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes")
        | "online" -> ignore (Durable.verify_snapshot ~path)
        | other -> Printf.printf "%-40s note: unknown kind %S, checksums only\n" path other
      in
      match Envelope.decode data with
      | header, payload -> (
          match structural header payload with
          | () ->
              Printf.printf "%-40s OK  %s snapshot v%d, %d payload bytes\n" path
                header.Envelope.kind header.Envelope.version header.Envelope.payload_length;
              true
          | exception Binio.Corrupt msg ->
              Printf.printf "%-40s CORRUPT  %s\n" path msg;
              false)
      | exception Binio.Corrupt msg ->
          Printf.printf "%-40s CORRUPT  %s\n" path msg;
          false)
  | _ -> (
      let scan = Wal.scan ~path in
      if scan.Wal.torn then begin
        Printf.printf "%-40s TORN  %d valid records (%d bytes), then: %s\n" path
          (Array.length scan.Wal.records)
          scan.Wal.valid_bytes
          (Option.value ~default:"?" scan.Wal.torn_reason);
        false
      end
      else begin
        Printf.printf "%-40s OK  write-ahead log, %d records\n" path
          (Array.length scan.Wal.records);
        true
      end)

let run_verify path =
  if not (Sys.file_exists path) then begin
    Printf.eprintf "dbh-cli: no such file or directory: %s\n" path;
    1
  end
  else if Sys.is_directory path then begin
    let files =
      List.map (Layout.snapshot_path ~dir:path) (Layout.snapshot_generations ~dir:path)
      @ List.map (Layout.wal_path ~dir:path) (Layout.wal_generations ~dir:path)
    in
    if files = [] then begin
      Printf.eprintf "dbh-cli: %s holds no snapshot or log files\n" path;
      1
    end
    else begin
      let ok = List.fold_left (fun acc f -> verify_file f && acc) true files in
      Printf.printf "%d file(s) checked: %s\n" (List.length files)
        (if ok then "all clean" else "CORRUPTION FOUND");
      if ok then 0 else 1
    end
  end
  else if verify_file path then 0
  else 1

(* --------------------------------------------------------- index-stats *)

module Diagnostics = Dbh.Diagnostics

(* Bucket-size histogram, compacted: small sizes verbatim, the tail as
   its extremes, so a million-bucket directory still prints in a few
   lines. *)
let print_histogram hist =
  let total_buckets = Array.fold_left (fun acc (_, c) -> acc + c) 0 hist in
  let total_entries = Array.fold_left (fun acc (s, c) -> acc + (s * c)) 0 hist in
  Printf.printf "  bucket histogram (%d buckets, %d entries):\n" total_buckets
    total_entries;
  let shown = min 8 (Array.length hist) in
  Array.iteri
    (fun i (size, count) ->
      if i < shown then Printf.printf "    size %6d  x %d\n" size count)
    hist;
  if Array.length hist > shown then begin
    let largest, _ = hist.(Array.length hist - 1) in
    Printf.printf "    ... %d more distinct sizes, largest bucket %d\n"
      (Array.length hist - shown) largest
  end

let print_level_stats label index =
  let s = Diagnostics.index_stats index in
  Printf.printf "%s\n" label;
  Format.printf "  %a@." Diagnostics.pp_table_stats s;
  Printf.printf "  delta entries: %d, directory fill: %.4f%%, approx tables: %d KiB\n"
    s.Diagnostics.delta_entries
    (100. *. s.Diagnostics.directory_fill)
    (s.Diagnostics.approx_table_bytes / 1024);
  Array.iter
    (fun p -> Format.printf "  %a@." Diagnostics.pp_table_profile p)
    (Diagnostics.table_profiles index);
  print_histogram (Diagnostics.bucket_histogram index)

let print_family_line family =
  Printf.printf "family: %d functions, %d pivots\n"
    (Dbh.Hash_family.size family)
    (Dbh.Hash_family.num_pivots family)

let stats_of_cascade h =
  print_family_line (Dbh.Hierarchical.family h);
  let indexes = Dbh.Hierarchical.indexes h in
  let levels = Dbh.Hierarchical.levels h in
  Array.iteri
    (fun i index ->
      let info = levels.(i) in
      print_level_stats
        (Printf.sprintf "level %d (k=%d, l=%d, D=%g, predicted acc %.3f, cost %.1f):" i
           info.Dbh.Hierarchical.k info.Dbh.Hierarchical.l info.Dbh.Hierarchical.d_threshold
           info.Dbh.Hierarchical.predicted_accuracy info.Dbh.Hierarchical.predicted_cost)
        index)
    indexes

let stats_file path =
  let read_all () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let data = read_all () in
  if not (Envelope.looks_like_envelope data) then begin
    Printf.eprintf "dbh-cli: %s is not a snapshot file (index-stats reads snapshots, \
                    not write-ahead logs)\n" path;
    1
  end
  else begin
    let header, payload = Envelope.decode data in
    Printf.printf "%s: %s snapshot v%d, %d payload bytes\n" path header.Envelope.kind
      header.Envelope.version header.Envelope.payload_length;
    (* Structural decode with an identity codec and a space whose
       distance must never run: statistics need the table layout, not
       the user's objects. *)
    let space = Space.make ~name:"index-stats" (fun (_ : string) _ -> 0.) in
    match header.Envelope.kind with
    | "index" ->
        let index = Dbh.Index.read ~decode:Fun.id ~space (Binio.reader payload) in
        print_family_line (Dbh.Index.family index);
        print_level_stats "single-level index:" index;
        0
    | "hierarchical" ->
        let h = Dbh.Hierarchical.read ~decode:Fun.id ~space (Binio.reader payload) in
        stats_of_cascade h;
        0
    | "online" ->
        let info = Durable.inspect_snapshot ~path in
        Printf.printf
          "online index: format v%d, %d handles issued, %d alive, %d tombstones\n"
          info.Durable.format_version info.Durable.registry_len
          (info.Durable.registry_len - info.Durable.dead_handles)
          info.Durable.dead_handles;
        stats_of_cascade info.Durable.cascade;
        0
    | other ->
        Printf.eprintf "dbh-cli: unknown snapshot kind %S\n" other;
        1
  end

let run_index_stats path =
  match
    if not (Sys.file_exists path) then begin
      Printf.eprintf "dbh-cli: no such file or directory: %s\n" path;
      1
    end
    else if Sys.is_directory path then begin
      match Layout.snapshot_generations ~dir:path with
      | [] ->
          Printf.eprintf "dbh-cli: %s holds no snapshot files\n" path;
          1
      | gens ->
          let newest = List.fold_left max (List.hd gens) gens in
          let wal_debt =
            List.length (List.filter (fun g -> g >= newest) (Layout.wal_generations ~dir:path))
          in
          Printf.printf "directory %s: newest snapshot generation %d, %d live log(s)\n"
            path newest wal_debt;
          stats_file (Layout.snapshot_path ~dir:path newest)
    end
    else stats_file path
  with
  | code -> code
  | exception Binio.Corrupt msg ->
      Printf.eprintf "dbh-cli: corrupt snapshot: %s\n" msg;
      1
  | exception Sys_error msg ->
      Printf.eprintf "dbh-cli: %s\n" msg;
      1

(* ------------------------------------------------------------- cmdliner *)

open Cmdliner

let dataset_arg =
  let doc = "Dataset: pen | mnist | hands | vectors | strings." in
  Arg.(value & opt string "pen" & info [ "d"; "dataset" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Random seed (all output is deterministic given the seed)." in
  Arg.(value & opt int 42 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let db_size_arg default =
  let doc = "Database size." in
  Arg.(value & opt int default & info [ "n"; "db-size" ] ~docv:"N" ~doc)

let queries_arg default =
  let doc = "Number of test queries." in
  Arg.(value & opt int default & info [ "q"; "queries" ] ~docv:"Q" ~doc)

let target_arg =
  let doc = "Target retrieval accuracy in [0,1)." in
  Arg.(value & opt float 0.9 & info [ "t"; "target" ] ~docv:"ACC" ~doc)

let pivots_arg =
  let doc = "Number of pivot objects |X_small|." in
  Arg.(value & opt int 100 & info [ "p"; "pivots" ] ~docv:"P" ~doc)

let csv_arg =
  let doc = "Write the measured series to this CSV file." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"PATH" ~doc)

let domains_arg =
  let doc =
    "Domains for parallel build/estimation/queries (1 = sequential; results are \
     bit-identical at any width)."
  in
  Arg.(value & opt int 1 & info [ "domains" ] ~docv:"N" ~doc)

let demo_cmd =
  let doc = "build a DBH index on a synthetic dataset and query it" in
  Cmd.v
    (Cmd.info "demo" ~doc)
    Term.(
      const run_demo $ dataset_arg $ seed_arg $ db_size_arg 2000 $ queries_arg 200
      $ target_arg $ pivots_arg)

let metrics_arg =
  let doc =
    "Install an observability metric set for the run and print its Prometheus text \
     exposition afterwards."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let experiment_cmd =
  let doc = "run a full accuracy-vs-cost comparison (paper Figure 5 panel)" in
  Cmd.v
    (Cmd.info "experiment" ~doc)
    Term.(
      const run_experiment $ dataset_arg $ seed_arg $ db_size_arg 2000 $ queries_arg 200
      $ csv_arg $ domains_arg $ metrics_arg)

let tune_cmd =
  let doc = "print the offline (k,l) parameter landscape" in
  Cmd.v
    (Cmd.info "tune" ~doc)
    Term.(const run_tune $ dataset_arg $ seed_arg $ db_size_arg 2000 $ target_arg)

let render_cmd =
  let doc = "print ASCII renderings of the ten synthetic digits" in
  Cmd.v (Cmd.info "render" ~doc) Term.(const run_render $ seed_arg)

let nan_arg =
  let doc = "Probability that a distance evaluation returns NaN." in
  Arg.(value & opt float 0.05 & info [ "nan" ] ~docv:"P" ~doc)

let exn_arg =
  let doc = "Probability that a distance evaluation raises an exception." in
  Arg.(value & opt float 0.01 & info [ "exn" ] ~docv:"P" ~doc)

let negative_arg =
  let doc = "Probability that a distance evaluation returns a negative value." in
  Arg.(value & opt float 0. & info [ "negative" ] ~docv:"P" ~doc)

let perturb_arg =
  let doc = "Probability that a distance value is multiplicatively perturbed." in
  Arg.(value & opt float 0. & info [ "perturb" ] ~docv:"P" ~doc)

let policy_arg =
  let doc = "Guard policy for anomalous distances: $(b,raise), $(b,skip) or $(b,clamp)." in
  let policies = [ ("raise", Guard.Raise); ("skip", Guard.Skip); ("clamp", Guard.Clamp) ] in
  Arg.(value & opt (enum policies) Guard.Skip & info [ "policy" ] ~docv:"POLICY" ~doc)

let budget_arg =
  let doc = "Per-query distance budget (0 = unlimited)." in
  Arg.(value & opt int 0 & info [ "b"; "budget" ] ~docv:"N" ~doc)

let stress_cmd =
  let doc = "run a three-phase fault-injection workload through the hardened pipeline" in
  Cmd.v
    (Cmd.info "stress" ~doc)
    Term.(
      const run_stress $ dataset_arg $ seed_arg $ db_size_arg 1000 $ queries_arg 200
      $ target_arg $ nan_arg $ exn_arg $ negative_arg $ perturb_arg $ policy_arg
      $ budget_arg $ domains_arg $ metrics_arg)

let query_index_arg =
  let doc = "Index of the (generated) query to trace." in
  Arg.(value & opt int 0 & info [ "query" ] ~docv:"I" ~doc)

let trace_cmd =
  let doc = "print one query's full event timeline through a hierarchical index" in
  Cmd.v
    (Cmd.info "trace" ~doc)
    Term.(
      const run_trace $ dataset_arg $ seed_arg $ db_size_arg 2000 $ target_arg
      $ pivots_arg $ query_index_arg $ budget_arg)

let health_cmd =
  let doc = "report hash-family balance, index structure and model calibration" in
  Cmd.v
    (Cmd.info "health" ~doc)
    Term.(
      const run_health $ dataset_arg $ seed_arg $ db_size_arg 2000 $ queries_arg 150
      $ target_arg)

let dir_pos_arg =
  let doc = "Durable index directory (snapshots + write-ahead logs)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let path_pos_arg =
  let doc = "Snapshot file, log file, or a durable index directory." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH" ~doc)

let ops_arg =
  let doc = "Number of updates to journal through the write-ahead log." in
  Arg.(value & opt int 300 & info [ "ops" ] ~docv:"N" ~doc)

let leader_pos_arg =
  let doc = "Leader durable index directory (read-only source)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"LEADER" ~doc)

let follower_pos_arg =
  let doc = "Follower directory the leader's files are shipped into and tailed from." in
  Arg.(required & pos 1 (some string) None & info [] ~docv:"FOLLOWER" ~doc)

let follow_arg =
  let doc =
    "Keep shipping and tailing forever instead of exiting once caught up.  Cannot be \
     combined with $(b,--verify), which only runs after tailing stops."
  in
  Arg.(value & flag & info [ "follow" ] ~doc)

let replicate_verify_arg =
  let doc =
    "After catching up, recover the leader directory and check the follower is a \
     bit-identical twin (rng state, size, probe query answers); exit 1 on divergence.  \
     Cannot be combined with $(b,--follow)."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let replicate_cmd =
  let doc =
    "ship a leader's snapshots and write-ahead logs into a follower directory and tail \
     them into a read-only replica"
  in
  Cmd.v
    (Cmd.info "replicate" ~doc)
    Term.(
      const run_replicate $ leader_pos_arg $ follower_pos_arg $ seed_arg $ follow_arg
      $ replicate_verify_arg $ queries_arg 50)

let host_arg =
  let doc = "Server host to connect to." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"HOST" ~doc)

let port_arg =
  let doc = "Server port." in
  Arg.(value & opt int 7471 & info [ "port" ] ~docv:"PORT" ~doc)

let connections_arg =
  let doc = "Concurrent client connections." in
  Arg.(value & opt int 8 & info [ "c"; "connections" ] ~docv:"N" ~doc)

let duration_arg =
  let doc = "Seconds to run." in
  Arg.(value & opt float 5. & info [ "duration" ] ~docv:"SECONDS" ~doc)

let rate_arg =
  let doc =
    "Open-loop target QPS across all connections (0 = closed loop: each \
     connection fires as soon as the previous reply lands)."
  in
  Arg.(value & opt float 0. & info [ "rate" ] ~docv:"QPS" ~doc)

let tenants_arg =
  let doc =
    "Weighted tenant mix, e.g. $(b,gold=3,free=1).  Empty = anonymous requests \
     (the server's shared default bucket)."
  in
  Arg.(value & opt string "" & info [ "tenants" ] ~docv:"MIX" ~doc)

let deadline_ms_arg =
  let doc = "Per-request deadline in milliseconds sent to the server (0 = server default)." in
  Arg.(value & opt int 200 & info [ "deadline-ms" ] ~docv:"MS" ~doc)

let probes_arg =
  let doc = "Probes per table sent with each search (0 = server default)." in
  Arg.(value & opt int 0 & info [ "probes" ] ~docv:"N" ~doc)

let radius_arg =
  let doc = "Hamming radius sent with each search (0 = single-probe)." in
  Arg.(value & opt int 0 & info [ "radius" ] ~docv:"R" ~doc)

let dim_arg =
  let doc = "Dimensionality of generated query vectors (must match the served index)." in
  Arg.(value & opt int 16 & info [ "dim" ] ~docv:"D" ~doc)

let payloads_arg =
  let doc = "Distinct query payloads generated and cycled through." in
  Arg.(value & opt int 128 & info [ "payloads" ] ~docv:"N" ~doc)

let out_arg =
  let doc = "Also write the JSON report to this file." in
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc)

let loadgen_cmd =
  let doc =
    "drive a running dbh-serve: open/closed loop, weighted tenant mix, latency \
     percentiles, JSON report"
  in
  Cmd.v
    (Cmd.info "loadgen" ~doc)
    Term.(
      const run_loadgen $ host_arg $ port_arg $ connections_arg $ duration_arg
      $ rate_arg $ tenants_arg $ deadline_ms_arg $ budget_arg $ probes_arg
      $ radius_arg $ dim_arg $ payloads_arg $ seed_arg $ out_arg)

let persist_cmd =
  let doc = "run a durable index in a directory: journaled updates, crash-safe close" in
  Cmd.v
    (Cmd.info "persist" ~doc)
    Term.(
      const run_persist $ dir_pos_arg $ seed_arg $ db_size_arg 1000 $ ops_arg
      $ queries_arg 100 $ domains_arg)

let checkpoint_cmd =
  let doc = "fold a durable index's journal into a fresh snapshot generation" in
  Cmd.v (Cmd.info "checkpoint" ~doc) Term.(const run_checkpoint $ dir_pos_arg $ seed_arg)

let verify_cmd =
  let doc =
    "verify snapshot and log files (checksums + structure) without opening an index; \
     exits non-zero on any corruption"
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(const run_verify $ path_pos_arg)

let index_stats_cmd =
  let doc =
    "print storage-layout statistics of a snapshot file or durable directory: bucket \
     histogram, directory fill, delta and tombstone counts, approximate table bytes"
  in
  Cmd.v (Cmd.info "index-stats" ~doc) Term.(const run_index_stats $ path_pos_arg)

let main_cmd =
  let doc = "distance-based hashing for nearest neighbor retrieval (ICDE 2008)" in
  Cmd.group (Cmd.info "dbh-cli" ~version:"1.0.0" ~doc)
    [
      demo_cmd; experiment_cmd; tune_cmd; render_cmd; health_cmd; stress_cmd; trace_cmd;
      persist_cmd; checkpoint_cmd; verify_cmd; index_stats_cmd; replicate_cmd;
      loadgen_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
