(* Tests for the domain pool and the parallel DBH paths: every parallel
   entry point must be bit-identical to its sequential counterpart for
   the same seed, batched budgets must never exceed the per-query cap,
   and the pool itself must survive edge cases (width 1, empty input,
   task failure).

   DBH_TEST_DOMAINS picks the pool width (default 2, so the parallel
   code paths are exercised even on default runs; CI also runs with 4). *)

module Rng = Dbh_util.Rng
module Pool = Dbh_util.Pool
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Hash_family = Dbh.Hash_family
module Collision = Dbh.Collision
module Analysis = Dbh.Analysis
module Index = Dbh.Index
module Hierarchical = Dbh.Hierarchical
module Builder = Dbh.Builder
module Online = Dbh.Online
module Ground_truth = Dbh_eval.Ground_truth

let domains =
  match Sys.getenv_opt "DBH_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 1 -> d
      | _ -> invalid_arg "DBH_TEST_DOMAINS must be a positive integer")

let l2 = Minkowski.l2_space

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:6 n in
  db

let encode (v : float array) =
  let buf = Buffer.create 32 in
  Dbh_util.Binio.write_float_array buf v;
  Buffer.contents buf

let serialized index =
  let buf = Buffer.create 4096 in
  Index.write ~encode buf index;
  Buffer.contents buf

(* ------------------------------------------------------------- pool core *)

let test_pool_map_matches_sequential () =
  Pool.with_pool ~domains (fun pool ->
      let arr = Array.init 1000 (fun i -> i) in
      let f i = (i * 37) mod 101 in
      Alcotest.(check (array int))
        "map identical" (Array.map f arr)
        (Pool.parallel_map_array ~pool f arr))

let test_pool_for_covers_every_index_once () =
  Pool.with_pool ~domains (fun pool ->
      let n = 777 in
      let hits = Array.init n (fun _ -> Atomic.make 0) in
      Pool.parallel_for ~pool n (fun i -> Atomic.incr hits.(i));
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "index %d ran %d times" i (Atomic.get c))
        hits)

let test_pool_reduce_is_chunk_ordered () =
  Pool.with_pool ~domains (fun pool ->
      let n = 500 in
      (* String concatenation is non-commutative: only a chunk-ordered
         merge reproduces the sequential fold. *)
      let expected = String.concat "" (List.init n string_of_int) in
      let got =
        Pool.map_reduce_chunks ~pool n
          ~map:(fun ~lo ~hi ->
            String.concat "" (List.init (hi - lo) (fun i -> string_of_int (lo + i))))
          ~fold:(fun acc s -> acc ^ s)
          ~init:""
      in
      Alcotest.(check string) "ordered merge" expected got)

let test_pool_size_one_and_empty () =
  Pool.with_pool ~domains:1 (fun pool ->
      Alcotest.(check int) "size" 1 (Pool.size pool);
      Alcotest.(check (array int))
        "width-1 map" [| 2; 4; 6 |]
        (Pool.parallel_map_array ~pool (fun x -> 2 * x) [| 1; 2; 3 |]));
  Pool.with_pool ~domains (fun pool ->
      Alcotest.(check (array int)) "empty map" [||]
        (Pool.parallel_map_array ~pool (fun x -> 2 * x) [||]);
      Pool.parallel_for ~pool 0 (fun _ -> Alcotest.fail "task ran on empty range"))

exception Boom

let test_pool_exception_propagates_and_pool_survives () =
  Pool.with_pool ~domains (fun pool ->
      (try
         Pool.parallel_for ~pool 100 (fun i -> if i = 43 then raise Boom);
         Alcotest.fail "exception was swallowed"
       with Boom -> ());
      (* The same pool keeps working after a failed batch. *)
      let sum = Atomic.make 0 in
      Pool.parallel_for ~pool 100 (fun i -> ignore (Atomic.fetch_and_add sum i));
      Alcotest.(check int) "pool usable after failure" 4950 (Atomic.get sum))

(* With no pool, each combinator must equal the same call on 2- and
   4-domain pools, for every chunk layout: plain, capped, cost-weighted
   and both.  The fold is non-commutative, so only walking the same
   chunks in order reproduces it. *)
let test_no_pool_equals_pooled () =
  let n = 301 in
  let arr = Array.init n (fun i -> (i * 37) mod 101) in
  let cost i = 1 + (arr.(i) mod 7) in
  let run ?pool (chunk, cost) =
    let hits = Array.make n 0 in
    Pool.parallel_for ?pool ?chunk ?cost n (fun i -> hits.(i) <- hits.(i) + i + 1);
    let mapped = Pool.parallel_map_array ?pool ?chunk ?cost (fun x -> x * x) arr in
    let reduced =
      Pool.map_reduce_chunks ?pool ?chunk ?cost n
        ~map:(fun ~lo ~hi -> Printf.sprintf "[%d,%d)" lo hi)
        ~fold:( ^ ) ~init:""
    in
    (hits, mapped, reduced)
  in
  List.iter
    (fun ((chunk, cost) as layout) ->
      let ((hits, mapped, reduced) as unpooled) = run layout in
      Alcotest.(check (array int)) "no-pool for" (Array.init n (fun i -> i + 1)) hits;
      Alcotest.(check (array int)) "no-pool map" (Array.map (fun x -> x * x) arr) mapped;
      Alcotest.(check string)
        "no-pool reduce walks the layout"
        (String.concat ""
           (Array.to_list
              (Array.map
                 (fun (lo, hi) -> Printf.sprintf "[%d,%d)" lo hi)
                 (Pool.chunks ?chunk ?cost n))))
        reduced;
      List.iter
        (fun width ->
          Pool.with_pool ~domains:width (fun pool ->
              if run ~pool layout <> unpooled then
                Alcotest.failf "a %d-domain pool differs from no pool" width))
        [ 2; 4 ])
    [ (None, None); (Some 5, None); (None, Some cost); (Some 9, Some cost) ]

(* Without a pool nothing reaches the pool's accounting: a whole build
   and a batch of queries leave every dbh_pool_* series at zero, while
   a single pooled loop moves them. *)
let test_no_pool_records_no_pool_metrics () =
  let module Metrics = Dbh_obs.Metrics in
  let module Registry = Dbh_obs.Registry in
  let db = test_db 29 300 in
  let config =
    { Builder.default_config with num_pivots = 25; num_sample_queries = 40; db_sample = 80; levels = 3 }
  in
  let m = Metrics.create () in
  Metrics.with_installed m (fun () ->
      let h = Builder.auto ~rng:(Rng.create 81) ~space:l2 ~config ~target_accuracy:0.9 db in
      ignore (Hierarchical.search_batch h (Array.sub db 0 40)));
  Alcotest.(check int) "queries counted" 40 (Registry.counter_value m.Metrics.queries_total);
  let series =
    Registry.parse_exposition (Registry.exposition m.Metrics.registry)
    |> List.filter (fun (name, _) -> String.starts_with ~prefix:"dbh_pool_" name)
  in
  if series = [] then Alcotest.fail "no dbh_pool_* series exposed";
  List.iter
    (fun (name, v) -> if v <> 0. then Alcotest.failf "%s = %g with no pool" name v)
    series;
  Pool.with_pool ~domains (fun pool ->
      Metrics.with_installed m (fun () -> Pool.parallel_for ~pool 10 ignore));
  Alcotest.(check bool)
    "a pooled loop is counted" true
    (Registry.counter_value m.Metrics.pool_batches_total > 0)

let test_pool_rejects_bad_widths () =
  Alcotest.check_raises "zero domains" (Invalid_argument "Pool.create: domains must be >= 1")
    (fun () -> ignore (Pool.create ~domains:0))

(* ------------------------------------------------- atomic space counters *)

let test_counter_exact_under_parallelism () =
  Pool.with_pool ~domains (fun pool ->
      let counted, counter = Space.with_counter l2 in
      let db = test_db 11 64 in
      Pool.parallel_for ~pool 300 (fun i ->
          ignore (counted.Space.distance db.(i mod 64) db.((i * 7) mod 64)));
      Alcotest.(check int) "every call counted" 300 (Space.count counter))

(* ------------------------------------------------ bit-identical pipeline *)

let build_index ?pool seed =
  let db = test_db 21 400 in
  let rng = Rng.create seed in
  let family =
    Hash_family.make ?pool ~rng ~space:l2 ~num_pivots:30 ~threshold_sample:100 db
  in
  let pivot_table = Hash_family.pivot_table ?pool family db in
  (db, family, Index.build ?pool ~rng ~family ~db ~pivot_table ~k:6 ~l:8 ())

let test_parallel_build_bit_identical () =
  let _, _, seq_index = build_index 31 in
  Pool.with_pool ~domains (fun pool ->
      let _, _, par_index = build_index ~pool 31 in
      Alcotest.(check string)
        "serialized indexes equal" (serialized seq_index) (serialized par_index))

let test_parallel_prepare_bit_identical () =
  let db = test_db 22 300 in
  let config =
    { Builder.default_config with num_pivots = 25; num_sample_queries = 40; db_sample = 80 }
  in
  let seq = Builder.prepare ~rng:(Rng.create 41) ~space:l2 ~config db in
  Pool.with_pool ~domains (fun pool ->
      let par = Builder.prepare ~pool ~rng:(Rng.create 41) ~space:l2 ~config db in
      Alcotest.(check bool) "pivot tables equal" true (seq.Builder.pivot_table = par.Builder.pivot_table);
      (* compare, not (=): the analysis carries nan self-match markers,
         and (=) makes nan unequal to itself. *)
      Alcotest.(check bool)
        "analyses equal" true
        (compare seq.Builder.analysis par.Builder.analysis = 0);
      (* Same family ⇒ same serialized bytes. *)
      let fam f =
        let buf = Buffer.create 1024 in
        Hash_family.write ~encode buf f;
        Buffer.contents buf
      in
      Alcotest.(check string) "families equal" (fam seq.Builder.family) (fam par.Builder.family))

let test_parallel_collision_matrix_bit_identical () =
  let db = test_db 23 200 in
  let family =
    Hash_family.make ~rng:(Rng.create 51) ~space:l2 ~num_pivots:25 ~threshold_sample:80 db
  in
  let sample = Array.sub db 0 60 in
  let seq = Collision.pairwise_matrix ~rng:(Rng.create 52) ~num_fns:150 family sample in
  Pool.with_pool ~domains (fun pool ->
      let par =
        Collision.pairwise_matrix ~pool ~rng:(Rng.create 52) ~num_fns:150 family sample
      in
      Alcotest.(check bool) "matrices equal" true (seq = par))

(* --------------------------------------------------------- batch queries *)

let test_query_batch_matches_per_query () =
  let db, _, index = build_index 31 in
  let queries = Array.sub db 0 50 in
  let per_query = Array.map (fun q -> Index.search index q) queries in
  Alcotest.(check bool) "unbudgeted batch equal" true (Index.search_batch index queries = per_query);
  Pool.with_pool ~domains (fun pool ->
      Alcotest.(check bool)
        "parallel batch equal" true
        (Index.search_batch ~opts:(Dbh.Query_opts.make ~pool ()) index queries = per_query);
      let budgeted =
        let opts = Dbh.Query_opts.budgeted 60 in
        Array.map (fun q -> Index.search ~opts index q) queries
      in
      Alcotest.(check bool)
        "parallel budgeted batch equal" true
        (Index.search_batch ~opts:(Dbh.Query_opts.make ~pool ~budget:60 ()) index queries = budgeted))

let test_query_batch_budget_never_exceeded () =
  let db, _, index = build_index 31 in
  let queries = Array.sub db 100 60 in
  Pool.with_pool ~domains (fun pool ->
      List.iter
        (fun budget ->
          let results = Index.search_batch ~opts:(Dbh.Query_opts.make ~pool ~budget ()) index queries in
          Array.iter
            (fun (r : _ Index.result) ->
              let spent = Index.total_cost r.Index.stats in
              if spent > budget then
                Alcotest.failf "query spent %d with budget %d" spent budget)
            results)
        [ 1; 10; 50; 200 ])

let test_hierarchical_batch_matches_per_query () =
  let db = test_db 24 300 in
  let config =
    { Builder.default_config with num_pivots = 25; num_sample_queries = 40; db_sample = 80; levels = 3 }
  in
  let h = Builder.auto ~rng:(Rng.create 61) ~space:l2 ~config ~target_accuracy:0.9 db in
  let queries = Array.sub db 0 40 in
  let per_query = Array.map (fun q -> Hierarchical.search h q) queries in
  Pool.with_pool ~domains (fun pool ->
      Alcotest.(check bool)
        "hierarchical batch equal" true
        (Hierarchical.search_batch ~opts:(Dbh.Query_opts.make ~pool ()) h queries = per_query))

let test_online_parallel_generation_matches () =
  let db = test_db 25 250 in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 30; db_sample = 60; levels = 2 }
  in
  let queries = test_db 26 30 in
  let seq = Online.create ~rng:(Rng.create 71) ~space:l2 ~config ~target_accuracy:0.9 db in
  let seq_answers = Array.map (fun q -> (Online.search seq q).Online.nn) queries in
  Pool.with_pool ~domains (fun pool ->
      let par =
        Online.create ~pool ~rng:(Rng.create 71) ~space:l2 ~config ~target_accuracy:0.9 db
      in
      (* The remembered pool drives query_batch; answers must match the
         sequential per-query run. *)
      let par_answers = Array.map (fun (r : _ Online.result) -> r.Online.nn) (Online.search_batch par queries) in
      Alcotest.(check bool) "online answers equal" true (seq_answers = par_answers))

(* Every query surface answers a batch exactly as it answers the same
   queries one by one — sequentially and fanned over the pool, under
   every budget, single-probe and multi-probe — and never spends more
   than the budget. *)
type surface = {
  name : string;
  search : Dbh.Query_opts.t -> float array -> float array Index.result;
  batch : Dbh.Query_opts.t -> float array array -> float array Index.result array;
}

let decode s = Dbh_util.Binio.read_float_array (Dbh_util.Binio.reader s)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let test_every_surface_batch_matches_per_query () =
  let module Breaker = Dbh_robust.Breaker in
  let module Durable = Online.Durable in
  let module Query_opts = Dbh.Query_opts in
  let db = test_db 29 300 in
  let rng = Rng.create 30 in
  let queries =
    Array.init 24 (fun i -> Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(i * 12))
  in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 30; db_sample = 60; levels = 3 }
  in
  let online () = Online.create ~rng:(Rng.create 32) ~space:l2 ~config ~target_accuracy:0.9 db in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:100 db in
  let index = Index.build ~rng ~family ~db ~k:6 ~l:8 () in
  let h = Builder.auto ~rng:(Rng.create 31) ~space:l2 ~config ~target_accuracy:0.9 db in
  let o = online () in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbh-parallel-%d" (Unix.getpid ()))
  in
  let d, _ =
    Durable.open_or_create ~fsync:false ~rng:(Rng.create 33) ~space:l2 ~config
      ~target_accuracy:0.9 ~encode ~decode ~dir ~data:db ()
  in
  let breaker = Breaker.create (online ()) in
  let served (out : _ Breaker.outcome) =
    if out.Breaker.served_by <> `Index then Alcotest.fail "closed breaker bypassed the index";
    out.Breaker.result
  in
  let surfaces =
    [
      { name = "index"; search = (fun opts q -> Index.search ~opts index q);
        batch = (fun opts qs -> Index.search_batch ~opts index qs) };
      { name = "hierarchical"; search = (fun opts q -> Hierarchical.search ~opts h q);
        batch = (fun opts qs -> Hierarchical.search_batch ~opts h qs) };
      { name = "online"; search = (fun opts q -> Online.search ~opts o q);
        batch = (fun opts qs -> Online.search_batch ~opts o qs) };
      { name = "durable"; search = (fun opts q -> Durable.search ~opts d q);
        batch = (fun opts qs -> Durable.search_batch ~opts d qs) };
      { name = "breaker"; search = (fun opts q -> served (Breaker.search ~opts breaker q));
        batch = (fun opts qs -> Array.map served (Breaker.search_batch ~opts breaker qs)) };
    ]
  in
  Fun.protect
    ~finally:(fun () ->
      Durable.close d;
      remove_tree dir)
    (fun () ->
      Pool.with_pool ~domains (fun pool ->
          List.iter
            (fun s ->
              List.iter
                (fun budget ->
                  List.iter
                    (fun (probing, base) ->
                      let opts = { base with Query_opts.budget } in
                      let label =
                        Printf.sprintf "%s, %s, budget %s" s.name probing
                          (match budget with None -> "none" | Some b -> string_of_int b)
                      in
                      let per_query = Array.map (s.search opts) queries in
                      Alcotest.(check bool) (label ^ ": sequential batch") true
                        (s.batch opts queries = per_query);
                      (* Twice on one pool: the second pass runs in the
                         workspaces the first left in the pool's domains. *)
                      let pooled = { opts with Query_opts.pool = Some pool } in
                      Alcotest.(check bool) (label ^ ": pooled batch") true
                        (s.batch pooled queries = per_query);
                      Alcotest.(check bool) (label ^ ": pooled batch, second pass") true
                        (s.batch pooled queries = per_query);
                      Option.iter
                        (fun b ->
                          Array.iter
                            (fun (r : _ Index.result) ->
                              let spent = Index.total_cost r.Index.stats in
                              if spent > b then
                                Alcotest.failf "%s: a query spent %d" label spent)
                            per_query)
                        budget)
                    [ ("single-probe", Query_opts.default); ("multiprobe 3", Query_opts.multiprobe 3) ])
                [ None; Some 1; Some 5; Some 40 ])
            surfaces);
      Alcotest.(check bool) "breaker stayed closed" true (Breaker.state breaker = Breaker.Closed))

let test_ground_truth_parallel_identical () =
  let db = test_db 27 200 in
  let queries = test_db 28 30 in
  let seq = Ground_truth.compute ~space:l2 ~db ~queries () in
  Pool.with_pool ~domains (fun pool ->
      let par = Ground_truth.compute ~pool ~space:l2 ~db ~queries () in
      Alcotest.(check bool) "ground truth equal" true (seq = par))

(* ------------------------------------------------------- skew and stealing *)

(* Deterministic busy-work: burns ~[units] fixed quanta of float math and
   returns a value that depends on the seed, so the work is both
   schedulable (costly) and checkable (bit-identical across widths). *)
let spin units seed =
  let acc = ref seed in
  for _ = 1 to units do
    for _ = 1 to 5_000 do
      acc := (!acc *. 1.000000119) +. 1e-9
    done
  done;
  !acc

(* One index ~100x the rest — the pathological skew the cost-aware
   layout exists for. *)
let skew_cost ~heavy i = if i = heavy then 100 else 1

let skew_case =
  QCheck.make
    QCheck.Gen.(pair (int_range 10 300) (int_range 0 10_000))
    ~print:(fun (n, h) -> Printf.sprintf "n=%d heavy=%d" n (h mod n))

let prop_skew_bit_identical =
  QCheck.Test.make ~name:"skewed cost bit-identical across 1/2/4 domains" ~count:12 skew_case
    (fun (n, h) ->
      let heavy = h mod n in
      let cost = skew_cost ~heavy in
      let f i = spin (cost i / 10) (float_of_int i) in
      let arr = Array.init n (fun i -> i) in
      let expected = Array.map f arr in
      let reduce pool =
        (* Non-commutative fold: only a chunk-ordered merge with a
           width-independent layout reproduces it at every width. *)
        Pool.map_reduce_chunks ?pool ~cost n
          ~map:(fun ~lo ~hi -> Printf.sprintf "[%d,%d)" lo hi)
          ~fold:( ^ ) ~init:""
      in
      let expected_reduce = reduce None in
      List.for_all
        (fun width ->
          Pool.with_pool ~domains:width (fun pool ->
              Pool.parallel_map_array ~pool ~cost f arr = expected
              && reduce (Some pool) = expected_reduce))
        [ 1; 2; 4 ])

let chunk_case =
  QCheck.make
    QCheck.Gen.(
      triple (int_range 0 400) (option (int_range 1 50))
        (array_size (return 400) (int_range (-5) 1_000)))
    ~print:(fun (n, c, _) ->
      Printf.sprintf "n=%d chunk=%s" n
        (match c with None -> "-" | Some c -> string_of_int c))

let prop_cost_chunks_tile =
  QCheck.Test.make ~name:"cost chunks tile [0,n) in order" ~count:300 chunk_case
    (fun (n, chunk, costs) ->
      let cost i = costs.(i) in
      let cs = Pool.chunks ?chunk ~cost n in
      let pos = ref 0 and ok = ref true in
      Array.iter
        (fun (lo, hi) ->
          if lo <> !pos || hi <= lo then ok := false;
          (match chunk with Some c when hi - lo > c -> ok := false | _ -> ());
          pos := hi)
        cs;
      !ok && !pos = n)

(* The steal/pop tally must account for every task exactly once, at any
   width (sequential fast-path runs count as local pops of slot 0). *)
let test_telemetry_accounts_every_task () =
  Pool.with_pool ~domains (fun pool ->
      let n = 400 in
      let heavy = 17 in
      let cost = skew_cost ~heavy in
      Pool.reset_telemetry pool;
      let rounds = 3 in
      let sink = Array.make n 0. in
      for _ = 1 to rounds do
        Pool.parallel_for ~pool ~cost n (fun i -> sink.(i) <- spin (cost i / 10) 1.)
      done;
      let tel = Pool.telemetry pool in
      let sum = Array.fold_left ( + ) 0 in
      Alcotest.(check int)
        "pops + steals = chunks run"
        (rounds * Array.length (Pool.chunks ~cost n))
        (sum tel.Pool.local_pops + sum tel.Pool.steals))

(* With 4 domains on the synthetic skew workload, cost-aware placement
   plus stealing must keep every domain at >= 50% of the busiest
   domain's task time.  Only meaningful when 4 hardware cores exist:
   oversubscribed domains are scheduled too erratically to assert on. *)
let test_skew_busy_balance () =
  Pool.with_pool ~domains:4 (fun pool ->
      let n = 400 in
      let heavy = 41 in
      let cost = skew_cost ~heavy in
      Pool.reset_telemetry pool;
      let sink = Array.make n 0. in
      for _ = 1 to 5 do
        Pool.parallel_for ~pool ~cost n (fun i -> sink.(i) <- spin (cost i) (float_of_int i))
      done;
      let tel = Pool.telemetry pool in
      let mx = Array.fold_left Float.max 0. tel.Pool.busy_seconds in
      let mn = Array.fold_left Float.min infinity tel.Pool.busy_seconds in
      if Domain.recommended_domain_count () >= 4 then begin
        if mx <= 0. then Alcotest.fail "no busy time recorded";
        if mn < 0.5 *. mx then
          Alcotest.failf "imbalanced busy times: min %.4fs < 50%% of max %.4fs" mn mx
      end
      else if mx <= 0. then Alcotest.fail "no busy time recorded")

let () =
  Alcotest.run "dbh-parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches sequential" `Quick test_pool_map_matches_sequential;
          Alcotest.test_case "for covers indices once" `Quick test_pool_for_covers_every_index_once;
          Alcotest.test_case "reduce is chunk-ordered" `Quick test_pool_reduce_is_chunk_ordered;
          Alcotest.test_case "size one and empty input" `Quick test_pool_size_one_and_empty;
          Alcotest.test_case "exception propagates, pool survives" `Quick
            test_pool_exception_propagates_and_pool_survives;
          Alcotest.test_case "rejects bad widths" `Quick test_pool_rejects_bad_widths;
          Alcotest.test_case "no pool equals pooled" `Quick test_no_pool_equals_pooled;
          Alcotest.test_case "no pool records no pool metrics" `Quick
            test_no_pool_records_no_pool_metrics;
        ] );
      ( "counters",
        [
          Alcotest.test_case "atomic distance counter exact" `Quick
            test_counter_exact_under_parallelism;
        ] );
      ( "bit-identity",
        [
          Alcotest.test_case "index build" `Quick test_parallel_build_bit_identical;
          Alcotest.test_case "builder prepare" `Quick test_parallel_prepare_bit_identical;
          Alcotest.test_case "collision matrix" `Quick
            test_parallel_collision_matrix_bit_identical;
          Alcotest.test_case "ground truth" `Quick test_ground_truth_parallel_identical;
        ] );
      ( "batch",
        [
          Alcotest.test_case "index batch equals per-query" `Quick
            test_query_batch_matches_per_query;
          Alcotest.test_case "budget never exceeded" `Quick
            test_query_batch_budget_never_exceeded;
          Alcotest.test_case "hierarchical batch equals per-query" `Quick
            test_hierarchical_batch_matches_per_query;
          Alcotest.test_case "online parallel generation" `Quick
            test_online_parallel_generation_matches;
          Alcotest.test_case "every surface batch equals per-query" `Quick
            test_every_surface_batch_matches_per_query;
        ] );
      ( "skew",
        QCheck_alcotest.to_alcotest prop_skew_bit_identical
        :: QCheck_alcotest.to_alcotest prop_cost_chunks_tile
        :: [
             Alcotest.test_case "telemetry accounts every task" `Quick
               test_telemetry_accounts_every_task;
             Alcotest.test_case "skewed busy times balanced" `Quick test_skew_busy_balance;
           ] );
    ]
