(* Tests for the dynamic and persistence features: Store, insert/delete,
   multi-probe and budgeted queries, binary save/load roundtrips. *)

module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Hash_family = Dbh.Hash_family
module Store = Dbh.Store
module Index = Dbh.Index
module Query_opts = Dbh.Query_opts
module Hierarchical = Dbh.Hierarchical
module Builder = Dbh.Builder

let l2 = Minkowski.l2_space
let check_loose tol = Alcotest.(check (float tol))

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:4 n in
  db

(* Codec for float-array objects, for persistence tests. *)
let encode (v : float array) =
  let buf = Buffer.create 32 in
  Dbh_util.Binio.write_float_array buf v;
  Buffer.contents buf

let decode s = Dbh_util.Binio.read_float_array (Dbh_util.Binio.reader s)

(* ------------------------------------------------------------------ Store *)

let test_store_basics () =
  let s = Store.of_array [| "a"; "b"; "c" |] in
  Alcotest.(check int) "length" 3 (Store.length s);
  Alcotest.(check int) "alive" 3 (Store.alive_count s);
  Alcotest.(check string) "get" "b" (Store.get s 1);
  let id = Store.add s "d" in
  Alcotest.(check int) "new id" 3 id;
  Store.delete s 1;
  Alcotest.(check bool) "dead" false (Store.is_alive s 1);
  Alcotest.(check bool) "others alive" true (Store.is_alive s 0 && Store.is_alive s 3);
  Alcotest.(check int) "alive count" 3 (Store.alive_count s);
  Store.delete s 1;
  Alcotest.(check int) "idempotent" 3 (Store.alive_count s);
  let alive = Store.to_alive_array s in
  Alcotest.(check int) "alive array" 3 (Array.length alive);
  Alcotest.(check bool) "1 excluded" true (Array.for_all (fun (i, _) -> i <> 1) alive)

let test_store_delete_guard () =
  let s = Store.of_array [| 1 |] in
  Alcotest.check_raises "range" (Invalid_argument "Store.delete: id out of range") (fun () ->
      Store.delete s 5)

let test_online_delete_idempotent_under_rebuild () =
  (* Deleting a handle twice, with a forced rebuild in between and after,
     keeps the store consistent: size stable, handle dead, queries clean. *)
  let db = test_db 81 150 in
  let t =
    Dbh.Online.create ~rng:(Rng.create 82)
      ~config:
        { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }
      ~space:l2 ~target_accuracy:0.9 db
  in
  Dbh.Online.delete t 10;
  Dbh.Online.delete t 10;
  Alcotest.(check int) "one deletion counted" 149 (Dbh.Online.size t);
  Dbh.Online.rebuild_now t;
  Dbh.Online.delete t 10;
  Alcotest.(check int) "still one deletion after rebuild" 149 (Dbh.Online.size t);
  Alcotest.(check bool) "handle stays dead" false
    (List.mem 10 (Dbh.Online.alive_handles t));
  Alcotest.check_raises "get refuses dead handle"
    (Invalid_argument "Online.get: dead or unknown handle") (fun () ->
      ignore (Dbh.Online.get t 10));
  Dbh.Online.rebuild_now t;
  Alcotest.(check int) "rebuilds counted" 2 (Dbh.Online.rebuilds t);
  (match (Dbh.Online.search t db.(10)).Dbh.Online.nn with
  | Some (found, _) -> Alcotest.(check bool) "dead handle never returned" true (found <> 10)
  | None -> ());
  (* Other handles still resolve to their original objects. *)
  Alcotest.(check (array (float 0.))) "neighbors unaffected" db.(11) (Dbh.Online.get t 11)

(* -------------------------------------------------------- insert / delete *)

let make_index ?(seed = 1) ?(n = 300) ?(k = 4) ?(l = 8) () =
  let db = test_db seed n in
  let rng = Rng.create (seed + 500) in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:150 db in
  let index = Index.build ~rng ~family ~db ~k ~l () in
  (index, db, rng)

let test_store_delete_then_query_never_resurrects () =
  (* A tombstoned id must never come back from a query, no matter how
     close the query sits to the dead object. *)
  let index, db, rng = make_index ~seed:7 () in
  let dead = List.init 30 (fun i -> i * 9) in
  List.iter (fun id -> Index.delete index id) dead;
  List.iter
    (fun id ->
      (* Query exactly at the deleted object and at small perturbations. *)
      let targets =
        db.(id) :: List.init 5 (fun _ -> Dbh_datasets.Vectors.perturb ~rng ~sigma:0.01 db.(id))
      in
      List.iter
        (fun q ->
          match (Index.search index q).Index.nn with
          | Some (found, _) ->
              Alcotest.(check bool) "alive answer only" true (not (List.mem found dead))
          | None -> ())
        targets)
    dead

let test_insert_found_afterwards () =
  let index, _, rng = make_index () in
  let fresh = Array.init 20 (fun _ -> Array.init 4 (fun _ -> Rng.float_in rng (-1.) 1.)) in
  Array.iter
    (fun obj ->
      let id = Index.insert index obj in
      (* The object always collides with itself. *)
      match (Index.search index obj).Index.nn with
      | Some (found, d) ->
          Alcotest.(check int) "finds inserted object" id found;
          check_loose 1e-9 "zero distance" 0. d
      | None -> Alcotest.fail "inserted object must be retrievable")
    fresh;
  Alcotest.(check int) "size grew" 320 (Index.size index)

let test_delete_hides_object () =
  let index, db, _ = make_index () in
  (* Delete the object and verify a self-query no longer returns it. *)
  Index.delete index 7;
  (match (Index.search index db.(7)).Index.nn with
  | Some (found, _) -> Alcotest.(check bool) "not the deleted id" true (found <> 7)
  | None -> ());
  Alcotest.(check int) "size shrank" 299 (Index.size index)

let test_deleted_not_counted_in_cost () =
  let index, db, _ = make_index () in
  let before = (Index.search index db.(3)).Index.stats.Index.lookup_cost in
  (* Deleting candidates reduces (or keeps equal) the lookup cost. *)
  for i = 0 to 99 do
    Index.delete index (i * 2)
  done;
  let after = (Index.search index db.(3)).Index.stats.Index.lookup_cost in
  Alcotest.(check bool) "cost shrinks with deletions" true (after <= before)

let test_shared_store_hierarchical_updates () =
  let db = test_db 11 400 in
  let rng = Rng.create 12 in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }
  in
  let prepared = Builder.prepare ~rng ~space:l2 ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let obj = Array.init 4 (fun _ -> 10.) (* far away, unique *) in
  let id = Hierarchical.insert h obj in
  (match (Hierarchical.search h obj).Dbh.Index.nn with
  | Some (found, d) ->
      Alcotest.(check int) "found in cascade" id found;
      check_loose 1e-9 "zero" 0. d
  | None -> Alcotest.fail "inserted object must be retrievable");
  Hierarchical.delete h id;
  (match (Hierarchical.search h obj).Dbh.Index.nn with
  | Some (found, _) -> Alcotest.(check bool) "gone after delete" true (found <> id)
  | None -> ())

let test_incremental_equals_batch () =
  (* An index built over a prefix and grown by insertions answers exactly
     like one built over the whole database, when both draw the same hash
     functions (same rng seed, same k and l). *)
  let db = test_db 71 200 in
  let family_rng = Rng.create 72 in
  let family = Hash_family.make ~rng:family_rng ~space:l2 ~num_pivots:15 ~threshold_sample:100 db in
  let batch = Index.build ~rng:(Rng.create 73) ~family ~db ~k:4 ~l:6 () in
  let incremental =
    Index.build ~rng:(Rng.create 73) ~family ~db:(Array.sub db 0 50) ~k:4 ~l:6 ()
  in
  for i = 50 to 199 do
    ignore (Index.insert incremental db.(i))
  done;
  let qrng = Rng.create 74 in
  for _ = 1 to 30 do
    let q = Dbh_datasets.Vectors.perturb ~rng:qrng ~sigma:0.1 db.(Rng.int qrng 200) in
    let a = Index.search batch q and b = Index.search incremental q in
    Alcotest.(check bool) "same answer" true (a.Index.nn = b.Index.nn);
    Alcotest.(check int) "same lookup cost" a.Index.stats.Index.lookup_cost
      b.Index.stats.Index.lookup_cost
  done

let test_family_rejects_nan_distance () =
  let broken = Space.make ~name:"nan" (fun (_ : int) (_ : int) -> nan) in
  Alcotest.check_raises "nan rejected"
    (Invalid_argument "Hash_family.make: distance function returned NaN or a negative value")
    (fun () ->
      ignore
        (Hash_family.make ~rng:(Rng.create 1) ~space:broken ~num_pivots:4 ~threshold_sample:10
           (Array.init 10 Fun.id)))

let test_family_rejects_negative_distance () =
  let broken = Space.make ~name:"neg" (fun (a : int) b -> if a = b then 0. else -1.) in
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Hash_family.make: distance function returned NaN or a negative value")
    (fun () ->
      ignore
        (Hash_family.make ~rng:(Rng.create 1) ~space:broken ~num_pivots:4 ~threshold_sample:10
           (Array.init 10 Fun.id)))

(* -------------------------------------------------------------- multiprobe *)

let test_multiprobe_zero_equals_query () =
  let index, db, rng = make_index ~l:6 () in
  for _ = 1 to 20 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.1 db.(Rng.int rng 300) in
    let base = Index.search index q in
    let mp = Index.search ~opts:(Query_opts.multiprobe 1) index q in
    Alcotest.(check bool) "same answer" true (base.Index.nn = mp.Index.nn);
    Alcotest.(check int) "same lookup" base.Index.stats.Index.lookup_cost
      mp.Index.stats.Index.lookup_cost
  done

let test_multiprobe_superset_candidates () =
  let index, db, rng = make_index ~l:4 () in
  for _ = 1 to 20 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.15 db.(Rng.int rng 300) in
    let base = Index.search index q in
    let mp = Index.search ~opts:(Query_opts.multiprobe 5) index q in
    (* More probes can only add candidates, so the answer can't worsen. *)
    Alcotest.(check bool) "lookup grows" true
      (mp.Index.stats.Index.lookup_cost >= base.Index.stats.Index.lookup_cost);
    match (base.Index.nn, mp.Index.nn) with
    | Some (_, d0), Some (_, d1) -> Alcotest.(check bool) "no worse" true (d1 <= d0 +. 1e-12)
    | None, _ -> ()
    | Some _, None -> Alcotest.fail "multiprobe lost the answer"
  done

let test_multiprobe_improves_recall_vs_small_l () =
  (* With very few tables, multiprobing recovers much of the accuracy of
     a larger index at the same hashing cost. *)
  let db = test_db 21 600 in
  let rng = Rng.create 22 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:25 ~threshold_sample:200 db in
  let index = Index.build ~rng ~family ~db ~k:10 ~l:2 () in
  let queries = Array.init 100 (fun i -> Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(i * 5)) in
  let truth = Dbh_eval.Ground_truth.compute ~space:l2 ~db ~queries () in
  let accuracy f =
    Dbh_eval.Ground_truth.accuracy truth (Array.map (fun q -> (f q).Index.nn) queries)
  in
  let base = accuracy (fun q -> Index.search index q) in
  let opts = Query_opts.multiprobe 9 in
  let probed = accuracy (fun q -> Index.search ~opts index q) in
  Alcotest.(check bool)
    (Printf.sprintf "probed %.3f > base %.3f" probed base)
    true
    (probed > base || base > 0.97)

let test_multiprobe_probe_count () =
  let index, db, _ = make_index ~l:5 () in
  let r = Index.search ~opts:(Query_opts.multiprobe 4) index db.(0) in
  Alcotest.(check int) "l*(1+probes) buckets" (5 * 4) r.Index.stats.Index.probes

(* ---------------------------------------------------------------- budgeted *)

let test_budgeted_respects_budget () =
  let index, db, rng = make_index ~l:12 () in
  for _ = 1 to 20 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.1 db.(Rng.int rng 300) in
    let r = Index.query_budgeted index ~max_candidates:5 q in
    Alcotest.(check bool) "within budget" true (r.Index.stats.Index.lookup_cost <= 5)
  done

let test_budgeted_equals_query_with_big_budget () =
  let index, db, rng = make_index ~l:6 () in
  for _ = 1 to 20 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.1 db.(Rng.int rng 300) in
    let base = Index.search index q in
    let b = Index.query_budgeted index ~max_candidates:10_000 q in
    match (base.Index.nn, b.Index.nn) with
    | Some (_, d0), Some (_, d1) -> check_loose 1e-12 "same distance" d0 d1
    | None, None -> ()
    | _ -> Alcotest.fail "budget covers everything, answers must agree"
  done

let test_budgeted_collision_ranking_beats_random () =
  (* With a tight budget, collision-count ranking should usually still
     find the true NN among the top candidates. *)
  let db = test_db 31 600 in
  let rng = Rng.create 32 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:25 ~threshold_sample:200 db in
  let index = Index.build ~rng ~family ~db ~k:6 ~l:20 () in
  let queries = Array.init 80 (fun i -> Dbh_datasets.Vectors.perturb ~rng ~sigma:0.03 db.(i * 7)) in
  let truth = Dbh_eval.Ground_truth.compute ~space:l2 ~db ~queries () in
  let answers = Array.map (fun q -> (Index.query_budgeted index ~max_candidates:8 q).Index.nn) queries in
  let acc = Dbh_eval.Ground_truth.accuracy truth answers in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.3f with 8 candidates" acc) true (acc > 0.8)

(* -------------------------------------------------------------- persistence *)

let test_family_roundtrip () =
  let db = test_db 41 200 in
  let rng = Rng.create 42 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:15 ~threshold_sample:100 db in
  let buf = Buffer.create 1024 in
  Hash_family.write ~encode buf family;
  let family' = Hash_family.read ~decode ~space:l2 (Dbh_util.Binio.reader (Buffer.contents buf)) in
  Alcotest.(check int) "size" (Hash_family.size family) (Hash_family.size family');
  Alcotest.(check int) "pivots" (Hash_family.num_pivots family) (Hash_family.num_pivots family');
  (* Every binary function evaluates identically. *)
  for i = 0 to Hash_family.size family - 1 do
    for j = 0 to 20 do
      let x = db.(j * 7) in
      Alcotest.(check bool) "same bit" (Hash_family.eval_direct family x i)
        (Hash_family.eval_direct family' x i)
    done
  done

let test_index_roundtrip () =
  let index, db, rng = make_index ~n:250 () in
  (* Exercise dynamic state before saving. *)
  Index.delete index 3;
  let _ = Index.insert index (Array.init 4 (fun _ -> 5.)) in
  let buf = Buffer.create 4096 in
  Index.write ~encode buf index;
  let index' = Index.read ~decode ~space:l2 (Dbh_util.Binio.reader (Buffer.contents buf)) in
  Alcotest.(check int) "k" (Index.k index) (Index.k index');
  Alcotest.(check int) "l" (Index.l index) (Index.l index');
  Alcotest.(check int) "size" (Index.size index) (Index.size index');
  for _ = 1 to 30 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.1 db.(Rng.int rng 250) in
    let a = Index.search index q and b = Index.search index' q in
    Alcotest.(check bool) "same answer" true (a.Index.nn = b.Index.nn);
    Alcotest.(check int) "same lookup cost" a.Index.stats.Index.lookup_cost
      b.Index.stats.Index.lookup_cost
  done

let test_index_save_load_file () =
  let index, db, _ = make_index ~n:150 () in
  let path = Filename.temp_file "dbh_index" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Index.save ~encode ~path index;
      let index' = Index.load ~decode ~space:l2 ~path in
      let a = Index.search index db.(5) and b = Index.search index' db.(5) in
      Alcotest.(check bool) "same" true (a.Index.nn = b.Index.nn))

let test_index_read_rejects_garbage () =
  Alcotest.(check bool) "corrupt tag" true
    (try
       ignore (Index.read ~decode ~space:l2 (Dbh_util.Binio.reader "notanindex"));
       false
     with Dbh_util.Binio.Corrupt _ -> true)

let test_index_truncation_fuzz () =
  (* Every proper prefix of a valid serialized index must be rejected
     with Corrupt — never crash, hang, or mis-load. *)
  let index, _, _ = make_index ~n:60 () in
  let buf = Buffer.create 1024 in
  Index.write ~encode buf index;
  let data = Buffer.contents buf in
  let rng = Rng.create 987 in
  (* Full data loads fine. *)
  ignore (Index.read ~decode ~space:l2 (Dbh_util.Binio.reader data));
  for _ = 1 to 60 do
    let cut = Rng.int rng (String.length data) in
    let truncated = String.sub data 0 cut in
    let outcome =
      try
        ignore (Index.read ~decode ~space:l2 (Dbh_util.Binio.reader truncated));
        `Loaded
      with
      | Dbh_util.Binio.Corrupt _ -> `Corrupt
      | Invalid_argument _ -> `Corrupt (* codec rejecting a short payload *)
    in
    Alcotest.(check bool) (Printf.sprintf "prefix %d rejected" cut) true (outcome = `Corrupt)
  done

let test_hierarchical_roundtrip () =
  let db = test_db 51 400 in
  let rng = Rng.create 52 in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }
  in
  let prepared = Builder.prepare ~rng ~space:l2 ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let buf = Buffer.create 8192 in
  Hierarchical.write ~encode buf h;
  let h' = Hierarchical.read ~decode ~space:l2 (Dbh_util.Binio.reader (Buffer.contents buf)) in
  let levels = Hierarchical.levels h and levels' = Hierarchical.levels h' in
  Alcotest.(check int) "levels" (Array.length levels) (Array.length levels');
  Array.iteri
    (fun i (info : Hierarchical.level_info) ->
      Alcotest.(check int) "k" info.Hierarchical.k levels'.(i).Hierarchical.k;
      Alcotest.(check int) "l" info.Hierarchical.l levels'.(i).Hierarchical.l;
      check_loose 1e-12 "threshold" info.Hierarchical.d_threshold
        levels'.(i).Hierarchical.d_threshold)
    levels;
  for i = 0 to 30 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.08 db.(i * 11) in
    let a = Hierarchical.search h q and b = Hierarchical.search h' q in
    Alcotest.(check bool) "same answer" true (a.Dbh.Index.nn = b.Dbh.Index.nn)
  done

(* ----------------------------------------------------------------- margin *)

let test_margin_nonnegative_and_boundary () =
  let db = test_db 61 300 in
  let rng = Rng.create 62 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:15 ~threshold_sample:150 db in
  for i = 0 to 30 do
    let cache = Hash_family.cache family db.(i * 3) in
    for j = 0 to Hash_family.size family - 1 do
      let m = Hash_family.margin family cache j in
      Alcotest.(check bool) "nonnegative" true (m >= 0.)
    done
  done

let () =
  Alcotest.run "dbh_dynamic"
    [
      ( "store",
        [
          Alcotest.test_case "basics" `Quick test_store_basics;
          Alcotest.test_case "delete guard" `Quick test_store_delete_guard;
          Alcotest.test_case "delete never resurrects" `Quick
            test_store_delete_then_query_never_resurrects;
          Alcotest.test_case "delete idempotent under rebuild" `Quick
            test_online_delete_idempotent_under_rebuild;
        ] );
      ( "updates",
        [
          Alcotest.test_case "insert retrievable" `Quick test_insert_found_afterwards;
          Alcotest.test_case "delete hides" `Quick test_delete_hides_object;
          Alcotest.test_case "delete reduces cost" `Quick test_deleted_not_counted_in_cost;
          Alcotest.test_case "hierarchical shared store" `Quick
            test_shared_store_hierarchical_updates;
          Alcotest.test_case "incremental = batch" `Quick test_incremental_equals_batch;
          Alcotest.test_case "rejects NaN distance" `Quick test_family_rejects_nan_distance;
          Alcotest.test_case "rejects negative distance" `Quick
            test_family_rejects_negative_distance;
        ] );
      ( "multiprobe",
        [
          Alcotest.test_case "zero probes = query" `Quick test_multiprobe_zero_equals_query;
          Alcotest.test_case "superset of candidates" `Quick test_multiprobe_superset_candidates;
          Alcotest.test_case "improves recall at small l" `Quick
            test_multiprobe_improves_recall_vs_small_l;
          Alcotest.test_case "probe count" `Quick test_multiprobe_probe_count;
        ] );
      ( "budgeted",
        [
          Alcotest.test_case "respects budget" `Quick test_budgeted_respects_budget;
          Alcotest.test_case "big budget = query" `Quick test_budgeted_equals_query_with_big_budget;
          Alcotest.test_case "collision ranking effective" `Quick
            test_budgeted_collision_ranking_beats_random;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "family roundtrip" `Quick test_family_roundtrip;
          Alcotest.test_case "index roundtrip" `Quick test_index_roundtrip;
          Alcotest.test_case "save/load file" `Quick test_index_save_load_file;
          Alcotest.test_case "rejects garbage" `Quick test_index_read_rejects_garbage;
          Alcotest.test_case "truncation fuzz" `Quick test_index_truncation_fuzz;
          Alcotest.test_case "hierarchical roundtrip" `Quick test_hierarchical_roundtrip;
        ] );
      ("margin", [ Alcotest.test_case "nonnegative" `Quick test_margin_nonnegative_and_boundary ]);
    ]
