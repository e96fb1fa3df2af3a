(* Tests for the operational layer: Online (self-maintaining index),
   Diagnostics, Calibration, and the report plotting. *)

module Rng = Dbh_util.Rng
module Minkowski = Dbh_metrics.Minkowski
module Online = Dbh.Online
module Diagnostics = Dbh.Diagnostics
module Builder = Dbh.Builder
module Ground_truth = Dbh_eval.Ground_truth

let l2 = Minkowski.l2_space

let small_config =
  { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:4 n in
  db

(* ----------------------------------------------------------------- Online *)

let test_online_basic_query () =
  let db = test_db 1 300 in
  let rng = Rng.create 2 in
  let t = Online.create ~rng ~space:l2 ~config:small_config ~target_accuracy:0.9 db in
  Alcotest.(check int) "size" 300 (Online.size t);
  Alcotest.(check int) "no rebuilds yet" 0 (Online.rebuilds t);
  match (Online.search t db.(5)).Online.nn with
  | Some (h, d) ->
      Alcotest.(check (float 1e-9)) "self found" 0. d;
      Alcotest.(check int) "handle is db position" 5 h
  | None -> Alcotest.fail "must answer"

let test_online_insert_and_handles () =
  let db = test_db 3 200 in
  let rng = Rng.create 4 in
  let t = Online.create ~rng ~space:l2 ~config:small_config ~target_accuracy:0.9 db in
  let obj = Array.make 4 7.5 in
  let h = Online.insert t obj in
  Alcotest.(check int) "next handle" 200 h;
  Alcotest.(check (array (float 0.))) "get returns object" obj (Online.get t h);
  (match (Online.search t obj).Online.nn with
  | Some (found, d) ->
      Alcotest.(check int) "found by handle" h found;
      Alcotest.(check (float 1e-9)) "zero" 0. d
  | None -> Alcotest.fail "inserted object must be found");
  Online.delete t h;
  Alcotest.check_raises "dead handle" (Invalid_argument "Online.get: dead or unknown handle")
    (fun () -> ignore (Online.get t h));
  match (Online.search t obj).Online.nn with
  | Some (found, _) -> Alcotest.(check bool) "not the deleted handle" true (found <> h)
  | None -> ()

let test_online_rebuild_preserves_handles () =
  let db = test_db 5 120 in
  let rng = Rng.create 6 in
  let t =
    Online.create ~rng ~space:l2 ~config:small_config ~rebuild_factor:1.5 ~target_accuracy:0.9 db
  in
  (* Push enough inserts to cross the 1.5x rebuild threshold. *)
  let handles = ref [] in
  let qrng = Rng.create 7 in
  for _ = 1 to 100 do
    let v = Array.init 4 (fun _ -> Rng.float_in qrng (-1.) 1.) in
    handles := (Online.insert t v, v) :: !handles
  done;
  Alcotest.(check bool) "rebuilt at least once" true (Online.rebuilds t >= 1);
  Alcotest.(check int) "size" 220 (Online.size t);
  (* Every handle still resolves to its own object, across generations. *)
  List.iter
    (fun (h, v) -> Alcotest.(check (array (float 0.))) "handle stable" v (Online.get t h))
    !handles;
  (* And queries return post-rebuild handles consistently. *)
  let h, v = List.nth !handles 13 in
  match (Online.search t v).Online.nn with
  | Some (found, d) ->
      Alcotest.(check (float 1e-9)) "zero distance" 0. d;
      (* Ties possible if another object coincides — distance check above
         is the real assertion; handle match is expected in practice. *)
      Alcotest.(check bool) "found a live handle" true (Online.get t found = Online.get t h)
  | None -> Alcotest.fail "must answer"

let test_online_rejects_nan_insert () =
  (* An object with a NaN distance to a pivot would fail the next
     rebuild's pivot table, so the insert raises before it stores
     anything, and the index goes on working, rebuilds included. *)
  let db = test_db 15 100 in
  let t =
    Online.create ~rng:(Rng.create 16) ~space:l2 ~config:small_config ~rebuild_factor:1.5
      ~target_accuracy:0.9 db
  in
  Alcotest.check_raises "NaN coordinate"
    (Invalid_argument "Hierarchical.insert: distance function returned NaN or a negative value")
    (fun () -> ignore (Online.insert t [| 0.; nan; 0.; 0. |]));
  Alcotest.(check int) "size unchanged" 100 (Online.size t);
  Alcotest.(check int) "no table entry" 0 (Online.delta_size t);
  let qrng = Rng.create 17 in
  let fresh () = Array.init 4 (fun _ -> Rng.float_in qrng (-1.) 1.) in
  Alcotest.(check int) "no handle taken" 100 (Online.insert t (fresh ()));
  for _ = 1 to 60 do
    ignore (Online.insert t (fresh ()))
  done;
  Alcotest.(check bool) "rebuilt" true (Online.rebuilds t >= 1);
  Alcotest.(check int) "size" 161 (Online.size t)

let test_online_rejects_infinite_insert () =
  (* An object at +∞ from a pivot would project to ∞ − ∞ = NaN, and the
     next rebuild's pivot table would reject it: the insert raises
     before it stores anything. *)
  let db = test_db 15 100 in
  let t =
    Online.create ~rng:(Rng.create 16) ~space:l2 ~config:small_config ~rebuild_factor:1.5
      ~target_accuracy:0.9 db
  in
  Alcotest.check_raises "infinite coordinate"
    (Invalid_argument "Hierarchical.insert: distance function returned infinity")
    (fun () -> ignore (Online.insert t [| 0.; infinity; 0.; 0. |]));
  Alcotest.(check int) "size unchanged" 100 (Online.size t);
  Alcotest.(check int) "no table entry" 0 (Online.delta_size t);
  Alcotest.(check int) "no handle taken" 100 (Online.insert t [| 0.; 0.5; 0.; 0. |])

let test_online_mass_delete_triggers_rebuild () =
  let db = test_db 8 200 in
  let rng = Rng.create 9 in
  let t =
    Online.create ~rng ~space:l2 ~config:small_config ~rebuild_factor:1.5 ~target_accuracy:0.9 db
  in
  for h = 0 to 80 do
    Online.delete t h
  done;
  Alcotest.(check bool) "rebuilt after shrink" true (Online.rebuilds t >= 1);
  Alcotest.(check int) "size" 119 (Online.size t)

(* Rebuilds an update triggers but the build rejects, read off the
   metric set installed around the update. *)
let rebuild_failures m =
  Dbh_obs.Registry.counter_value m.Dbh_obs.Metrics.online_rebuild_failures_total

let test_online_shrink_to_empty_and_regrow () =
  (* Deleting every object shrinks the alive set below what the offline
     pipeline builds from: 2 objects give fewer sample queries than the
     cascade's 5 levels, then 1 object and then none cannot be built at
     all.  Those rebuilds are rejected after their delete has committed,
     so each delete must still return, and the index must grow back
     through later inserts. *)
  let config = { small_config with num_pivots = 8; num_sample_queries = 20 } in
  let m = Dbh_obs.Metrics.create () in
  Dbh_obs.Metrics.with_installed m @@ fun () ->
  let db = test_db 17 40 in
  let t = Online.create ~rng:(Rng.create 18) ~space:l2 ~config ~target_accuracy:0.9 db in
  for h = 0 to 39 do
    Online.delete t h
  done;
  Alcotest.(check int) "size" 0 (Online.size t);
  Alcotest.(check bool) "no neighbour" true ((Online.search t (Array.make 4 0.)).Online.nn = None);
  Alcotest.(check bool) "rejected rebuilds counted" true (rebuild_failures m >= 1);
  let rebuilds = Online.rebuilds t in
  let qrng = Rng.create 19 in
  let inserted =
    List.init 20 (fun _ ->
        let v = Array.init 4 (fun _ -> Rng.float_in qrng (-1.) 1.) in
        (Online.insert t v, v))
  in
  Alcotest.(check bool) "regrowth rebuilt" true (Online.rebuilds t > rebuilds);
  List.iter
    (fun (h, v) ->
      match (Online.search t v).Online.nn with
      | Some (found, d) ->
          Alcotest.(check int) "its own neighbour" h found;
          Alcotest.(check (float 0.)) "at distance 0" 0. d
      | None -> Alcotest.fail "an inserted object must be found")
    inserted;
  (* A space that returns NaN between one object and every object
     outside the current family's pivots: the insert check, which pays
     only pivot distances, lets the object in, and the rebuild that the
     growth threshold triggers meets the NaN in its pivot table. *)
  let poison = Array.make 4 0.5 in
  let pivots = ref [||] in
  let outside x = not (Array.exists (fun p -> p == x) !pivots) in
  let space =
    Dbh_space.Space.make ~name:"l2-nan-pair" (fun a b ->
        if (a == poison && outside b) || (b == poison && outside a) then nan
        else Minkowski.l2 a b)
  in
  let db = test_db 20 40 in
  let t = Online.create ~rng:(Rng.create 21) ~space ~config ~target_accuracy:0.9 db in
  pivots := Dbh.Hash_family.pivots (Dbh.Hierarchical.family (Online.index t));
  Alcotest.(check int) "poison passes the insert check" 40 (Online.insert t poison);
  let failures = rebuild_failures m in
  let fresh = test_db 22 39 in
  Array.iteri
    (fun i v -> Alcotest.(check int) "insert returns its handle" (41 + i) (Online.insert t v))
    fresh;
  Alcotest.(check int) "the growth rebuild was rejected" (failures + 1) (rebuild_failures m);
  Alcotest.(check int) "no rebuild published" 0 (Online.rebuilds t);
  Alcotest.(check int) "size" 80 (Online.size t);
  Array.iteri
    (fun i v ->
      match (Online.search t v).Online.nn with
      | Some (found, d) ->
          Alcotest.(check int) "query answers" (41 + i) found;
          Alcotest.(check (float 0.)) "at distance 0" 0. d
      | None -> Alcotest.fail "queries must still answer")
    fresh

let test_online_accuracy_after_churn () =
  (* After heavy insert/delete churn (with rebuilds), retrieval accuracy
     against brute force over the surviving set stays high. *)
  let db = test_db 12 300 in
  let rng = Rng.create 13 in
  let t =
    Online.create ~rng ~space:l2 ~config:small_config ~rebuild_factor:1.5 ~target_accuracy:0.9 db
  in
  let qrng = Rng.create 14 in
  (* Delete a third of the originals, insert 200 fresh points. *)
  for h = 0 to 99 do
    Online.delete t (h * 3 mod 300)
  done;
  for _ = 1 to 200 do
    ignore (Online.insert t (Array.init 4 (fun _ -> Rng.float_in qrng (-1.) 1.)))
  done;
  Alcotest.(check bool) "churn caused rebuilds" true (Online.rebuilds t >= 1);
  (* Brute force over the alive set via handles 0..499. *)
  let alive =
    List.filter_map
      (fun h -> try Some (h, Online.get t h) with Invalid_argument _ -> None)
      (List.init 500 Fun.id)
  in
  let ok = ref 0 in
  let trials = 50 in
  for _ = 1 to trials do
    let q = Array.init 4 (fun _ -> Rng.float_in qrng (-1.) 1.) in
    let best_d =
      List.fold_left (fun acc (_, x) -> Float.min acc (Minkowski.l2 q x)) infinity alive
    in
    match (Online.search t q).Online.nn with
    | Some (_, d) when d <= best_d +. 1e-9 -> incr ok
    | Some _ | None -> ()
  done;
  let acc = float_of_int !ok /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "accuracy %.2f after churn" acc) true (acc > 0.7)

let test_online_guards () =
  let rng = Rng.create 10 in
  Alcotest.check_raises "empty" (Invalid_argument "Online.create: empty database") (fun () ->
      ignore (Online.create ~rng ~space:l2 ~target_accuracy:0.9 ([||] : float array array)));
  let db = test_db 11 150 in
  Alcotest.check_raises "factor" (Invalid_argument "Online.create: rebuild_factor must exceed 1")
    (fun () ->
      ignore (Online.create ~rng ~space:l2 ~rebuild_factor:1.0 ~target_accuracy:0.9 db));
  List.iter
    (fun slack ->
      Alcotest.check_raises
        (Printf.sprintf "slack %g" slack)
        (Invalid_argument "Params: slack must be finite and non-negative")
        (fun () ->
          ignore
            (Online.create ~rng ~space:l2 ~config:{ small_config with slack }
               ~target_accuracy:0.9 db)))
    [ -0.5; Float.nan ]

(* ------------------------------------------------------------- Diagnostics *)

let test_diagnostics_healthy_index () =
  let db = test_db 21 400 in
  let rng = Rng.create 22 in
  let family = Dbh.Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:150 db in
  let index = Dbh.Index.build ~rng ~family ~db ~k:6 ~l:5 () in
  let s = Diagnostics.index_stats index in
  Alcotest.(check int) "tables" 5 s.Diagnostics.tables;
  Alcotest.(check int) "bits" 6 s.Diagnostics.bits_per_key;
  Alcotest.(check int) "objects" 400 s.Diagnostics.indexed_objects;
  Alcotest.(check bool) "many buckets" true (s.Diagnostics.non_empty_buckets > 5);
  Alcotest.(check bool) "healthy" true (Diagnostics.healthy s);
  (* The textual rendering leads with the table count. *)
  let text = Format.asprintf "%a" Diagnostics.pp_table_stats s in
  Alcotest.(check bool) "mentions l" true
    (String.length text >= 3 && String.sub text 0 3 = "l=5")

let test_diagnostics_degenerate_space () =
  (* A constant distance collapses every object into one bucket per
     table: diagnostics must flag it. *)
  let space = Dbh_space.Space.make ~name:"const" (fun (_ : int) (_ : int) -> 1.) in
  let db = Array.init 100 Fun.id in
  let rng = Rng.create 23 in
  let family = Dbh.Hash_family.make ~rng ~space ~num_pivots:10 ~threshold_sample:50 db in
  let index = Dbh.Index.build ~rng ~family ~db ~k:4 ~l:3 () in
  let s = Diagnostics.index_stats index in
  Alcotest.(check bool) "flagged" false (Diagnostics.healthy s)

let test_diagnostics_hierarchical_and_balance () =
  let db = test_db 24 300 in
  let rng = Rng.create 25 in
  let config = { small_config with levels = 3 } in
  let prepared = Builder.prepare ~rng ~space:l2 ~config db in
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  let per_level = Diagnostics.hierarchical_stats h in
  Alcotest.(check int) "three levels" 3 (Array.length per_level);
  Array.iter
    (fun ((info : Dbh.Hierarchical.level_info), (s : Diagnostics.table_stats)) ->
      Alcotest.(check int) "l consistent" info.Dbh.Hierarchical.l s.Diagnostics.tables)
    per_level;
  let mean, mn, mx =
    Diagnostics.family_balance_profile ~rng prepared.Builder.family (Array.sub db 0 150)
  in
  Alcotest.(check bool) "balance straddles half" true (mn <= 0.5 && mx >= 0.5 && mean > 0.3 && mean < 0.7)

(* -------------------------------------------------------------- Calibration *)

let test_calibration_points () =
  let all = test_db 31 1100 in
  let db = Array.sub all 0 1000 in
  let queries = Array.sub all 1000 100 in
  let rng = Rng.create 32 in
  let truth = Ground_truth.compute ~space:l2 ~db ~queries () in
  let prepared = Builder.prepare ~rng ~space:l2 ~config:small_config db in
  let points =
    Dbh_eval.Calibration.single_level ~rng ~prepared ~db ~queries ~truth
      ~targets:[| 0.8; 0.9 |] ~config:small_config ()
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun (p : Dbh_eval.Calibration.point) ->
      Alcotest.(check bool) "prediction meets target" true
        (p.Dbh_eval.Calibration.predicted_accuracy >= p.Dbh_eval.Calibration.target);
      Alcotest.(check bool) "measured in [0,1]" true
        (p.Dbh_eval.Calibration.measured_accuracy >= 0.
        && p.Dbh_eval.Calibration.measured_accuracy <= 1.))
    points;
  let mae = Dbh_eval.Calibration.accuracy_mae points in
  Alcotest.(check bool) (Printf.sprintf "calibrated (MAE %.3f)" mae) true (mae < 0.25);
  let text = Format.asprintf "%a" Dbh_eval.Calibration.pp_points points in
  Alcotest.(check bool) "renders" true (String.length text > 50)

let test_calibration_guards () =
  Alcotest.check_raises "empty mae" (Invalid_argument "Calibration.accuracy_mae: no points")
    (fun () -> ignore (Dbh_eval.Calibration.accuracy_mae []))

let () =
  Alcotest.run "dbh_online"
    [
      ( "online",
        [
          Alcotest.test_case "basic query" `Quick test_online_basic_query;
          Alcotest.test_case "insert/get/delete" `Quick test_online_insert_and_handles;
          Alcotest.test_case "rebuild preserves handles" `Quick
            test_online_rebuild_preserves_handles;
          Alcotest.test_case "NaN insert rejected before commit" `Quick
            test_online_rejects_nan_insert;
          Alcotest.test_case "infinite insert rejected before commit" `Quick
            test_online_rejects_infinite_insert;
          Alcotest.test_case "mass delete rebuilds" `Quick test_online_mass_delete_triggers_rebuild;
          Alcotest.test_case "shrink to empty and regrow" `Quick
            test_online_shrink_to_empty_and_regrow;
          Alcotest.test_case "accuracy after churn" `Quick test_online_accuracy_after_churn;
          Alcotest.test_case "guards" `Quick test_online_guards;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "healthy index" `Quick test_diagnostics_healthy_index;
          Alcotest.test_case "degenerate space flagged" `Quick test_diagnostics_degenerate_space;
          Alcotest.test_case "hierarchical + balance" `Quick
            test_diagnostics_hierarchical_and_balance;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "points" `Quick test_calibration_points;
          Alcotest.test_case "guards" `Quick test_calibration_guards;
        ] );
    ]
