(* Tests for the DBH core: projections, hash family, collision model,
   statistical analysis, parameter search, index, hierarchical index. *)

module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Projection = Dbh.Projection
module Hash_family = Dbh.Hash_family
module Collision = Dbh.Collision
module Analysis = Dbh.Analysis
module Params = Dbh.Params
module Index = Dbh.Index
module Scratch = Dbh.Scratch
module Hierarchical = Dbh.Hierarchical
module Builder = Dbh.Builder

let check_float = Alcotest.(check (float 1e-9))
let check_loose tol = Alcotest.(check (float tol))

let l2 = Minkowski.l2_space

(* Shared small Euclidean test universe: clustered points in R^4. *)
let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:8 ~dim:4 n in
  db

(* ------------------------------------------------------------ Projection *)

(* F^{A,B}(X) (Eq. 4) from the three distances [Hash_family] feeds it. *)
let project x a b =
  let d = l2.Space.distance in
  Projection.project_with ~d1:(d x a) ~d2:(d x b) ~d12:(d a b)

let test_projection_euclidean_exact () =
  (* In Euclidean space F^{A,B}(X) is the scalar projection of X-A on B-A. *)
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    let v () = Array.init 3 (fun _ -> Rng.float_in rng (-5.) 5.) in
    let a = v () and b = v () and x = v () in
    let d12 = Minkowski.l2 a b in
    if d12 > 1e-6 then begin
      let f = project x a b in
      let dot = ref 0. in
      Array.iteri (fun i ai -> dot := !dot +. ((x.(i) -. ai) *. (b.(i) -. ai))) a;
      let expected = !dot /. d12 in
      check_loose 1e-6 "scalar projection" expected f
    end
  done

let test_projection_endpoints () =
  let a = [| 0.; 0. |] and b = [| 4.; 0. |] in
  check_float "F(A) = 0" 0. (project a a b);
  check_float "F(B) = d12" 4. (project b a b)

let test_projection_degenerate_rejected () =
  (* Ten pivots over three distinct points: some pivot pairs coincide and
     define no line (d12 = 0), so the family must skip exactly those. *)
  let db = Array.init 30 (fun i -> [| float_of_int (i mod 3) |]) in
  let family =
    Hash_family.make ~rng:(Rng.create 1) ~space:l2 ~num_pivots:10 ~threshold_sample:30 db
  in
  let pivots = Hash_family.pivots family in
  let lines = ref 0 in
  Array.iteri
    (fun i p -> Array.iteri (fun j q -> if i < j && p <> q then incr lines) pivots)
    pivots;
  Alcotest.(check int) "one function per non-degenerate pair" !lines (Hash_family.size family);
  for i = 0 to Hash_family.size family - 1 do
    Alcotest.(check bool) "d12 > 0" true ((Hash_family.fn family i).Hash_family.d12 > 0.)
  done

let test_project_with_formula () =
  check_float "formula" 0.75 (Projection.project_with ~d1:1. ~d2:1. ~d12:1.5);
  (* (1 + 2.25 - 1) / 3 = 0.75 *)
  check_float "midpoint" 1. (Projection.project_with ~d1:1. ~d2:1. ~d12:2.)

(* ----------------------------------------------------------- Hash family *)

let make_family ?(seed = 2) ?(n = 300) ?(num_pivots = 20) ?max_functions () =
  let db = test_db seed n in
  let rng = Rng.create (seed + 1000) in
  let family =
    Hash_family.make ~rng ~space:l2 ~num_pivots ~threshold_sample:200 ?max_functions db
  in
  (family, db)

let test_family_size_all_pairs () =
  let family, _ = make_family () in
  Alcotest.(check int) "pivots" 20 (Hash_family.num_pivots family);
  (* C(20,2) = 190 (all pivot pairs distinct in a continuous space). *)
  Alcotest.(check int) "functions" 190 (Hash_family.size family)

let test_family_max_functions () =
  let family, _ = make_family ~max_functions:37 () in
  Alcotest.(check int) "capped" 37 (Hash_family.size family)

let test_family_more_pivots_than_data () =
  let db = test_db 3 10 in
  let rng = Rng.create 4 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:100 ~threshold_sample:50 db in
  Alcotest.(check int) "clamped to data" 10 (Hash_family.num_pivots family)

let test_family_balance () =
  (* Each binary function should split a held-out sample from the same
     distribution roughly in half. *)
  let all = test_db 2 700 in
  let rng = Rng.create 1002 in
  let family =
    Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:200 (Array.sub all 0 400)
  in
  let holdout = Array.sub all 400 300 in
  let balances =
    Array.init (Hash_family.size family) (fun i -> Hash_family.balance family i holdout)
  in
  let mean = Dbh_util.Stats.mean balances in
  check_loose 0.06 "mean balance ~ 0.5" 0.5 mean;
  (* No function may be grossly unbalanced. *)
  Array.iter
    (fun b -> Alcotest.(check bool) "individual balance" true (b > 0.2 && b < 0.8))
    balances

let test_family_eval_cache_consistent () =
  let family, db = make_family () in
  let rng = Rng.create 77 in
  for _ = 1 to 50 do
    let x = db.(Rng.int rng (Array.length db)) in
    let cache = Hash_family.cache family x in
    let i = Rng.int rng (Hash_family.size family) in
    Alcotest.(check bool) "cached = direct" (Hash_family.eval_direct family x i)
      (Hash_family.eval family cache i)
  done

let test_family_cache_cost_counts_distinct_pivots () =
  let family, db = make_family () in
  let q = db.(0) in
  let cache = Hash_family.cache family q in
  Alcotest.(check int) "no cost before eval" 0 (Hash_family.cache_cost cache);
  ignore (Hash_family.eval family cache 0);
  let f0 = Hash_family.fn family 0 in
  let expected = if f0.Hash_family.p1 = f0.Hash_family.p2 then 1 else 2 in
  Alcotest.(check int) "two pivots after one eval" expected (Hash_family.cache_cost cache);
  (* Re-evaluating the same function costs nothing more. *)
  ignore (Hash_family.eval family cache 0);
  Alcotest.(check int) "memoized" expected (Hash_family.cache_cost cache);
  (* Evaluating everything can never exceed the pivot count. *)
  for i = 0 to Hash_family.size family - 1 do
    ignore (Hash_family.eval family cache i)
  done;
  Alcotest.(check bool) "bounded by pivots" true
    (Hash_family.cache_cost cache <= Hash_family.num_pivots family)

let test_family_hash_cost_realized_via_counter () =
  (* The realized distance count through a counted space equals the
     cache-cost bookkeeping. *)
  let db = test_db 5 200 in
  let build_rng = Rng.create 6 in
  let counted, counter = Space.with_counter l2 in
  let family =
    Hash_family.make ~rng:build_rng ~space:counted ~num_pivots:15 ~threshold_sample:100 db
  in
  Space.reset counter;
  let q = test_db 123 1 in
  let cache = Hash_family.cache family q.(0) in
  for i = 0 to Hash_family.size family - 1 do
    ignore (Hash_family.eval family cache i)
  done;
  Alcotest.(check int) "counter = cache_cost" (Hash_family.cache_cost cache)
    (Space.count counter)

let test_family_signature () =
  let family, db = make_family () in
  let rng = Rng.create 8 in
  let fn_indices = Hash_family.sample_fn_indices ~rng family 64 in
  let s = Hash_family.signature family ~fn_indices (Hash_family.cache family db.(3)) in
  Alcotest.(check int) "signature length" 64 (Dbh_util.Bitvec.length s);
  (* Signature bits match individual evaluations. *)
  Array.iteri
    (fun pos i ->
      Alcotest.(check bool) "bit matches" (Hash_family.eval_direct family db.(3) i)
        (Dbh_util.Bitvec.get s pos))
    fn_indices

let test_family_interval_validity () =
  let family, _ = make_family () in
  for i = 0 to Hash_family.size family - 1 do
    let f = Hash_family.fn family i in
    Alcotest.(check bool) "t1 < t2" true (f.Hash_family.t1 < f.Hash_family.t2);
    Alcotest.(check bool) "d12 > 0" true (f.Hash_family.d12 > 0.)
  done

let test_family_rejects_tiny () =
  Alcotest.check_raises "one object"
    (Invalid_argument "Hash_family.make: need at least 2 objects")
    (fun () ->
      ignore (Hash_family.make ~rng:(Rng.create 1) ~space:l2 [| [| 1. |] |]))

let test_family_rejects_degenerate () =
  (* All objects identical: every pivot pair is at distance zero. *)
  let db = Array.make 10 [| 1.; 1. |] in
  Alcotest.check_raises "no usable line"
    (Invalid_argument "Hash_family.make: all pivot pairs are at distance 0")
    (fun () ->
      ignore
        (Hash_family.make ~rng:(Rng.create 1) ~space:l2 ~num_pivots:5 ~threshold_sample:10 db))

(* -------------------------------------------------------------- Collision *)

let test_collision_closed_forms () =
  check_float "c_k" 0.25 (Collision.c_k 0.5 2);
  check_float "c_k zero power" 1. (Collision.c_k 0.3 0);
  check_float "c_kl single" 0.25 (Collision.c_kl 0.5 ~k:2 ~l:1);
  check_float "c_kl union" (1. -. (0.75 ** 3.)) (Collision.c_kl 0.5 ~k:2 ~l:3);
  check_float "c=1 collides always" 1. (Collision.c_kl 1. ~k:10 ~l:1);
  check_float "c=0 never" 0. (Collision.c_kl 0. ~k:1 ~l:100)

let test_collision_monotonicity () =
  let c = 0.7 in
  for l = 1 to 20 do
    Alcotest.(check bool) "increasing in l" true
      (Collision.c_kl c ~k:5 ~l:(l + 1) >= Collision.c_kl c ~k:5 ~l)
  done;
  for k = 1 to 20 do
    Alcotest.(check bool) "decreasing in k" true
      (Collision.c_kl c ~k:(k + 1) ~l:7 <= Collision.c_kl c ~k ~l:7)
  done

let test_collision_l_for_target () =
  let c = 0.6 and k = 3 in
  (match Collision.l_for_target c ~k ~target:0.9 with
  | None -> Alcotest.fail "should be reachable"
  | Some l ->
      Alcotest.(check bool) "reaches target" true (Collision.c_kl c ~k ~l >= 0.9);
      if l > 1 then
        Alcotest.(check bool) "minimal" true (Collision.c_kl c ~k ~l:(l - 1) < 0.9));
  Alcotest.(check bool) "unreachable when c=0" true
    (Collision.l_for_target 0. ~k:2 ~target:0.5 = None)

let test_collision_estimate_self () =
  let family, db = make_family () in
  let rng = Rng.create 9 in
  check_float "self collision" 1. (Collision.estimate ~rng family db.(0) db.(0))

let test_collision_estimate_range_and_exact () =
  let family, db = make_family () in
  let rng = Rng.create 10 in
  for i = 1 to 10 do
    let c = Collision.estimate ~rng ~num_fns:150 family db.(0) db.(i) in
    Alcotest.(check bool) "in [0,1]" true (c >= 0. && c <= 1.);
    let exact = Collision.estimate_exact family db.(0) db.(i) in
    check_loose 0.15 "sampled approximates exact" exact c
  done

let test_collision_close_pairs_collide_more () =
  (* Collision rate should decrease with distance, on average, in a
     clustered Euclidean space. *)
  let family, db = make_family ~n:400 () in
  let q = db.(0) in
  let others = Array.sub db 1 200 in
  let dists = Array.map (fun x -> Minkowski.l2 q x) others in
  let rates = Array.map (fun x -> Collision.estimate_exact family q x) others in
  let corr = Dbh_util.Stats.pearson dists rates in
  Alcotest.(check bool) "anti-correlated" true (corr < -0.4)

let test_collision_random_matrix_is_half () =
  (* Paper Sec. IV-B: on a random metric distance matrix the collision
     rate hovers near 0.5 regardless of the pair's distance — the family
     is not locality sensitive. *)
  let rng = Rng.create 11 in
  let n = 120 in
  let m = Space.random_metric_matrix rng n in
  let space = Space.of_matrix m in
  let db = Array.init n (fun i -> i) in
  let family = Hash_family.make ~rng ~space ~num_pivots:30 ~threshold_sample:100 db in
  let rates = ref [] in
  for i = 40 to 59 do
    for j = 60 to 79 do
      rates := Collision.estimate_exact family i j :: !rates
    done
  done;
  let rates = Array.of_list !rates in
  check_loose 0.05 "mean rate ~ 0.5" 0.5 (Dbh_util.Stats.mean rates);
  (* And distance explains almost none of the variance. *)
  let dists = ref [] in
  for i = 40 to 59 do
    for j = 60 to 79 do
      dists := m.(i).(j) :: !dists
    done
  done;
  let corr = Dbh_util.Stats.pearson (Array.of_list !dists) rates in
  Alcotest.(check bool) "uninformative distances" true (Float.abs corr < 0.3)

let test_pairwise_matrix () =
  let family, db = make_family () in
  let rng = Rng.create 12 in
  let sample = Array.sub db 0 10 in
  let m = Collision.pairwise_matrix ~rng ~num_fns:100 family sample in
  for i = 0 to 9 do
    check_float "diag" 1. m.(i).(i);
    for j = 0 to 9 do
      check_float "symmetric" m.(i).(j) m.(j).(i)
    done
  done

let test_collision_closed_form_matches_simulation () =
  (* Eq. 9/10 against the real machinery: draw many (k,l) indexes over a
     small database and check that the fraction of draws in which a fixed
     pair collides in >= 1 table matches 1 - (1 - C^k)^l. *)
  let family, db = make_family ~n:200 () in
  let x1 = db.(0) and x2 = db.(1) in
  let c = Collision.estimate_exact family x1 x2 in
  let k = 3 and l = 4 in
  let trials = 400 in
  let rng = Rng.create 555 in
  let collided = ref 0 in
  for _ = 1 to trials do
    (* Simulate the index's function draw directly on the pair. *)
    let one_table_collides () =
      let fns = Hash_family.sample_fn_indices ~rng family k in
      Array.for_all
        (fun i -> Hash_family.eval_direct family x1 i = Hash_family.eval_direct family x2 i)
        fns
    in
    let rec any_table t = t < l && (one_table_collides () || any_table (t + 1)) in
    if any_table 0 then incr collided
  done;
  let simulated = float_of_int !collided /. float_of_int trials in
  let predicted = Collision.c_kl c ~k ~l in
  (* Binomial noise at 400 trials: allow a generous band. *)
  check_loose 0.08
    (Printf.sprintf "simulated %.3f vs predicted %.3f" simulated predicted)
    predicted simulated

(* --------------------------------------------------------------- Analysis *)

let make_analysis ?(seed = 20) ?(n = 400) ?(queries = 60) () =
  let db = test_db seed n in
  let rng = Rng.create (seed + 1) in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:25 ~threshold_sample:200 db in
  let query_indices = Rng.sample_indices rng queries n in
  let pivot_table = Hash_family.pivot_table family db in
  let analysis =
    Analysis.build ~rng ~family ~db ~pivot_table ~query_indices ~num_fns:200 ~db_sample:200 ()
  in
  (analysis, family, db, query_indices)

let test_analysis_shapes () =
  let analysis, family, db, query_indices = make_analysis () in
  Alcotest.(check int) "queries" 60 (Analysis.num_queries analysis);
  Alcotest.(check int) "db size" (Array.length db) (Analysis.db_size analysis);
  ignore family;
  ignore query_indices

let test_analysis_accuracy_monotone () =
  let analysis, _, _, _ = make_analysis () in
  for l = 1 to 15 do
    Alcotest.(check bool) "acc up in l" true
      (Analysis.accuracy analysis ~k:4 ~l:(l + 1) >= Analysis.accuracy analysis ~k:4 ~l -. 1e-12)
  done;
  for k = 1 to 15 do
    Alcotest.(check bool) "acc down in k" true
      (Analysis.accuracy analysis ~k:(k + 1) ~l:5 <= Analysis.accuracy analysis ~k ~l:5 +. 1e-12)
  done

let test_analysis_lookup_monotone_and_bounded () =
  let analysis, _, _, _ = make_analysis () in
  for l = 1 to 15 do
    Alcotest.(check bool) "lookup up in l" true
      (Analysis.lookup_cost analysis ~k:4 ~l:(l + 1)
      >= Analysis.lookup_cost analysis ~k:4 ~l -. 1e-9)
  done;
  let full = Analysis.lookup_cost analysis ~k:1 ~l:500 in
  Alcotest.(check bool) "bounded by db size" true
    (full <= float_of_int (Analysis.db_size analysis) +. 1e-6)

let test_analysis_hash_cost_bounds () =
  let analysis, family, _, _ = make_analysis () in
  let m = float_of_int (Hash_family.num_pivots family) in
  Alcotest.(check bool) "small kl small cost" true (Analysis.hash_cost analysis ~k:1 ~l:1 <= 2.01);
  Alcotest.(check bool) "bounded by pivots" true
    (Analysis.hash_cost analysis ~k:30 ~l:1000 <= m +. 1e-6);
  Alcotest.(check bool) "monotone" true
    (Analysis.hash_cost analysis ~k:4 ~l:10 >= Analysis.hash_cost analysis ~k:4 ~l:2 -. 1e-9)

let test_analysis_hash_cost_upper_bounds () =
  (* Sec. V-B: HashCost <= min(2·k·l, |X_small|), also in expectation. *)
  let analysis, family, _, _ = make_analysis () in
  let m = float_of_int (Hash_family.num_pivots family) in
  let rng = Rng.create 3210 in
  for _ = 1 to 50 do
    let k = 1 + Rng.int rng 30 and l = 1 + Rng.int rng 200 in
    let h = Analysis.hash_cost analysis ~k ~l in
    Alcotest.(check bool) "<= 2kl" true (h <= (2. *. float_of_int (k * l)) +. 1e-9);
    Alcotest.(check bool) "<= pivots" true (h <= m +. 1e-9);
    Alcotest.(check bool) "nonnegative" true (h >= 0.)
  done

let test_analysis_nn_collision_high () =
  (* Nearest neighbors collide much more often than random pairs. *)
  let analysis, _, _, _ = make_analysis () in
  let rates = Array.init (Analysis.num_queries analysis) (Analysis.nn_collision analysis) in
  Alcotest.(check bool) "nn collision > 0.6 on average" true
    (Dbh_util.Stats.mean rates > 0.6)

let test_analysis_restrict () =
  let analysis, _, _, _ = make_analysis () in
  let all = Array.init (Analysis.num_queries analysis) (fun i -> i) in
  let whole = Analysis.restrict analysis all in
  check_float "restrict to all = same accuracy"
    (Analysis.accuracy analysis ~k:5 ~l:10)
    (Analysis.accuracy whole ~k:5 ~l:10);
  let half = Analysis.restrict analysis (Array.sub all 0 30) in
  Alcotest.(check int) "half size" 30 (Analysis.num_queries half)

(* A credited model prices the union of the credited levels and the
   level asked about (Eq. 10): accuracy per sample query in closed form,
   lookups between the larger level's and the sum of both, hashing over
   every draw; order of crediting and restriction change nothing. *)
let test_analysis_credit () =
  let analysis, _, _, _ = make_analysis () in
  let credited = Analysis.credit analysis ~k:6 ~l:4 in
  let nq = Analysis.num_queries analysis in
  let closed =
    Dbh_util.Stats.mean
      (Array.init nq (fun i ->
           let c = Analysis.nn_collision analysis i in
           1. -. ((1. -. Collision.c_kl c ~k:6 ~l:4) *. (1. -. Collision.c_kl c ~k:9 ~l:7))))
  in
  check_float "accuracy = 1 - product of misses" closed (Analysis.accuracy credited ~k:9 ~l:7);
  let one = Analysis.lookup_cost analysis ~k:6 ~l:4 in
  let two = Analysis.lookup_cost analysis ~k:9 ~l:7 in
  let union = Analysis.lookup_cost credited ~k:9 ~l:7 in
  Alcotest.(check bool)
    (Printf.sprintf "lookups %.2f within [%.2f, %.2f]" union (Float.max one two) (one +. two))
    true
    (union >= Float.max one two -. 1e-9 && union <= one +. two +. 1e-9);
  check_float "hash cost over all 24 + 63 draws" (Analysis.hash_cost analysis ~k:3 ~l:29)
    (Analysis.hash_cost credited ~k:9 ~l:7);
  let both = Analysis.credit credited ~k:9 ~l:7 in
  let swapped = Analysis.credit (Analysis.credit analysis ~k:9 ~l:7) ~k:6 ~l:4 in
  check_float "crediting order" (Analysis.accuracy both ~k:4 ~l:2)
    (Analysis.accuracy swapped ~k:4 ~l:2);
  let half = Array.init (nq / 2) (fun i -> 2 * i) in
  check_float "restrict keeps the credit"
    (Analysis.accuracy (Analysis.credit (Analysis.restrict analysis half) ~k:6 ~l:4) ~k:9 ~l:7)
    (Analysis.accuracy (Analysis.restrict credited half) ~k:9 ~l:7);
  Alcotest.check_raises "l = 0" (Invalid_argument "Analysis.credit: k and l must be positive")
    (fun () -> ignore (Analysis.credit analysis ~k:3 ~l:0))

let test_analysis_order () =
  let analysis, _, _, _ = make_analysis () in
  let order = Analysis.queries_by_nn_distance analysis in
  for i = 0 to Array.length order - 2 do
    Alcotest.(check bool) "sorted by nn distance" true
      (Analysis.nn_distance analysis order.(i) <= Analysis.nn_distance analysis order.(i + 1))
  done

let test_analysis_ground_truth_override () =
  let db = test_db 33 100 in
  let rng = Rng.create 34 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:10 ~threshold_sample:50 db in
  let query_indices = [| 0; 1 |] in
  let gt = [| (5, 0.25); (7, 0.5) |] in
  let analysis =
    Analysis.build ~rng ~family ~db ~pivot_table:(Hash_family.pivot_table family db)
      ~query_indices ~ground_truth:gt ~num_fns:50 ~db_sample:50 ()
  in
  check_float "nn distance passed through" 0.25 (Analysis.nn_distance analysis 0);
  check_float "nn distance passed through 2" 0.5 (Analysis.nn_distance analysis 1)

(* A sample query at +∞ from every other object has no nearest
   neighbour: the build names it before any signature reads db.(-1).
   The pivot table refuses +∞, so its row 40 is a finite stand-in's;
   the scan pays the object's own distances. *)
let test_analysis_no_finite_distance () =
  let db = test_db 35 40 in
  let rng = Rng.create 36 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:8 ~threshold_sample:40 db in
  let pivot_table = Hash_family.pivot_table family (Array.append db [| db.(0) |]) in
  let db = Array.append db [| [| infinity; 0.; 0.; 0. |] |] in
  Alcotest.check_raises "the query is named"
    (Invalid_argument
       "Analysis.build: sample query 40 has no finite distance to any other object")
    (fun () ->
      ignore
        (Analysis.build ~rng ~family ~db ~pivot_table
           ~query_indices:[| 40; 0; 1 |] ~num_fns:50 ~db_sample:40 ()))

(* ----------------------------------------------------------------- Params *)

let test_params_min_l_matches_scan () =
  let analysis, _, _, _ = make_analysis () in
  List.iter
    (fun (k, target) ->
      let binary = Params.min_l_for_accuracy analysis ~k ~target ~l_max:200 in
      (* Linear scan reference. *)
      let rec scan l =
        if l > 200 then None
        else if Analysis.accuracy analysis ~k ~l >= target then Some l
        else scan (l + 1)
      in
      Alcotest.(check (option int)) "binary = linear" (scan 1) binary)
    [ (2, 0.8); (5, 0.9); (8, 0.95); (3, 0.99) ]

let test_params_optimize_feasible () =
  let analysis, _, _, _ = make_analysis () in
  match Params.optimize analysis ~target_accuracy:0.9 ~k_max:15 ~l_max:300 () with
  | None -> Alcotest.fail "should find parameters"
  | Some c ->
      Alcotest.(check bool) "meets target" true (c.Params.predicted_accuracy >= 0.9);
      Alcotest.(check bool) "positive cost" true (c.Params.predicted_cost > 0.);
      (* No k in the landscape beats the winner. *)
      let choices = Params.landscape analysis ~target_accuracy:0.9 ~k_max:15 ~l_max:300 () in
      Array.iter
        (fun c' ->
          Alcotest.(check bool) "optimal" true
            (c.Params.predicted_cost <= c'.Params.predicted_cost +. 1e-9))
        choices

(* The lean rule: within (1 + slack) of the distance optimum's predicted
   cost, the fewest tables; more slack never buys more tables. *)
let test_params_slack () =
  let analysis, _, _, _ = make_analysis () in
  let plan slack =
    match Params.optimize ~slack analysis ~target_accuracy:0.9 ~k_max:15 ~l_max:300 () with
    | Some c -> c
    | None -> Alcotest.failf "slack %g: should find parameters" slack
  in
  let optimum = plan 0. in
  let choices = Params.landscape analysis ~target_accuracy:0.9 ~k_max:15 ~l_max:300 () in
  let last =
    List.fold_left
      (fun prev_l slack ->
        let c = plan slack in
        let bound = (1. +. slack) *. optimum.Params.predicted_cost in
        let name what = Printf.sprintf "slack %g: %s" slack what in
        Alcotest.(check bool) (name "meets target") true (c.Params.predicted_accuracy >= 0.9);
        Alcotest.(check bool) (name "cost within slack") true (c.Params.predicted_cost <= bound);
        Alcotest.(check bool) (name "no more tables than the optimum") true
          (c.Params.l <= optimum.Params.l);
        Alcotest.(check bool) (name "l never rises with slack") true (c.Params.l <= prev_l);
        Array.iter
          (fun c' ->
            if c'.Params.predicted_cost <= bound then
              Alcotest.(check bool) (name "fewest tables within the bound") true
                (c.Params.l <= c'.Params.l))
          choices;
        c.Params.l)
      optimum.Params.l [ 0.01; 0.03; 0.1; 0.3 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "slack 0.3 saves tables (%d < %d)" last optimum.Params.l)
    true (last < optimum.Params.l);
  List.iter
    (fun slack ->
      Alcotest.check_raises (Printf.sprintf "slack %g" slack)
        (Invalid_argument "Params: slack must be finite and non-negative") (fun () ->
          ignore (Params.optimize ~slack analysis ~target_accuracy:0.9 ())))
    [ -0.01; Float.nan; Float.infinity ]

let test_params_unreachable () =
  let analysis, _, _, _ = make_analysis () in
  (* l_max=1 with big k: accuracy can't reach 0.999. *)
  Alcotest.(check bool) "unreachable" true
    (Params.optimize analysis ~target_accuracy:0.9999 ~k_min:25 ~k_max:30 ~l_max:1 () = None)

let test_params_rejects_bad_target () =
  let analysis, _, _, _ = make_analysis () in
  Alcotest.check_raises "target 1.0"
    (Invalid_argument "Params: target accuracy must lie in [0, 1)")
    (fun () -> ignore (Params.optimize analysis ~target_accuracy:1.0 ()))

(* ------------------------------------------------------------------ Index *)

let test_index_build_and_query () =
  let db = test_db 40 500 in
  let rng = Rng.create 41 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:25 ~threshold_sample:200 db in
  let index = Index.build ~rng ~family ~db ~k:6 ~l:8 () in
  Alcotest.(check int) "k" 6 (Index.k index);
  Alcotest.(check int) "l" 8 (Index.l index);
  let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.02 db.(17) in
  let r = Index.search index q in
  (match r.Index.nn with
  | None -> Alcotest.fail "expected a neighbor"
  | Some (idx, d) ->
      Alcotest.(check bool) "valid id" true (idx >= 0 && idx < 500);
      check_loose 1e-9 "distance recomputes" (Minkowski.l2 q db.(idx)) d);
  Alcotest.(check bool) "hash cost bounded" true
    (r.Index.stats.Index.hash_cost <= Hash_family.num_pivots family);
  Alcotest.(check bool) "lookup cost positive" true (r.Index.stats.Index.lookup_cost >= 0);
  Alcotest.(check int) "probes = l" 8 r.Index.stats.Index.probes

let test_index_query_is_min_of_candidates () =
  (* The returned neighbor must be the distance-minimal candidate. *)
  let db = test_db 42 300 in
  let rng = Rng.create 43 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:150 db in
  let index = Index.build ~rng ~family ~db ~k:4 ~l:6 () in
  for t = 0 to 20 do
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.1 db.(t * 7) in
    let scratch = Scratch.create () in
    Scratch.ensure scratch 300;
    Index.candidates_into index q ~scratch;
    let cands = Scratch.to_list scratch in
    let r = Index.search index q in
    match (r.Index.nn, cands) with
    | None, [] -> ()
    | None, _ :: _ -> Alcotest.fail "candidates but no answer"
    | Some _, [] -> Alcotest.fail "answer but no candidates"
    | Some (idx, d), cands ->
        let best =
          List.fold_left (fun acc c -> Float.min acc (Minkowski.l2 q db.(c))) infinity cands
        in
        check_loose 1e-9 "minimum over candidates" best d;
        Alcotest.(check bool) "answer among candidates" true (List.mem idx cands);
        Alcotest.(check int) "lookup = #candidates" (List.length cands)
          r.Index.stats.Index.lookup_cost
  done

let test_index_self_query_finds_self () =
  (* A database object always collides with itself in every table. *)
  let db = test_db 44 200 in
  let rng = Rng.create 45 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:15 ~threshold_sample:100 db in
  let index = Index.build ~rng ~family ~db ~k:5 ~l:4 () in
  for i = 0 to 30 do
    let r = Index.search index db.(i) in
    match r.Index.nn with
    | Some (_, d) -> check_loose 1e-9 "zero distance" 0. d
    | None -> Alcotest.fail "self must collide"
  done

let test_index_candidates_into_dedupes () =
  let db = test_db 46 200 in
  let rng = Rng.create 47 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:15 ~threshold_sample:100 db in
  let index = Index.build ~rng ~family ~db ~k:3 ~l:10 () in
  let q = db.(5) in
  let scratch = Scratch.create () in
  Scratch.ensure scratch 200;
  Index.candidates_into index q ~scratch;
  let first = Scratch.to_list scratch in
  let sorted = List.sort_uniq compare first in
  Alcotest.(check int) "no duplicates" (List.length sorted) (List.length first);
  (* Second pass with the same seen mask yields nothing new. *)
  Index.candidates_into index q ~scratch;
  Alcotest.(check int) "already seen" (List.length first) (Scratch.count scratch)

let test_index_knn () =
  let db = test_db 48 300 in
  let rng = Rng.create 49 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:150 db in
  let index = Index.build ~rng ~family ~db ~k:3 ~l:12 () in
  let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(10) in
  let knn, _stats = Index.query_knn index 5 q in
  Alcotest.(check bool) "at most 5" true (Array.length knn <= 5);
  for i = 0 to Array.length knn - 2 do
    Alcotest.(check bool) "sorted" true (snd knn.(i) <= snd knn.(i + 1))
  done;
  (* First k-NN element agrees with plain query. *)
  let r = Index.search index q in
  (match (r.Index.nn, Array.length knn) with
  | Some (_, d), n when n > 0 -> check_loose 1e-9 "same best" d (snd knn.(0))
  | None, 0 -> ()
  | _ -> Alcotest.fail "inconsistent")

let test_index_range () =
  let db = test_db 50 300 in
  let rng = Rng.create 51 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:150 db in
  let index = Index.build ~rng ~family ~db ~k:3 ~l:12 () in
  let q = db.(20) in
  let hits, _ = Index.query_range index 0.3 q in
  List.iter (fun (_, d) -> Alcotest.(check bool) "within radius" true (d <= 0.3)) hits;
  let sorted = List.map snd hits in
  Alcotest.(check (list (float 1e-12))) "sorted" (List.sort compare sorted) sorted

let test_index_empty_buckets_consistent () =
  (* With k large and a single table, most far-away queries hit an empty
     bucket; the result must be None with zero lookup cost (never a stale
     or fabricated answer). *)
  let db = test_db 56 10 in
  let rng = Rng.create 57 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:8 ~threshold_sample:10 db in
  let index = Index.build ~rng ~family ~db ~k:28 ~l:1 () in
  let none_seen = ref 0 in
  for i = 0 to 30 do
    let q = Array.make 4 (100. +. float_of_int i) in
    let r = Index.search index q in
    match r.Index.nn with
    | None ->
        incr none_seen;
        Alcotest.(check int) "no lookups on empty bucket" 0 r.Index.stats.Index.lookup_cost
    | Some (idx, d) ->
        Alcotest.(check bool) "valid" true (idx >= 0 && idx < 10 && d > 0.)
  done;
  Alcotest.(check bool) "far queries mostly miss" true (!none_seen > 0)

let test_index_single_object_db () =
  let db = [| [| 1.; 2.; 3.; 4. |]; [| 1.1; 2.; 3.; 4. |] |] in
  let rng = Rng.create 58 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:2 ~threshold_sample:2 db in
  let index = Index.build ~rng ~family ~db ~k:1 ~l:2 () in
  match (Index.search index db.(0)).Index.nn with
  | Some (_, d) -> check_loose 1e-12 "self" 0. d
  | None -> Alcotest.fail "tiny db must still self-collide"

let test_index_rejects_bad_k () =
  let db = test_db 52 50 in
  let rng = Rng.create 53 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:10 ~threshold_sample:50 db in
  Alcotest.check_raises "k too large" (Invalid_argument "Index.build: k must be in [1, 62]")
    (fun () -> ignore (Index.build ~rng ~family ~db ~k:63 ~l:1 ()))

let test_index_bucket_diagnostics () =
  let db = test_db 54 300 in
  let rng = Rng.create 55 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:20 ~threshold_sample:150 db in
  let index = Index.build ~rng ~family ~db ~k:4 ~l:3 () in
  Alcotest.(check bool) "some buckets" true (Index.bucket_count index > 0);
  Alcotest.(check bool) "bucket within db" true
    (Index.largest_bucket index >= 1 && Index.largest_bucket index <= 300)

let test_index_stats_arithmetic () =
  let a = { Index.hash_cost = 3; lookup_cost = 4; probes = 2 } in
  let b = { Index.hash_cost = 1; lookup_cost = 2; probes = 5 } in
  Alcotest.(check int) "total" 7 (Index.total_cost a);
  let s = Index.add_stats a b in
  Alcotest.(check int) "sum hash" 4 s.Index.hash_cost;
  Alcotest.(check int) "sum lookup" 6 s.Index.lookup_cost;
  Alcotest.(check int) "sum probes" 7 s.Index.probes

(* ------------------------------------------------------------ Hierarchical *)

let make_hier ?(seed = 60) ?(target = 0.9) () =
  let db = test_db seed 500 in
  let rng = Rng.create (seed + 1) in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:25 ~threshold_sample:200 db in
  let query_indices = Rng.sample_indices rng 80 500 in
  let pivot_table = Hash_family.pivot_table family db in
  let analysis =
    Analysis.build ~rng ~family ~db ~pivot_table ~query_indices ~num_fns:200 ~db_sample:200 ()
  in
  let h =
    Hierarchical.build ~rng ~family ~db ~analysis ~target_accuracy:target ~levels:4
      ~k_max:15 ~l_max:200 ()
  in
  (h, db, rng)

let test_hier_levels () =
  let h, _, _ = make_hier () in
  let levels = Hierarchical.levels h in
  Alcotest.(check int) "levels" 4 (Array.length levels);
  (* Thresholds are non-decreasing across strata. *)
  for i = 0 to Array.length levels - 2 do
    Alcotest.(check bool) "monotone thresholds" true
      (levels.(i).Hierarchical.d_threshold <= levels.(i + 1).Hierarchical.d_threshold)
  done

let test_hier_query_valid () =
  let h, db, rng = make_hier () in
  for t = 0 to 30 do
    ignore t;
    let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(Rng.int rng 500) in
    let r = Hierarchical.search h q in
    let levels_probed = r.Index.levels_probed in
    Alcotest.(check bool) "probed >= 1" true (levels_probed >= 1 && levels_probed <= 4);
    match r.Index.nn with
    | None -> Alcotest.fail "expected neighbor"
    | Some (idx, d) -> check_loose 1e-9 "distance valid" (Minkowski.l2 q db.(idx)) d
  done

let test_hier_early_exit_close_queries () =
  (* Queries identical to database objects hit distance 0 <= D_1 and must
     stop at the first level. *)
  let h, db, _ = make_hier () in
  let r = Hierarchical.search h db.(3) in
  let levels_probed = r.Index.levels_probed in
  (match r.Index.nn with
  | Some (_, d) -> check_loose 1e-9 "found itself" 0. d
  | None -> Alcotest.fail "self must collide");
  Alcotest.(check int) "stopped immediately" 1 levels_probed

let test_hier_rejects_too_many_levels () =
  let db = test_db 61 100 in
  let rng = Rng.create 62 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:10 ~threshold_sample:50 db in
  let query_indices = Rng.sample_indices rng 3 100 in
  let pivot_table = Hash_family.pivot_table family db in
  let analysis =
    Analysis.build ~rng ~family ~db ~pivot_table ~query_indices ~num_fns:50 ~db_sample:50 ()
  in
  Alcotest.check_raises "levels > queries"
    (Invalid_argument "Hierarchical.build: fewer sample queries than levels")
    (fun () ->
      ignore
        (Hierarchical.build ~rng ~family ~db ~analysis ~target_accuracy:0.9 ~levels:5 ()))

(* ---------------------------------------------------------------- Builder *)

let test_builder_auto () =
  let db = test_db 70 400 in
  let rng = Rng.create 71 in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }
  in
  let h = Builder.auto ~rng ~space:l2 ~config ~target_accuracy:0.85 db in
  let q = Dbh_datasets.Vectors.perturb ~rng ~sigma:0.05 db.(0) in
  match (Hierarchical.search h q).Index.nn with
  | Some _ -> ()
  | None -> Alcotest.fail "auto index answers queries"

let test_builder_prepared_reuse () =
  let db = test_db 72 400 in
  let rng = Rng.create 73 in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }
  in
  let prepared = Builder.prepare ~rng ~space:l2 ~config db in
  (* One prepared serves multiple targets and both flavours. *)
  (match Builder.single ~rng ~prepared ~db ~target_accuracy:0.8 ~config () with
  | Some (index, choice) ->
      Alcotest.(check bool) "accuracy >= target" true
        (choice.Params.predicted_accuracy >= 0.8);
      ignore (Index.search index db.(0))
  | None -> Alcotest.fail "0.8 should be reachable");
  let h = Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config () in
  ignore (Hierarchical.search h db.(1))

(* A Euclidean space whose every distance to or from [bad] is NaN. *)
let nan_from bad =
  Space.make ~name:"l2-nan-from-one" (fun a b ->
      if a == bad || b == bad then nan else l2.Space.distance a b)

let test_builder_rejects_nan_from_any_object () =
  (* Every object's pivot distances key the tables, so a NaN from any
     object fails the build: from one of the 12 threshold-sample
     objects, a pivot, or one of the others, which the family never
     projects. *)
  let db = test_db 74 30 in
  let config =
    {
      Builder.default_config with
      num_pivots = 6;
      threshold_sample = 12;
      num_sample_queries = 5;
      num_fns = 20;
      db_sample = 10;
    }
  in
  Array.iteri
    (fun i bad ->
      match Builder.prepare ~rng:(Rng.create 75) ~space:(nan_from bad) ~config db with
      | exception Invalid_argument msg ->
          Alcotest.(check string)
            (Printf.sprintf "NaN from object %d" i)
            "Hash_family.make: distance function returned NaN or a negative value" msg
      | _ -> Alcotest.failf "a NaN from object %d built silently" i)
    db

(* A Euclidean space whose distance between [a] and [b], in either
   order, is +∞. *)
let inf_between a b =
  Space.make ~name:"l2-inf-one-pair" (fun x y ->
      if (x == a && y == b) || (x == b && y == a) then infinity
      else l2.Space.distance x y)

let test_builder_rejects_infinity () =
  (* A projection through a +∞ pivot distance is ∞ − ∞ = NaN, so one
     infinite distance between an object and a pivot fails the build,
     with a message of its own.  The same seed draws the same pivots
     whatever the distances, so the pair is known in advance. *)
  let db = test_db 77 30 in
  let config =
    {
      Builder.default_config with
      num_pivots = 6;
      threshold_sample = 12;
      num_sample_queries = 5;
      num_fns = 20;
      db_sample = 10;
    }
  in
  let prepare space = Builder.prepare ~rng:(Rng.create 78) ~space ~config db in
  let pivots = Hash_family.pivots (prepare l2).Builder.family in
  let other =
    match List.find_opt (fun x -> not (Array.memq x pivots)) (Array.to_list db) with
    | Some x -> x
    | None -> Alcotest.fail "every object is a pivot"
  in
  match prepare (inf_between other pivots.(0)) with
  | exception Invalid_argument msg ->
      Alcotest.(check string) "named as infinity"
        "Hash_family.make: distance function returned infinity" msg
  | _ -> Alcotest.fail "an infinite pivot distance built silently"

let test_builder_distance_bill () =
  (* A build pays for its pivot distances once, in the pivot table:
     the family's fit, the model's signatures and the tables read it,
     and the sample queries' nearest-neighbour scans pay the rest. *)
  let n = 120 and m = 10 and s = 30 and q = 8 in
  let db = test_db 76 n in
  let config =
    {
      Builder.default_config with
      num_pivots = m;
      threshold_sample = s;
      num_sample_queries = q;
      num_fns = 40;
      db_sample = 40;
    }
  in
  let counted, counter = Space.with_counter l2 in
  let bill = (n * m) + (q * (n - 1)) in
  let rng = Rng.create 77 in
  let prepared = Builder.prepare ~rng ~space:counted ~config db in
  Alcotest.(check int) "prepare: n·m + |Q|·(n-1)" bill (Space.count counter);
  Space.reset counter;
  ignore (Builder.hierarchical ~rng ~prepared ~db ~target_accuracy:0.9 ~config ());
  Alcotest.(check int) "tables read the pivot table" 0 (Space.count counter);
  (* Standalone, the family pays the sample rows and the pivot pairs
     only, never the database's table. *)
  Space.reset counter;
  ignore
    (Hash_family.make ~rng:(Rng.create 79) ~space:counted ~num_pivots:m ~threshold_sample:s db);
  Alcotest.(check int) "make: m·s + C(m,2)" ((m * s) + (m * (m - 1) / 2)) (Space.count counter)

(* The builder's family fit reads the pivot table, a standalone [make]
   computes its own distances: the two build the same family, byte for
   byte, with and without a cap.  The digests pin [make]'s family. *)
let test_make_with_table_differential () =
  let db = test_db 80 120 in
  let bytes family =
    let buf = Buffer.create 4096 in
    Hash_family.write
      ~encode:(fun v ->
        let b = Buffer.create 32 in
        Dbh_util.Binio.write_float_array b v;
        Buffer.contents b)
      buf family;
    Buffer.contents buf
  in
  let md5 family = Digest.to_hex (Digest.string (bytes family)) in
  List.iter
    (fun (name, max_functions, make_md5) ->
      let with_table =
        fst
          (Hash_family.make_with_table ~rng:(Rng.create 81) ~space:l2 ~num_pivots:10
             ~threshold_sample:30 ~max_functions db)
      in
      let standalone =
        Hash_family.make ~rng:(Rng.create 81) ~space:l2 ~num_pivots:10 ~threshold_sample:30
          ?max_functions db
      in
      Alcotest.(check string) (name ^ ": make") make_md5 (md5 standalone);
      Alcotest.(check string)
        (name ^ ": make_with_table = make")
        (bytes standalone) (bytes with_table))
    [
      ("uniform, 20", Some 20, "79f4b5e0f6f5a8620057f8cd9617e87e");
      ("uniform, all", None, "3b19c06318a90aa30421621c3f325e68");
    ]

let () =
  Alcotest.run "dbh_core"
    [
      ( "projection",
        [
          Alcotest.test_case "euclidean exactness" `Quick test_projection_euclidean_exact;
          Alcotest.test_case "endpoints" `Quick test_projection_endpoints;
          Alcotest.test_case "degenerate rejected" `Quick test_projection_degenerate_rejected;
          Alcotest.test_case "formula" `Quick test_project_with_formula;
        ] );
      ( "hash_family",
        [
          Alcotest.test_case "all-pairs size" `Quick test_family_size_all_pairs;
          Alcotest.test_case "max_functions cap" `Quick test_family_max_functions;
          Alcotest.test_case "pivot clamp" `Quick test_family_more_pivots_than_data;
          Alcotest.test_case "balance ~ 0.5" `Quick test_family_balance;
          Alcotest.test_case "cache = direct" `Quick test_family_eval_cache_consistent;
          Alcotest.test_case "cache cost" `Quick test_family_cache_cost_counts_distinct_pivots;
          Alcotest.test_case "realized hash cost" `Quick test_family_hash_cost_realized_via_counter;
          Alcotest.test_case "signature" `Quick test_family_signature;
          Alcotest.test_case "interval validity" `Quick test_family_interval_validity;
          Alcotest.test_case "rejects tiny" `Quick test_family_rejects_tiny;
          Alcotest.test_case "rejects degenerate" `Quick test_family_rejects_degenerate;
        ] );
      ( "collision",
        [
          Alcotest.test_case "closed forms" `Quick test_collision_closed_forms;
          Alcotest.test_case "monotonicity" `Quick test_collision_monotonicity;
          Alcotest.test_case "l_for_target" `Quick test_collision_l_for_target;
          Alcotest.test_case "self = 1" `Quick test_collision_estimate_self;
          Alcotest.test_case "estimate vs exact" `Quick test_collision_estimate_range_and_exact;
          Alcotest.test_case "close pairs collide more" `Quick test_collision_close_pairs_collide_more;
          Alcotest.test_case "random matrix ~ 0.5 (Sec IV-B)" `Quick
            test_collision_random_matrix_is_half;
          Alcotest.test_case "pairwise matrix" `Quick test_pairwise_matrix;
          Alcotest.test_case "closed form = simulation (Eq 9/10)" `Quick
            test_collision_closed_form_matches_simulation;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "shapes" `Quick test_analysis_shapes;
          Alcotest.test_case "accuracy monotone" `Quick test_analysis_accuracy_monotone;
          Alcotest.test_case "lookup monotone+bounded" `Quick test_analysis_lookup_monotone_and_bounded;
          Alcotest.test_case "hash cost bounds" `Quick test_analysis_hash_cost_bounds;
          Alcotest.test_case "hash cost upper bounds (Sec V-B)" `Quick
            test_analysis_hash_cost_upper_bounds;
          Alcotest.test_case "nn collision high" `Quick test_analysis_nn_collision_high;
          Alcotest.test_case "restrict" `Quick test_analysis_restrict;
          Alcotest.test_case "credit prices the cascade (Eq. 10)" `Quick test_analysis_credit;
          Alcotest.test_case "order by nn distance" `Quick test_analysis_order;
          Alcotest.test_case "ground truth override" `Quick test_analysis_ground_truth_override;
          Alcotest.test_case "scan with no finite distance" `Quick
            test_analysis_no_finite_distance;
        ] );
      ( "params",
        [
          Alcotest.test_case "binary search = scan" `Quick test_params_min_l_matches_scan;
          Alcotest.test_case "optimize feasible+optimal" `Quick test_params_optimize_feasible;
          Alcotest.test_case "slack: fewest tables within the bound" `Quick test_params_slack;
          Alcotest.test_case "unreachable" `Quick test_params_unreachable;
          Alcotest.test_case "bad target rejected" `Quick test_params_rejects_bad_target;
        ] );
      ( "index",
        [
          Alcotest.test_case "build and query" `Quick test_index_build_and_query;
          Alcotest.test_case "query = min of candidates" `Quick test_index_query_is_min_of_candidates;
          Alcotest.test_case "self query" `Quick test_index_self_query_finds_self;
          Alcotest.test_case "candidates dedupe" `Quick test_index_candidates_into_dedupes;
          Alcotest.test_case "knn" `Quick test_index_knn;
          Alcotest.test_case "range" `Quick test_index_range;
          Alcotest.test_case "empty buckets consistent" `Quick test_index_empty_buckets_consistent;
          Alcotest.test_case "single object db" `Quick test_index_single_object_db;
          Alcotest.test_case "rejects bad k" `Quick test_index_rejects_bad_k;
          Alcotest.test_case "bucket diagnostics" `Quick test_index_bucket_diagnostics;
          Alcotest.test_case "stats arithmetic" `Quick test_index_stats_arithmetic;
        ] );
      ( "hierarchical",
        [
          Alcotest.test_case "levels" `Quick test_hier_levels;
          Alcotest.test_case "query valid" `Quick test_hier_query_valid;
          Alcotest.test_case "early exit" `Quick test_hier_early_exit_close_queries;
          Alcotest.test_case "rejects too many levels" `Quick test_hier_rejects_too_many_levels;
        ] );
      ( "builder",
        [
          Alcotest.test_case "auto" `Quick test_builder_auto;
          Alcotest.test_case "prepared reuse" `Quick test_builder_prepared_reuse;
          Alcotest.test_case "NaN from any object raises" `Quick
            test_builder_rejects_nan_from_any_object;
          Alcotest.test_case "infinity from one pair raises" `Quick
            test_builder_rejects_infinity;
          Alcotest.test_case "distance bill" `Quick test_builder_distance_bill;
          Alcotest.test_case "make_with_table = make" `Quick test_make_with_table_differential;
        ] );
    ]
