(* Multi-probe query path tests.

   The Hamming layer (Key popcount/distance/ball size) and the
   penalty-ordered probe-sequence generator are checked against naive
   bit-list models by QCheck; on top of them, engine-level properties
   pin what multi-probing may and may not change: extra probes add
   candidates but never hash cost, a query whose probe budget covers
   the whole Hamming ball admits exactly the alive ids of the ball's
   buckets, the probe counter is exactly l * (1 + min(probes - 1,
   ball)), and the default knobs (probes_per_table = 1,
   hamming_radius = 0) — as well as probes without radius — are
   bit-identical to the single-probe engine, sequentially and fanned
   over a pool.  The collision model with probes must dominate the
   plain one and reduce to the paper's closed forms at the defaults. *)

module Rng = Dbh_util.Rng
module Pool = Dbh_util.Pool
module Pen = Dbh_datasets.Pen_digits
module Key = Dbh.Key
module Probe_seq = Dbh.Probe_seq
module Collision = Dbh.Collision
module Index = Dbh.Index
module Hash_family = Dbh.Hash_family
module Hierarchical = Dbh.Hierarchical
module Builder = Dbh.Builder
module Online = Dbh.Online
module Query_opts = Dbh.Query_opts
module Store = Dbh.Store
module Minkowski = Dbh_metrics.Minkowski

let domains =
  match Sys.getenv_opt "DBH_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 1 -> d
      | _ -> invalid_arg "DBH_TEST_DOMAINS must be a positive integer")

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* ------------------------------------------------- naive bit models *)

let count_ones bits = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits

let naive_hamming a b =
  let d = ref 0 in
  Array.iteri (fun i x -> if x <> b.(i) then incr d) a;
  !d

let arb_bits =
  QCheck.Gen.(1 -- Key.max_bits >>= fun w -> array_size (return w) bool)
  |> QCheck.make ~print:(fun bits ->
         String.concat ""
           (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits)))

let popcount_matches_model =
  QCheck.Test.make ~name:"popcount = number of set bits" ~count:500 arb_bits
    (fun bits -> Key.popcount (Key.of_bits bits) = count_ones bits)

let hamming_matches_model =
  QCheck.Test.make ~name:"hamming = differing-bit count" ~count:500
    (QCheck.pair arb_bits arb_bits) (fun (a, b) ->
      let w = max (Array.length a) (Array.length b) in
      let pad bits = Array.append (Array.make (w - Array.length bits) false) bits in
      let a = pad a and b = pad b in
      Key.hamming (Key.of_bits a) (Key.of_bits b) = naive_hamming a b)

let test_hamming_edges () =
  Alcotest.(check int) "popcount zero" 0 (Key.popcount Key.zero);
  Alcotest.(check int) "max radius is 2" 2 Key.max_radius;
  Alcotest.(check int) "radius-0 ball empty" 0 (Key.ball_size ~width:10 ~radius:0);
  Alcotest.(check int) "radius-1 ball = width" 10 (Key.ball_size ~width:10 ~radius:1);
  Alcotest.(check int) "radius-2 ball = w + w(w-1)/2" 55 (Key.ball_size ~width:10 ~radius:2);
  Alcotest.check_raises "radius 3 rejected"
    (Invalid_argument "Key: Hamming radius must be in [0, 2], got 3") (fun () ->
      ignore (Key.ball_size ~width:10 ~radius:3))

(* --------------------------------------------------- probe sequences *)

let arb_probe_case =
  let gen =
    QCheck.Gen.(
      2 -- 12 >>= fun w ->
      0 -- ((1 lsl w) - 1) >>= fun base ->
      0 -- Key.max_radius >>= fun radius ->
      0 -- 70 >>= fun max_probes ->
      array_size (return w) (float_bound_inclusive 10.) >>= fun pen ->
      return (w, base, radius, max_probes, pen))
  in
  QCheck.make
    ~print:(fun (w, base, radius, max_probes, pen) ->
      Printf.sprintf "w=%d base=%d r=%d m=%d pen=[%s]" w base radius max_probes
        (String.concat ";" (Array.to_list (Array.map string_of_float pen))))
    gen

(* [pen.(j)] is the flip penalty of bit j.  The generator reads it as
   [margins.(fns.(j))]; the function ids run backwards here so the
   indirection is exercised. *)
let collect_probes ps ~width ~base ~radius ~max_probes ~pen =
  let out = ref [] in
  let w = Array.length pen in
  let fns = Array.init w (fun j -> w - 1 - j) in
  let margins = Array.init w (fun i -> pen.(w - 1 - i)) in
  Probe_seq.generate ps ~base ~width ~radius ~max_probes ~margins ~fns
    ~emit:(fun k -> out := k :: !out);
  List.rev !out

let probe_seq_is_sound =
  QCheck.Test.make
    ~name:"probe_seq: distinct keys in the ball, penalty-sorted, exact count"
    ~count:500 arb_probe_case (fun (w, base_v, radius, max_probes, pen) ->
      let ps = Probe_seq.create () in
      let base = Key.of_int ~width:w base_v in
      let probes = collect_probes ps ~width:w ~base ~radius ~max_probes ~pen in
      let ball = Key.ball_size ~width:w ~radius in
      let expected = if radius = 0 || max_probes <= 0 then 0 else min max_probes ball in
      let base_bits = Key.to_bits ~width:w base in
      let cost k =
        let bits = Key.to_bits ~width:w k in
        let s = ref 0. in
        Array.iteri (fun j b -> if b <> base_bits.(j) then s := !s +. pen.(j)) bits;
        !s
      in
      let in_ball k =
        let d = Key.hamming base k in
        d >= 1 && d <= radius
      in
      let rec sorted = function
        | a :: (b :: _ as rest) -> cost a <= cost b && sorted rest
        | _ -> true
      in
      List.length probes = expected
      && List.length (List.sort_uniq Key.compare probes) = expected
      && List.for_all in_ball probes
      && (not (List.mem base probes))
      && sorted probes)

let probe_seq_reuse_is_pure =
  QCheck.Test.make ~name:"probe_seq: workspace reuse changes nothing" ~count:200
    arb_probe_case (fun (w, base_v, radius, max_probes, pen) ->
      let base = Key.of_int ~width:w base_v in
      let shared = Probe_seq.create () in
      (* Dirty the shared workspace with an unrelated generation first. *)
      ignore
        (collect_probes shared ~width:12 ~base:(Key.of_int ~width:12 0) ~radius:2
           ~max_probes:30 ~pen:(Array.make 12 1.));
      let fresh = collect_probes (Probe_seq.create ()) ~width:w ~base ~radius ~max_probes ~pen in
      let reused = collect_probes shared ~width:w ~base ~radius ~max_probes ~pen in
      fresh = reused)

(* A warmed workspace emits a whole radius-2 ball at k = 12 (78 keys)
   without a word of allocation: penalties stay in its float arrays. *)
let test_probe_seq_allocates_nothing () =
  let width = 12 and radius = 2 in
  let ball = Key.ball_size ~width ~radius in
  let rng = Rng.create 88 in
  let margins = Array.init 40 (fun _ -> Rng.float rng 3.) in
  let fns = Array.init width (fun j -> (3 * j) + 1) in
  let base = Key.of_int ~width 0xa5c in
  let ps = Probe_seq.create () in
  let emitted = ref 0 in
  let emit _ = incr emitted in
  let generate () =
    Probe_seq.generate ps ~base ~width ~radius ~max_probes:ball ~margins ~fns ~emit
  in
  generate ();
  emitted := 0;
  Gc.minor ();
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    generate ()
  done;
  Gc.minor ();
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "keys emitted" (10_000 * ball) !emitted;
  Alcotest.(check (float 0.)) "minor words over 10,000 generations" 0. words

(* ------------------------------------------------- engine properties *)

let small_workload () =
  let db = Pen.generate_set ~rng:(Rng.create 21) 300 in
  let queries = Pen.generate_set ~rng:(Rng.create 22) 20 in
  let family =
    Hash_family.make ~rng:(Rng.create 23) ~space:Pen.space ~num_pivots:30
      ~threshold_sample:100 db
  in
  let index = Index.build ~rng:(Rng.create 24) ~family ~db ~k:10 ~l:5 () in
  (db, queries, index)

let test_probing_is_superset_and_hash_free () =
  let _, queries, index = small_workload () in
  let opts = Query_opts.multiprobe ~hamming_radius:2 8 in
  Array.iter
    (fun q ->
      let plain = Index.search index q in
      let mp = Index.search ~opts index q in
      Alcotest.(check int) "probing adds no hash distances"
        plain.Index.stats.Index.hash_cost mp.Index.stats.Index.hash_cost;
      Alcotest.(check bool) "probing never drops candidates" true
        (mp.Index.stats.Index.lookup_cost >= plain.Index.stats.Index.lookup_cost);
      match (plain.Index.nn, mp.Index.nn) with
      | None, _ -> ()
      | Some _, None -> Alcotest.fail "multi-probe lost the plain nearest neighbor"
      | Some (_, dp), Some (_, dm) ->
          Alcotest.(check bool) "multi-probe nn at least as close" true (dm <= dp))
    queries

(* A query whose probe budget covers its whole Hamming ball admits
   exactly the alive ids of the buckets within [radius] bit flips of
   its own key in each table, base bucket included: the probe heap
   serves every ball key once, delta buckets and tombstones included.
   The query is a database object, so its own key in a table is the key
   of the bucket that holds it; the keys come from [Index.iter_buckets],
   and [query_range] at an infinite radius returns every admitted
   candidate. *)
let full_ball_admits_the_ball =
  let arb =
    QCheck.make
      ~print:(fun (seed, radius, spare) ->
        Printf.sprintf "seed=%d radius=%d spare=%d" seed radius spare)
      QCheck.Gen.(
        int_bound 10_000 >>= fun seed ->
        1 -- Key.max_radius >>= fun radius ->
        int_bound 10 >>= fun spare -> return (seed, radius, spare))
  in
  QCheck.Test.make ~name:"full-ball query = alive ids of the Hamming ball" ~count:40 arb
    (fun (seed, radius, spare) ->
      let rng = Rng.create seed in
      let vectors n =
        fst (Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:4 ~dim:6 n)
      in
      let db = vectors 160 in
      let family =
        Hash_family.make ~rng ~space:Minkowski.l2_space ~num_pivots:16 ~threshold_sample:80 db
      in
      let k = 3 + Rng.int rng 6 and l = 2 + Rng.int rng 4 in
      let index = Index.build ~rng ~family ~db ~k ~l () in
      (* A live insert delta, and tombstones in base and delta alike. *)
      Array.iter (fun v -> ignore (Index.insert index v)) (vectors 30);
      let store = Index.store index in
      for _ = 1 to 15 do
        Index.delete index (Rng.int rng (Store.length store))
      done;
      let id = Rng.int rng (Store.length store) in
      let own = Array.make l (-1) in
      Index.iter_buckets index (fun table key bucket ->
          if List.mem id bucket then own.(table) <- key);
      let expected = ref [] in
      Index.iter_buckets index (fun table key bucket ->
          let flips = Key.hamming (Key.of_int ~width:k key) (Key.of_int ~width:k own.(table)) in
          if flips <= radius then
            List.iter (fun i -> if Store.is_alive store i then expected := i :: !expected) bucket);
      let ball = Key.ball_size ~width:k ~radius in
      let opts =
        Query_opts.make ~probes_per_table:(1 + ball + spare) ~hamming_radius:radius ()
      in
      let hits, stats = Index.query_range ~opts index infinity (Store.get store id) in
      List.sort compare (List.map fst hits) = List.sort_uniq compare !expected
      && stats.Index.probes = l * (1 + ball))

let test_probe_counter_is_deterministic () =
  let _, queries, index = small_workload () in
  let l = 5 and k = 10 in
  let check ~probes ~radius =
    let opts = Query_opts.make ~probes_per_table:probes ~hamming_radius:radius () in
    let expected =
      if probes > 1 && radius > 0 then
        l * (1 + min (probes - 1) (Key.ball_size ~width:k ~radius))
      else l
    in
    Array.iter
      (fun q ->
        let r = Index.search ~opts index q in
        Alcotest.(check int)
          (Printf.sprintf "probes for p=%d r=%d" probes radius)
          expected r.Index.stats.Index.probes)
      queries
  in
  check ~probes:1 ~radius:0;
  (* 7 extras, fewer than the 55 keys of the radius-2 ball *)
  check ~probes:8 ~radius:2;
  (* 99 extras cover the whole ball: the heap runs dry at 55 *)
  check ~probes:100 ~radius:2;
  (* the radius-1 ball is just k keys; 99 extras cover it *)
  check ~probes:100 ~radius:1

let test_noop_knobs_are_bit_identical () =
  let _, queries, index = small_workload () in
  let base = Array.map (fun q -> Index.search index q) queries in
  let same label opts =
    let got = Array.map (fun q -> Index.search ~opts index q) queries in
    Alcotest.(check bool) label true (got = base)
  in
  same "explicit defaults" (Query_opts.make ~probes_per_table:1 ~hamming_radius:0 ());
  same "probes without radius" (Query_opts.make ~probes_per_table:16 ~hamming_radius:0 ());
  same "radius without probes" (Query_opts.make ~probes_per_table:1 ~hamming_radius:2 ());
  let batch_seq =
    Index.search_batch
      ~opts:(Query_opts.make ~probes_per_table:1 ~hamming_radius:0 ())
      index queries
  in
  Alcotest.(check bool) "sequential batch bit-identical" true (batch_seq = base);
  Pool.with_pool ~domains (fun pool ->
      let batch_par =
        Index.search_batch
          ~opts:(Query_opts.make ~pool ~probes_per_table:1 ~hamming_radius:0 ())
          index queries
      in
      Alcotest.(check bool) "pooled batch bit-identical" true (batch_par = base))

let test_layers_agree_under_probing () =
  (* The same probe knobs must mean the same thing through Hierarchical
     and Online: identical per-level probing semantics, and defaults
     bit-identical to plain search at every layer. *)
  let db = Pen.generate_set ~rng:(Rng.create 25) 300 in
  let queries = Pen.generate_set ~rng:(Rng.create 26) 10 in
  let config =
    {
      Builder.default_config with
      num_pivots = 30;
      threshold_sample = 100;
      num_sample_queries = 60;
      num_fns = 100;
      db_sample = 100;
      levels = 3;
    }
  in
  let prepared = Builder.prepare ~rng:(Rng.create 27) ~space:Pen.space ~config db in
  let hier =
    Builder.hierarchical ~rng:(Rng.create 28) ~prepared ~db ~target_accuracy:0.9 ~config ()
  in
  let online =
    Online.create ~rng:(Rng.create 29) ~space:Pen.space ~config ~target_accuracy:0.9 db
  in
  let mp_opts = Query_opts.multiprobe ~hamming_radius:2 4 in
  let noop = Query_opts.make ~probes_per_table:1 ~hamming_radius:0 () in
  Array.iter
    (fun q ->
      let hp = Hierarchical.search hier q in
      let hn = Hierarchical.search ~opts:noop hier q in
      Alcotest.(check bool) "hierarchical defaults bit-identical" true (hn = hp);
      let hm = Hierarchical.search ~opts:mp_opts hier q in
      Alcotest.(check int) "hierarchical probing adds no hash distances"
        hp.Index.stats.Index.hash_cost hm.Index.stats.Index.hash_cost;
      Alcotest.(check bool) "hierarchical probing never shrinks lookups" true
        (hm.Index.stats.Index.lookup_cost >= hp.Index.stats.Index.lookup_cost);
      let op = Online.search online q in
      let on = Online.search ~opts:noop online q in
      Alcotest.(check bool) "online defaults bit-identical" true (on = op);
      let om = Online.search ~opts:mp_opts online q in
      Alcotest.(check bool) "online probing never shrinks lookups" true
        (om.Online.stats.Index.lookup_cost >= op.Online.stats.Index.lookup_cost))
    queries

let test_knob_validation () =
  let _, queries, index = small_workload () in
  let q = queries.(0) in
  Alcotest.check_raises "probes 0 rejected"
    (Invalid_argument "Index: probes_per_table must be >= 1") (fun () ->
      ignore (Index.search ~opts:(Query_opts.make ~probes_per_table:0 ()) index q));
  Alcotest.check_raises "radius 3 rejected"
    (Invalid_argument "Index: hamming_radius must be in [0, 2]") (fun () ->
      ignore (Index.search ~opts:(Query_opts.make ~hamming_radius:3 ()) index q))

(* --------------------------------------------- extended cost model *)

let arb_model_case =
  let gen =
    QCheck.Gen.(
      float_bound_inclusive 1. >>= fun c ->
      2 -- 20 >>= fun k ->
      1 -- 100 >>= fun probes ->
      0 -- Key.max_radius >>= fun radius -> return (c, k, probes, radius))
  in
  QCheck.make
    ~print:(fun (c, k, p, r) -> Printf.sprintf "c=%g k=%d probes=%d radius=%d" c k p r)
    gen

let probed_model_dominates =
  QCheck.Test.make ~name:"c_k_probed >= c_k, <= 1, monotone in probes" ~count:500
    arb_model_case (fun (c, k, probes, radius) ->
      let base = Collision.c_k c k in
      let p1 = Collision.c_k ~probes ~radius c k in
      let p2 = Collision.c_k ~probes:(probes + 1) ~radius c k in
      p1 >= base && p1 <= 1. && p2 >= p1)

(* Eq. 9, Eq. 10 and the table count they imply, written out: one probe
   per table, or probes without a radius, must give these bit for
   bit. *)
let probed_model_collapses_at_defaults =
  QCheck.Test.make ~name:"probed model = plain model at the defaults" ~count:500
    arb_model_case (fun (c, k, probes, radius) ->
      let ck = c ** float_of_int k in
      let ckl = 1. -. ((1. -. ck) ** 7.) in
      let l90 =
        if ck >= 1. then Some 1
        else if ck <= 0. then None
        else begin
          let l = Float.ceil (log (1. -. 0.9) /. log (1. -. ck)) in
          if Float.is_integer l && l >= 0. && l < 1e9 then Some (max 1 (int_of_float l))
          else None
        end
      in
      Collision.c_k c k = ck
      && Collision.c_kl c ~k ~l:7 = ckl
      && Collision.l_for_target c ~k ~target:0.9 = l90
      && List.for_all
           (fun (probes, radius) ->
             Collision.c_k ~probes ~radius c k = ck
             && Collision.c_kl ~probes ~radius c ~k ~l:7 = ckl
             && Collision.l_for_target ~probes ~radius c ~k ~target:0.9 = l90)
           [ (1, radius); (probes, 0) ])

let probed_model_saves_tables =
  QCheck.Test.make ~name:"l_for_target_probed <= l_for_target" ~count:500 arb_model_case
    (fun (c, k, probes, radius) ->
      match
        ( Collision.l_for_target c ~k ~target:0.9,
          Collision.l_for_target ~probes ~radius c ~k ~target:0.9 )
      with
      | Some plain, Some probed -> probed <= plain
      | None, Some _ | None, None -> true
      | Some _, None -> false)

let probe_split_is_well_formed =
  QCheck.Test.make ~name:"probe_split honours the shell capacities" ~count:500
    arb_model_case (fun (_, k, probes, radius) ->
      let n1, n2 = Collision.probe_split ~k ~probes ~radius in
      n1 >= 0 && n2 >= 0
      && n1 + n2 <= probes - 1
      && n1 <= k
      && n2 <= k * (k - 1) / 2
      && (radius >= 2 || n2 = 0)
      && (radius >= 1 || n1 = 0))

let () =
  Alcotest.run "dbh_multiprobe"
    [
      ( "key hamming",
        Alcotest.test_case "ball edges" `Quick test_hamming_edges
        :: qsuite [ popcount_matches_model; hamming_matches_model ] );
      ( "probe_seq",
        qsuite [ probe_seq_is_sound; probe_seq_reuse_is_pure ]
        @ [
            Alcotest.test_case "warmed generation allocates nothing" `Quick
              test_probe_seq_allocates_nothing;
          ] );
      ( "engine",
        [
          Alcotest.test_case "probing is superset + hash-free" `Quick
            test_probing_is_superset_and_hash_free;
          Alcotest.test_case "probe counter deterministic" `Quick
            test_probe_counter_is_deterministic;
          Alcotest.test_case "no-op knobs bit-identical (seq + pool)" `Quick
            test_noop_knobs_are_bit_identical;
          Alcotest.test_case "hierarchical + online agree" `Slow
            test_layers_agree_under_probing;
          Alcotest.test_case "knob validation" `Quick test_knob_validation;
        ]
        @ qsuite [ full_ball_admits_the_ball ] );
      ( "cost model",
        qsuite
          [
            probed_model_dominates;
            probed_model_collapses_at_defaults;
            probed_model_saves_tables;
            probe_split_is_well_formed;
          ] );
    ]
