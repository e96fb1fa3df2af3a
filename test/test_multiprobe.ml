(* Multi-probe query path tests.

   The Hamming layer (Key popcount/distance/ball enumeration), the
   penalty-ordered probe-sequence generator and the CSR Hamming-range
   scans are each checked against naive bit-list models by QCheck; on
   top of them, engine-level properties pin what multi-probing may and
   may not change: extra probes add candidates but never hash cost, the
   probe counter is exactly l * (1 + min(probes - 1, ball)), and the
   default knobs (probes_per_table = 1, hamming_radius = 0) — as well
   as probes without radius — are bit-identical to the single-probe
   engine, sequentially and fanned over a pool.  The extended collision
   model must dominate the plain one and collapse to it exactly at the
   defaults. *)

module Rng = Dbh_util.Rng
module Pool = Dbh_util.Pool
module Pen = Dbh_datasets.Pen_digits
module Key = Dbh.Key
module Csr = Dbh.Csr
module Probe_seq = Dbh.Probe_seq
module Collision = Dbh.Collision
module Index = Dbh.Index
module Hash_family = Dbh.Hash_family
module Hierarchical = Dbh.Hierarchical
module Builder = Dbh.Builder
module Online = Dbh.Online
module Query_opts = Dbh.Query_opts

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

(* Every width-bit key at Hamming distance in [1, radius] of [center],
   by exhaustive scan of the cube — ascending by construction. *)
let naive_ball ~width ~radius center =
  let cbits = Key.to_bits ~width center in
  let keys = ref [] in
  for v = (1 lsl width) - 1 downto 0 do
    let k = Key.of_int ~width v in
    let d = naive_hamming cbits (Key.to_bits ~width k) in
    if d >= 1 && d <= radius then keys := k :: !keys
  done;
  Array.of_list !keys

let arb_bits =
  QCheck.Gen.(1 -- Key.max_bits >>= fun w -> array_size (return w) bool)
  |> QCheck.make ~print:(fun bits ->
         String.concat ""
           (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits)))

(* (width, key) over cubes small enough to enumerate exhaustively. *)
let arb_small_key =
  QCheck.Gen.(2 -- 12 >>= fun w -> map (fun v -> (w, v)) (0 -- ((1 lsl w) - 1)))
  |> QCheck.make ~print:(fun (w, v) -> Printf.sprintf "width=%d key=%d" w v)

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

let enumerate_matches_model =
  QCheck.Test.make ~name:"enumerate_within = exhaustive cube scan, sorted" ~count:300
    (QCheck.pair arb_small_key (QCheck.make QCheck.Gen.(0 -- Key.max_radius)))
    (fun ((w, v), radius) ->
      let center = Key.of_int ~width:w v in
      let got = Key.enumerate_within ~width:w ~radius center in
      got = naive_ball ~width:w ~radius center
      && Array.length got = Key.ball_size ~width:w ~radius)

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

let collect_probes ps ~width ~base ~radius ~max_probes ~pen =
  let out = ref [] in
  Probe_seq.generate ps ~base ~width ~radius ~max_probes
    ~penalty:(fun j -> pen.(j))
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

(* ------------------------------------------- CSR Hamming-range scans *)

let arb_csr_case =
  let gen =
    QCheck.Gen.(
      2 -- 10 >>= fun w ->
      0 -- ((1 lsl w) - 1) >>= fun center ->
      1 -- Key.max_radius >>= fun radius ->
      int_bound 200 >>= fun n_frozen ->
      int_bound 40 >>= fun n_delta ->
      int_bound 1000 >>= fun seed -> return (w, center, radius, n_frozen, n_delta, seed))
  in
  QCheck.make
    ~print:(fun (w, c, r, nf, nd, seed) ->
      Printf.sprintf "w=%d center=%d r=%d frozen=%d delta=%d seed=%d" w c r nf nd seed)
    gen

let iter_within_equals_per_key_probing =
  QCheck.Test.make ~name:"csr iter_within = union of per-key bucket probes" ~count:300
    arb_csr_case (fun (w, center, radius, n_frozen, n_delta, seed) ->
      let rng = Rng.create seed in
      (* Reference model: every id consed onto its key's list bucket in
         id order, frozen and delta alike (newest first). *)
      let model = Hashtbl.create 32 in
      let model_add key id =
        Hashtbl.replace model key (id :: Option.value ~default:[] (Hashtbl.find_opt model key))
      in
      let keys = Array.init n_frozen (fun _ -> Rng.int rng (1 lsl w)) in
      Array.iteri (fun id key -> model_add key id) keys;
      let table = Csr.of_keys ~ids:(Array.init n_frozen Fun.id) ~keys in
      for id = 0 to n_delta - 1 do
        let key = Rng.int rng (1 lsl w) in
        Csr.add table key (n_frozen + id);
        model_add key (n_frozen + id)
      done;
      let got = ref [] in
      Csr.iter_within table ~width:w ~radius center (fun key id -> got := (key, id) :: !got);
      let ball =
        Key.enumerate_within ~width:w ~radius (Key.of_int ~width:w center) |> Array.to_list
      in
      let expected =
        List.concat_map
          (fun (k : Key.t) ->
            let ids = ref [] in
            Csr.iter_bucket table (k :> int) (fun id -> ids := id :: !ids);
            List.rev_map (fun id -> ((k :> int), id)) !ids)
          ball
      in
      let modelled =
        List.concat_map
          (fun (k : Key.t) ->
            Option.value ~default:[] (Hashtbl.find_opt model (k :> int))
            |> List.map (fun id -> ((k :> int), id)))
          ball
      in
      List.rev !got = expected && expected = modelled)

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
  (* heap path: 7 extras < the 55-key radius-2 ball *)
  check ~probes:8 ~radius:2;
  (* range path: 99 extras cover the whole ball *)
  check ~probes:100 ~radius:2;
  (* radius-1 ball is just k keys; 99 extras cover it *)
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
      let p1 = Collision.c_k_probed c ~k ~probes ~radius in
      let p2 = Collision.c_k_probed c ~k ~probes:(probes + 1) ~radius in
      p1 >= base && p1 <= 1. && p2 >= p1)

let probed_model_collapses_at_defaults =
  QCheck.Test.make ~name:"probed model = plain model at the defaults" ~count:500
    arb_model_case (fun (c, k, probes, radius) ->
      Collision.c_k_probed c ~k ~probes:1 ~radius = Collision.c_k c k
      && Collision.c_k_probed c ~k ~probes ~radius:0 = Collision.c_k c k
      && Collision.c_kl_probed c ~k ~l:7 ~probes:1 ~radius = Collision.c_kl c ~k ~l:7
      && Collision.l_for_target_probed c ~k ~probes:1 ~radius ~target:0.9
         = Collision.l_for_target c ~k ~target:0.9)

let probed_model_saves_tables =
  QCheck.Test.make ~name:"l_for_target_probed <= l_for_target" ~count:500 arb_model_case
    (fun (c, k, probes, radius) ->
      match
        ( Collision.l_for_target c ~k ~target:0.9,
          Collision.l_for_target_probed c ~k ~probes ~radius ~target:0.9 )
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
        :: qsuite [ popcount_matches_model; hamming_matches_model; enumerate_matches_model ]
      );
      ("probe_seq", qsuite [ probe_seq_is_sound; probe_seq_reuse_is_pure ]);
      ("csr ranges", qsuite [ iter_within_equals_per_key_probing ]);
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
        ] );
      ( "cost model",
        qsuite
          [
            probed_model_dominates;
            probed_model_collapses_at_defaults;
            probed_model_saves_tables;
            probe_split_is_well_formed;
          ] );
    ]
