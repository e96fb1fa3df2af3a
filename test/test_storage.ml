(* Storage-engine tests: the compact layout (packed keys, frozen CSR
   tables, each domain's reusable query workspace) must be invisible
   from the outside.

   The centrepiece is a golden diff — a pinned pen-digit/DTW workload
   whose per-query answers, hex-float distances and logical cost
   counters were recorded before the storage refactor
   (test/fixtures/golden_storage.txt); any layout change that perturbs a
   single bit of any answer fails here.  Around it: Key codec
   properties, CSR freeze/compaction invariants fuzzed against fresh
   rebuilds, workspace-reuse equivalence, and migration of a pinned
   pre-refactor (v1) durable directory to the packed v2 snapshot
   format. *)

module Rng = Dbh_util.Rng
module Pool = Dbh_util.Pool
module Binio = Dbh_util.Binio
module Envelope = Dbh_persist.Envelope
module Layout = Dbh_persist.Layout
module Pen = Dbh_datasets.Pen_digits
module Minkowski = Dbh_metrics.Minkowski
module Key = Dbh.Key
module Csr = Dbh.Csr
module Scratch = Dbh.Scratch
module Index = Dbh.Index
module Hash_family = Dbh.Hash_family
module Hierarchical = Dbh.Hierarchical
module Builder = Dbh.Builder
module Online = Dbh.Online
module Durable = Dbh.Online.Durable
module Query_opts = Dbh.Query_opts
module Diagnostics = Dbh.Diagnostics

let domains =
  match Sys.getenv_opt "DBH_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match int_of_string_opt s with
      | Some d when d >= 1 -> d
      | _ -> invalid_arg "DBH_TEST_DOMAINS must be a positive integer")

let l2 = Minkowski.l2_space

(* ------------------------------------------------- golden workload
   Copied verbatim from the one-shot generator that produced
   test/fixtures/golden_storage.txt on the pre-refactor engine, with one
   addition: [slack = 0.] pins the paper's optimizer, which that
   generator ran before the builder's default moved off it.  Do not
   edit without regenerating the fixture. *)

let golden_hier ?pool db =
  let config =
    {
      Builder.default_config with
      num_pivots = 40;
      threshold_sample = 150;
      num_sample_queries = 60;
      num_fns = 120;
      db_sample = 150;
      levels = 3;
      slack = 0.;
    }
  in
  let prepared = Builder.prepare ?pool ~rng:(Rng.create 11) ~space:Pen.space ~config db in
  Builder.hierarchical ?pool ~rng:(Rng.create 12) ~prepared ~db ~target_accuracy:0.9
    ~config ()

let golden_db () = Pen.generate_set ~rng:(Rng.create 7) 300

let golden_workload () =
  let db = golden_db () in
  let queries = Pen.generate_set ~rng:(Rng.create 8) 25 in
  let family =
    Hash_family.make ~rng:(Rng.create 9) ~space:Pen.space ~num_pivots:40
      ~threshold_sample:150 db
  in
  let index = Index.build ~rng:(Rng.create 10) ~family ~db ~k:8 ~l:6 () in
  (queries, index, golden_hier db)

let golden_result_line tag qi (r : _ Index.result) =
  let nn =
    match r.Index.nn with
    | None -> "- -"
    | Some (id, d) -> Printf.sprintf "%d %h" id d
  in
  Printf.sprintf "%s %d %s %d %d %d %d %b" tag qi nn r.Index.stats.Index.hash_cost
    r.Index.stats.Index.lookup_cost r.Index.stats.Index.probes r.Index.levels_probed
    r.Index.truncated

let golden_knn_line qi (hits : (int * float) array) (stats : Index.stats) =
  let hits =
    Array.to_list hits
    |> List.map (fun (id, d) -> Printf.sprintf "%d:%h" id d)
    |> String.concat ","
  in
  Printf.sprintf "knn5 %d [%s] %d %d %d" qi
    (if hits = "" then "-" else hits)
    stats.Index.hash_cost stats.Index.lookup_cost stats.Index.probes

let golden_range_line qi (hits : (int * float) list) (stats : Index.stats) =
  let hits =
    List.map (fun (id, d) -> Printf.sprintf "%d:%h" id d) hits |> String.concat ","
  in
  Printf.sprintf "range %d [%s] %d %d %d" qi
    (if hits = "" then "-" else hits)
    stats.Index.hash_cost stats.Index.lookup_cost stats.Index.probes

let golden_budgeted = Query_opts.budgeted 40
let golden_multi2 = Query_opts.multiprobe 3

let golden_lines (queries, index, hier) =
  let budgeted = golden_budgeted and multi2 = golden_multi2 in
  let lines = ref [] in
  let emit l = lines := l :: !lines in
  Array.iteri
    (fun qi q ->
      emit (golden_result_line "single" qi (Index.search index q));
      emit (golden_result_line "single-b40" qi (Index.search ~opts:budgeted index q));
      emit (golden_result_line "multi2" qi (Index.search ~opts:multi2 index q));
      emit (golden_result_line "budg10" qi (Index.query_budgeted index ~max_candidates:10 q));
      (let hits, stats = Index.query_knn index 5 q in
       emit (golden_knn_line qi hits stats));
      (let hits, stats = Index.query_range index 1.5 q in
       emit (golden_range_line qi hits stats));
      emit (golden_result_line "hier" qi (Hierarchical.search hier q));
      emit (golden_result_line "hier-b40" qi (Hierarchical.search ~opts:budgeted hier q)))
    queries;
  List.rev !lines

(* ------------------------------------------------------ fixture diff *)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      List.rev !lines)

(* Fixtures are declared as test deps, so they sit next to the test
   executable in _build — resolve them there, not via the cwd. *)
let fixture_path name =
  Filename.concat (Filename.concat (Filename.dirname Sys.executable_name) "fixtures") name

let check_against_golden label actual =
  let expected = read_lines (fixture_path "golden_storage.txt") in
  Alcotest.(check int) (label ^ ": line count") (List.length expected) (List.length actual);
  List.iteri
    (fun i (e, a) ->
      if e <> a then
        Alcotest.failf "%s: line %d diverges from golden fixture\nexpected: %s\nactual:   %s"
          label (i + 1) e a)
    (List.combine expected actual)

let test_golden_bit_identity () =
  check_against_golden "golden workload" (golden_lines (golden_workload ()))

(* A query's whole observable outcome under [opts]: answer, stats,
   truncation, levels and its full trace on a frozen clock. *)
let outcome search opts q =
  let trace = Dbh_obs.Trace.create ~clock:(fun () -> 0.) () in
  let (r : _ Index.result) = search { opts with Query_opts.trace = Some trace } q in
  (r.Index.nn, r.Index.stats, r.Index.truncated, r.Index.levels_probed, Dbh_obs.Trace.events trace)

(* Run [f] in a newly spawned domain, whose workspace no query has
   touched. *)
let in_fresh_domain f = Domain.join (Domain.spawn f)

let test_golden_with_shared_scratch () =
  (* Every query works in its domain's one workspace, reused without
     changing a bit.  Dirty this domain's with cascade queries cut short
     at budgets 1..25 (mid-hash included); the golden workload run here
     must still match the fixture, and each golden query must answer,
     cost, truncate and trace exactly as in a freshly spawned domain. *)
  let ((queries, index, hier) as workload) = golden_workload () in
  Array.iteri
    (fun qi q -> ignore (Hierarchical.search ~opts:(Query_opts.budgeted (qi + 1)) hier q))
    queries;
  check_against_golden "dirty workspace" (golden_lines workload);
  let single opts q = Index.search ~opts index q in
  let cascade opts q = Hierarchical.search ~opts hier q in
  List.iter
    (fun (label, search, opts) ->
      Array.iteri
        (fun qi q ->
          if outcome search opts q <> in_fresh_domain (fun () -> outcome search opts q) then
            Alcotest.failf "%s query %d: the dirty workspace changed its outcome" label qi)
        queries)
    [
      ("single", single, Query_opts.default);
      ("single-b40", single, golden_budgeted);
      ("multi2", single, golden_multi2);
      ("hier", cascade, Query_opts.default);
      ("hier-b40", cascade, golden_budgeted);
    ]

let test_golden_batches_match_pool () =
  (* search_batch — sequential and fanned over a pool — must agree with
     the golden per-query "single"/"hier" lines. *)
  let queries, index, hier = golden_workload () in
  let golden = read_lines (fixture_path "golden_storage.txt") in
  let expect tag =
    List.filter (fun l -> String.length l > String.length tag
                          && String.sub l 0 (String.length tag + 1) = tag ^ " ")
      golden
  in
  let check label tag lines =
    List.iteri
      (fun i (e, a) ->
        if e <> a then
          Alcotest.failf "%s: %s query %d diverges\nexpected: %s\nactual:   %s" label tag i
            e a)
      (List.combine (expect tag) lines)
  in
  let run opts =
    let single =
      Index.search_batch ~opts index queries
      |> Array.to_list
      |> List.mapi (fun qi r -> golden_result_line "single" qi r)
    in
    let hier_lines =
      Hierarchical.search_batch ~opts hier queries
      |> Array.to_list
      |> List.mapi (fun qi r -> golden_result_line "hier" qi r)
    in
    (single, hier_lines)
  in
  let s_seq, h_seq = run (Query_opts.make ()) in
  check "sequential batch" "single" s_seq;
  check "sequential batch" "hier" h_seq;
  Pool.with_pool ~domains (fun pool ->
      let s_par, h_par = run (Query_opts.make ~pool ()) in
      check (Printf.sprintf "%d-domain batch" domains) "single" s_par;
      check (Printf.sprintf "%d-domain batch" domains) "hier" h_par)

(* ------------------------------------------------ pinned snapshot bytes
   MD5s of the golden hierarchical index serialized, recorded on the
   engine that keyed objects through per-object hashtables, built
   tables from cons-list buckets, and inserted level by level with a
   fresh pivot cache per level.  How the tables are built and written
   may change; the bytes may not. *)

let golden_packed_md5 = "a57734f296b2515f422d0e117bebc44c"
let golden_v1_md5 = "37c469c6d716c88f12729c2bd239d793"
let golden_after_writes_md5 = "1a77ea246cde6cd23f7368c1db0a86a7"

let encode_pen (p : Pen.instance) =
  let b = Buffer.create 600 in
  Binio.write_int b p.Pen.label;
  Binio.write_float_array b
    (Array.concat
       (Array.to_list
          (Array.map (fun (q : Dbh_metrics.Geom.point) -> [| q.x; q.y |]) p.Pen.points)));
  Buffer.contents b

let snapshot_md5 write hier =
  let buf = Buffer.create 4096 in
  write ~encode:encode_pen buf hier;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* Twenty inserts, every third followed by a delete five ids back. *)
let golden_writes insert hier =
  Array.iteri
    (fun i x ->
      let id = insert hier x in
      if i mod 3 = 0 then Hierarchical.delete hier (id - 5))
    (Pen.generate_set ~rng:(Rng.create 13) 20)

let test_golden_snapshot_digest () =
  let hier = golden_hier (golden_db ()) in
  Alcotest.(check string) "packed (v2) snapshot" golden_packed_md5
    (snapshot_md5 Hierarchical.write_packed hier);
  Alcotest.(check string) "v1 snapshot" golden_v1_md5 (snapshot_md5 Hierarchical.write hier);
  golden_writes Hierarchical.insert hier;
  Alcotest.(check string) "packed snapshot after writes" golden_after_writes_md5
    (snapshot_md5 Hierarchical.write_packed hier)

let test_golden_snapshot_pooled () =
  Pool.with_pool ~domains:4 (fun pool ->
      let hier = golden_hier ~pool (golden_db ()) in
      Alcotest.(check string) "4-domain packed snapshot" golden_packed_md5
        (snapshot_md5 Hierarchical.write_packed hier))

(* The cascade shares one pivot cache across its levels on insert: at
   most one distance per pivot, and tables byte-identical to indexing
   the id level by level through fresh caches. *)
let decode_pen s =
  let r = Binio.reader s in
  let label = Binio.read_int r in
  let xy = Binio.read_float_array r in
  {
    Pen.label;
    points =
      Array.init (Array.length xy / 2) (fun i ->
          Dbh_metrics.Geom.point xy.(2 * i) xy.((2 * i) + 1));
  }

let test_insert_shares_pivot_cache () =
  let buf = Buffer.create 4096 in
  Hierarchical.write_packed ~encode:encode_pen buf (golden_hier (golden_db ()));
  let copy space =
    Hierarchical.read_any ~decode:decode_pen ~space (Binio.reader (Buffer.contents buf))
  in
  let counted_space, counter = Dbh_space.Space.with_counter Pen.space in
  let counted = copy counted_space in
  let levels = Array.length (Hierarchical.levels counted) in
  let pivots = Hash_family.num_pivots (Hierarchical.family counted) in
  Alcotest.(check bool) "cascade has several levels" true (levels > 1);
  Array.iter
    (fun x ->
      Dbh_space.Space.reset counter;
      ignore (Hierarchical.insert counted x);
      let calls = Dbh_space.Space.count counter in
      if calls > pivots then
        Alcotest.failf "insert paid %d distances for %d pivots (%d levels)" calls pivots levels)
    (Pen.generate_set ~rng:(Rng.create 14) 10);
  let shared = copy Pen.space and per_level = copy Pen.space in
  golden_writes Hierarchical.insert shared;
  golden_writes
    (fun h x ->
      let id = Dbh.Store.add (Hierarchical.store h) x in
      Array.iter (fun idx -> Index.index_existing idx id) (Hierarchical.indexes h);
      id)
    per_level;
  Alcotest.(check string) "shared cache = per-level caches, byte for byte"
    (snapshot_md5 Hierarchical.write_packed per_level)
    (snapshot_md5 Hierarchical.write_packed shared)

(* The family-row evaluator is [eval] over the first occurrence of each
   function: same bits, hits and misses, the same pivot events in the
   same order, and under a budget the same point of exhaustion.  A
   second pass over the filled row is free: no pivot event, no budget
   charge, the same bits.  Without a trace, the same bits, hits and
   misses. *)
let test_eval_row_matches_eval () =
  let rng = Rng.create 31 in
  let objs = Array.init 80 (fun _ -> Array.init 4 (fun _ -> Rng.float_in rng (-1.) 1.)) in
  let family =
    Hash_family.make ~rng ~space:l2 ~num_pivots:12 ~threshold_sample:60 objs
  in
  let fn_ids = Array.init 60 (fun _ -> Rng.int rng (Hash_family.size family)) in
  let run ~traced budget_limit evaluate =
    let trace = if traced then Some (Dbh_obs.Trace.create ()) else None in
    let budget = Option.map Dbh.Budget.create budget_limit in
    let cache = Hash_family.cache ?budget ?trace family objs.(0) in
    let bits = try Some (evaluate budget trace cache) with Dbh.Budget.Exhausted -> None in
    let pivots =
      Option.fold ~none:[] ~some:(fun tr -> Array.to_list (Dbh_obs.Trace.events tr)) trace
      |> List.filter_map (fun (_, e) ->
             match e with
             | Dbh_obs.Trace.Pivot_hit { pivot } -> Some (`Hit pivot)
             | Dbh_obs.Trace.Pivot_miss { pivot } -> Some (`Miss pivot)
             | _ -> None)
    in
    (bits, Hash_family.cache_cost cache, Hash_family.cache_hits cache, pivots)
  in
  let events trace =
    Option.fold ~none:0 ~some:(fun tr -> Array.length (Dbh_obs.Trace.events tr)) trace
  in
  let by_eval _ _ cache =
    let first = Hashtbl.create 64 in
    Array.iter
      (fun fn ->
        if not (Hashtbl.mem first fn) then Hashtbl.add first fn (Hash_family.eval family cache fn))
      fn_ids;
    String.init (Array.length fn_ids) (fun j ->
        if Hashtbl.find first fn_ids.(j) then '\001' else '\000')
  in
  let by_row budget trace cache =
    let row = Hash_family.row (Hash_family.size family) in
    let read () =
      String.init (Array.length fn_ids) (fun j -> Bytes.get (Hash_family.row_cells row) fn_ids.(j))
    in
    Hash_family.eval_fns family cache row fn_ids;
    let bits = read () in
    let recorded = events trace in
    let spent = Option.map Dbh.Budget.spent budget in
    Hash_family.eval_fns family cache row fn_ids;
    if events trace <> recorded then
      Alcotest.fail "second pass over a filled row recorded pivot events";
    if Option.map Dbh.Budget.spent budget <> spent then
      Alcotest.fail "second pass over a filled row charged the budget";
    if read () <> bits then Alcotest.fail "second pass over a filled row changed a bit";
    bits
  in
  (* 12 pivots: budgets below 12 run out mid-row. *)
  List.iter
    (fun limit ->
      let bits, misses, hits, pivots = run ~traced:true limit by_eval in
      List.iter
        (fun traced ->
          if run ~traced limit by_row <> (bits, misses, hits, if traced then pivots else []) then
            Alcotest.failf "family-row evaluation diverges from eval (budget %s, %s)"
              (match limit with None -> "none" | Some b -> string_of_int b)
              (if traced then "traced" else "untraced"))
        [ true; false ])
    (None :: List.init 13 Option.some)

(* [build_on] over n objects lays out every table (keys, offsets, ids)
   exactly as building over a prefix, indexing the rest one by one and
   taking the [compacted] index does — compared through the packed
   body, which writes each table's arrays verbatim, and bucket by
   bucket.  [full_and_grown] returns both indexes; [k] overrides the
   drawn key width. *)
let full_and_grown ?k seed n =
  let rng = Rng.create (7000 + seed) in
  let objs = Array.init n (fun _ -> Array.init 3 (fun _ -> Rng.float_in rng (-1.) 1.)) in
  let prefix = 1 + Rng.int rng n in
  let dead = Array.init n (fun _ -> Rng.int rng 5 = 0) in
  let drawn_k = 1 + Rng.int rng 20 and l = 1 + Rng.int rng 6 in
  let k = Option.value k ~default:drawn_k in
  let family =
    Hash_family.make ~rng:(Rng.create seed) ~space:l2 ~num_pivots:8 ~threshold_sample:40 objs
  in
  let build store = Index.build_on ~rng:(Rng.create (seed + 1)) ~family ~store ~k ~l () in
  let full_store = Dbh.Store.of_array objs in
  Array.iteri (fun id d -> if d then Dbh.Store.delete full_store id) dead;
  let full = build full_store in
  let store = Dbh.Store.of_array (Array.sub objs 0 prefix) in
  for id = 0 to prefix - 1 do
    if dead.(id) then Dbh.Store.delete store id
  done;
  let grown = build store in
  for id = prefix to n - 1 do
    ignore (Dbh.Store.add store objs.(id));
    if dead.(id) then Dbh.Store.delete store id else Index.index_existing grown id
  done;
  (full, Index.compacted grown)

let packed_body t =
  let buf = Buffer.create 1024 in
  Index.write_body_packed buf t;
  Buffer.contents buf

let index_buckets t =
  let out = ref [] in
  Index.iter_buckets t (fun row key ids -> out := (row, key, ids) :: !out);
  List.rev !out

let same_layout a b = packed_body a = packed_body b && index_buckets a = index_buckets b

let build_matches_prefix_then_inserts =
  QCheck.Test.make ~name:"build = prefix build + index_existing + compact" ~count:30
    QCheck.(pair small_int (int_range 2 150))
    (fun (seed, n) ->
      let full, grown = full_and_grown seed n in
      same_layout full grown)

(* At the widest key width (k = 62) keys reach the top bits, so the
   table sort must cover every digit and then stop.  The build must lay
   out tables as the incremental path does, and a v1 body (keys packed
   per object, re-bucketed on load) must read back to the same tables. *)
let test_widest_keys () =
  List.iter
    (fun seed ->
      let full, grown = full_and_grown ~k:Key.max_bits seed 150 in
      let top_digit = List.exists (fun (_, key, _) -> key lsr 56 > 0) (index_buckets full) in
      Alcotest.(check bool) "some key sets a bit above 2^56" true top_digit;
      Alcotest.(check bool) "build = prefix build + index_existing + compact" true
        (same_layout full grown);
      let buf = Buffer.create 4096 in
      Index.write_body buf full;
      let reread =
        Index.read_body ~family:(Index.family full) ~store:(Index.store full)
          (Binio.reader (Buffer.contents buf))
      in
      Alcotest.(check bool) "v1 body reads back the same tables" true (same_layout full reread))
    [ 0; 1; 2 ]

(* ------------------------------------------------------- Key properties *)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let arb_bits =
  QCheck.Gen.(1 -- Key.max_bits >>= fun w -> array_size (return w) bool)
  |> QCheck.make ~print:(fun bits ->
         String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits)))

let key_roundtrip =
  QCheck.Test.make ~name:"of_bits |> to_bits round-trips at every width <= 62" ~count:500
    arb_bits (fun bits ->
      let w = Array.length bits in
      let key = Key.of_bits bits in
      let back = Key.to_bits ~width:w key in
      back = bits
      && Key.of_int ~width:w (Key.to_int key) = key
      && Key.equal key (Array.fold_left Key.push_bit Key.zero bits))

let key_order_is_lexicographic =
  QCheck.Test.make ~name:"int order = lexicographic bit order" ~count:500
    (QCheck.pair arb_bits arb_bits) (fun (a, b) ->
      (* Compare at equal width only — pad the shorter to the longer. *)
      let w = max (Array.length a) (Array.length b) in
      let pad bits = Array.append (Array.make (w - Array.length bits) false) bits in
      let a = pad a and b = pad b in
      let lex = compare a b in
      compare (Key.compare (Key.of_bits a) (Key.of_bits b)) 0 = compare lex 0)

let test_key_width_limits () =
  Alcotest.check_raises "width 63 rejected"
    (Invalid_argument "Key: width must be in [1, 62], got 63") (fun () ->
      Key.check_width 63);
  Alcotest.check_raises "width 0 rejected"
    (Invalid_argument "Key: width must be in [1, 62], got 0") (fun () ->
      Key.check_width 0);
  Key.check_width 1;
  Key.check_width Key.max_bits;
  (try
     ignore (Key.of_bits (Array.make 63 true));
     Alcotest.fail "63-bit code accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Key.of_int ~width:4 16);
     Alcotest.fail "out-of-range int accepted"
   with Invalid_argument _ -> ());
  (try
     ignore (Key.of_int ~width:4 (-1));
     Alcotest.fail "negative int accepted"
   with Invalid_argument _ -> ());
  (* All-ones max-width code survives intact — no sign-bit trouble. *)
  let all = Array.make Key.max_bits true in
  Alcotest.(check bool) "62 ones round-trip" true
    (Key.to_bits ~width:Key.max_bits (Key.of_bits all) = all)

let test_index_rejects_wide_k () =
  let db = Array.init 20 (fun i -> [| float_of_int i; 0. |]) in
  let rng = Rng.create 3 in
  let family = Hash_family.make ~rng ~space:l2 ~num_pivots:8 ~threshold_sample:20 db in
  try
    ignore (Index.build ~rng ~family ~db ~k:63 ~l:1 ());
    Alcotest.fail "k = 63 accepted"
  with Invalid_argument msg ->
    Alcotest.(check bool) "message names the limit" true
      (String.length msg > 0 && msg = Printf.sprintf "Index.build: k must be in [1, %d]" Key.max_bits)

(* ------------------------------------------------------------ CSR fuzz *)

(* Reference model: plain cons-list buckets.  The CSR (frozen base +
   delta + compaction) must present exactly the same buckets in exactly
   the same query order. *)
let csr_fuzz =
  QCheck.Test.make ~name:"csr = cons-list model under inserts/deletes/compaction" ~count:60
    QCheck.(small_int) (fun seed ->
      let rng = Rng.create (1000 + seed) in
      let n_initial = 1 + Rng.int rng 60 in
      let n_ops = Rng.int rng 120 in
      let key_space = 1 + Rng.int rng 16 in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      let next_id = ref 0 in
      let dead = Hashtbl.create 16 in
      let model_add key id =
        let b = try Hashtbl.find model key with Not_found -> [] in
        Hashtbl.replace model key (id :: b)
      in
      (* Seed the frozen base from one key per initial id. *)
      let ids = Array.init n_initial Fun.id in
      let keys = Array.map (fun id -> let key = Rng.int rng key_space in model_add key id; key) ids in
      next_id := n_initial;
      let csr = ref (Csr.of_keys ~ids ~keys) in
      let is_alive id = not (Hashtbl.mem dead id) in
      (* Random deltas, deletions and occasional compactions. *)
      for _ = 1 to n_ops do
        match Rng.int rng 4 with
        | 0 | 1 ->
            let key = Rng.int rng key_space and id = !next_id in
            incr next_id;
            Csr.add !csr key id;
            model_add key id
        | 2 -> if !next_id > 0 then Hashtbl.replace dead (Rng.int rng !next_id) ()
        | _ -> csr := Csr.compacted ~is_alive !csr
      done;
      (* Same buckets, same live contents, same iteration order. *)
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] |> List.sort compare in
      List.for_all
        (fun key ->
          let expect = Hashtbl.find model key |> List.filter is_alive in
          let got = ref [] in
          Csr.iter_bucket !csr key (fun id -> if is_alive id then got := id :: !got);
          List.rev !got = expect)
        keys
      && Csr.bucket_size !csr (key_space + 1) = 0)

(* The delta key filter against the cons-list model, on wide keys.
   [csr_fuzz] draws from at most 16 keys, a handful of the filter's
   bits; here keys are up to [Key.max_bits] wide, the frozen table holds
   up to ~500 ids, and up to ~1,500 [add]s (a quarter reusing a key
   already present, so delta buckets grow and share keys with frozen
   ones) give
   far more distinct delta keys than the filter has bits, with an
   occasional [compacted] starting a fresh, empty filter.  Every model
   key and 200 random keys, most of them absent, are probed through
   [iter_bucket] and [bucket_size]. *)
let delta_filter_matches_model =
  QCheck.Test.make ~name:"delta key filter = cons-list model, wide keys" ~count:40
    QCheck.small_int (fun seed ->
      let rng = Rng.create (13_000 + seed) in
      let width = 1 + Rng.int rng Key.max_bits in
      let top = if width = Key.max_bits then max_int else (1 lsl width) - 1 in
      let draw () = Rng.int rng max_int land top in
      let n_frozen = Rng.int rng 501 and n_adds = Rng.int rng 1501 in
      let used = Array.make (n_frozen + n_adds) 0 in
      let model : (int, int list) Hashtbl.t = Hashtbl.create 256 in
      let bucket key = Option.value ~default:[] (Hashtbl.find_opt model key) in
      let model_add key id =
        used.(id) <- key;
        Hashtbl.replace model key (id :: bucket key)
      in
      let keys = Array.init n_frozen (fun _ -> draw ()) in
      Array.iteri (fun id key -> model_add key id) keys;
      let csr = ref (Csr.of_keys ~ids:(Array.init n_frozen Fun.id) ~keys) in
      for id = n_frozen to n_frozen + n_adds - 1 do
        let key = if id > 0 && Rng.int rng 4 = 0 then used.(Rng.int rng id) else draw () in
        Csr.add !csr key id;
        model_add key id;
        if Rng.int rng 400 = 0 then csr := Csr.compacted ~is_alive:(fun _ -> true) !csr
      done;
      let agrees key =
        let got = ref [] in
        Csr.iter_bucket !csr key (fun id -> got := id :: !got);
        List.rev !got = bucket key && Csr.bucket_size !csr key = List.length (bucket key)
      in
      Hashtbl.fold (fun key _ ok -> ok && agrees key) model true
      && List.for_all agrees (List.init 200 (fun _ -> draw ())))

(* [of_keys] against the list-bucket build it replaced: cons every id
   onto its key's list in position order, then lay the lists out by
   ascending key.  Keys are drawn from a small pool of [width]-bit
   values (so buckets collide) that holds the all-ones key, [max_int] at
   the widest width; ids need not ascend. *)
let of_keys_matches_list_buckets =
  QCheck.Test.make ~name:"csr of_keys = consed list buckets, frozen" ~count:200
    QCheck.(pair small_int (int_bound 300)) (fun (seed, m) ->
      let rng = Rng.create (5000 + seed) in
      let width = 1 + Rng.int rng Key.max_bits in
      let top = if width = Key.max_bits then max_int else (1 lsl width) - 1 in
      let pool =
        Array.init (1 + Rng.int rng 40) (fun i ->
            if i = 0 then top else Rng.int rng max_int land top)
      in
      let ids = Array.init m (fun _ -> Rng.int rng 100_000) in
      let keys = Array.init m (fun _ -> pool.(Rng.int rng (Array.length pool))) in
      let lists : (int, int list) Hashtbl.t = Hashtbl.create 16 in
      Array.iteri
        (fun p id ->
          let b = try Hashtbl.find lists keys.(p) with Not_found -> [] in
          Hashtbl.replace lists keys.(p) (id :: b))
        ids;
      let expect =
        Hashtbl.fold (fun key b acc -> (key, b) :: acc) lists [] |> List.sort compare
      in
      let csr = Csr.of_keys ~ids ~keys in
      let got = ref [] in
      Csr.iter_buckets csr (fun key b -> got := (key, b) :: !got);
      List.rev !got = expect
      && Csr.bucket_count csr = List.length expect
      && Csr.entry_count csr = m
      && Csr.largest_bucket csr
         = List.fold_left (fun acc (_, b) -> max acc (List.length b)) 0 expect)

(* The prefix-indexed directory against a naive (key, ids) list: every
   lookup ([iter_bucket], [bucket_size]) answers exactly as the list
   does, on tables of 0..2000 keys at widths 1..62 — uniform keys, keys
   that all share their top bits, the all-ones key ([max_int] at width
   62) — probed at every key, at 0, and above the largest key.  Each table is
   checked as built by [of_keys], with a suffix [add]ed to a prefix
   build (delta live), as [compacted] from that (which leaves it
   untouched) and after a [write]/[read] round trip. *)
let prefix_directory_matches_list =
  QCheck.Test.make ~name:"prefix directory = naive (key, ids) list" ~count:150
    QCheck.(pair small_int (int_bound 2000)) (fun (seed, nk) ->
      let rng = Rng.create (9000 + seed) in
      let width = 1 + Rng.int rng Key.max_bits in
      let top = if width = Key.max_bits then max_int else (1 lsl width) - 1 in
      let draw =
        if Rng.int rng 3 = 0 then
          (* Every key shares its top bits: only the low [low] vary. *)
          let low = Rng.int rng (min width 12) in
          let high = Rng.int rng max_int land top land lnot ((1 lsl low) - 1) in
          fun () -> high lor (Rng.int rng max_int land ((1 lsl low) - 1))
        else fun () -> Rng.int rng max_int land top
      in
      let pool = Array.init nk (fun i -> if i = 0 && Rng.bool rng then top else draw ()) in
      let m = if nk = 0 then 0 else nk + Rng.int rng (nk + 1) in
      let keys = Array.init m (fun p -> if p < nk then pool.(p) else pool.(Rng.int rng nk)) in
      let ids = Array.init m Fun.id in
      (* The list: ascending keys, each bucket newest (highest id) first. *)
      let buckets : (int, int list) Hashtbl.t = Hashtbl.create 64 in
      Array.iteri
        (fun p key ->
          Hashtbl.replace buckets key (p :: Option.value ~default:[] (Hashtbl.find_opt buckets key)))
        keys;
      let model = Hashtbl.fold (fun key b acc -> (key, b) :: acc) buckets [] |> List.sort compare in
      let bucket key = Option.value ~default:[] (Hashtbl.find_opt buckets key) in
      let max_key = List.fold_left (fun acc (key, _) -> max acc key) (-1) model in
      let probes =
        (0 :: top :: List.map fst model)
        @ (if max_key >= 0 && max_key < max_int then [ max_key + 1; max_int ] else [])
        @ List.init 20 (fun _ -> draw ())
      in
      let agrees t =
        List.for_all
          (fun key ->
            let got = ref [] in
            Csr.iter_bucket t key (fun id -> got := id :: !got);
            List.rev !got = bucket key && Csr.bucket_size t key = List.length (bucket key))
          probes
      in
      let all_alive _ = true in
      let built = Csr.of_keys ~ids ~keys in
      let grown =
        let split = Rng.int rng (m + 1) in
        let t = Csr.of_keys ~ids:(Array.sub ids 0 split) ~keys:(Array.sub keys 0 split) in
        for p = split to m - 1 do
          Csr.add t keys.(p) p
        done;
        t
      in
      let delta_live = agrees grown in
      let fresh = Csr.compacted ~is_alive:all_alive grown in
      let read_back =
        let buf = Buffer.create 1024 in
        Csr.write buf ~is_alive:all_alive built;
        Csr.read
          (Binio.reader (Buffer.contents buf))
          ~validate_key:ignore ~max_id:(max m 1) ~seen:(Bytes.create (max m 1))
      in
      agrees built && delta_live && agrees grown && agrees fresh && agrees read_back)

let test_online_compaction_vs_rebuild () =
  (* An online index after insert/delete churn + compact answers every
     query identically to the same index without compaction, and the
     compaction folds its pending delta. *)
  let rng = Rng.create 77 in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:6 ~dim:4 200 in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }
  in
  let make () =
    Online.create ~rng:(Rng.create 78) ~space:l2 ~config ~rebuild_factor:100.
      ~target_accuracy:0.9 db
  in
  let a = make () and b = make () in
  let churn t =
    let rng = Rng.create 79 in
    for i = 0 to 59 do
      let v = Array.init 4 (fun _ -> Rng.float_in rng (-1.) 1.) in
      let h = Online.insert t v in
      if i mod 4 = 3 then Online.delete t (h - 1)
    done
  in
  churn a;
  churn b;
  Alcotest.(check bool) "delta pending" true (Online.delta_size a > 0);
  Alcotest.(check bool) "tombstones pending" true (Online.tombstones a > 0);
  Online.compact a;
  Alcotest.(check int) "delta folded" 0 (Online.delta_size a);
  let qrng = Rng.create 80 in
  for _ = 1 to 40 do
    let q = Array.init 4 (fun _ -> Rng.float_in qrng (-1.) 1.) in
    let ra = Online.search a q and rb = Online.search b q in
    if ra.Online.nn <> rb.Online.nn then Alcotest.fail "compaction changed the neighbor";
    Alcotest.(check int) "hash cost" rb.Online.stats.Index.hash_cost
      ra.Online.stats.Index.hash_cost
  done

(* An insert is found by a reader domain as soon as the reader learns
   of it.  The main domain inserts into an Online index and, after each
   insert returns, hands (handle, object) to a reader domain through an
   [Atomic]; it waits only until the reader has picked the pair up, so
   the reader's search races the next insert.  The reader must get that
   handle at distance 0.  Inserted objects sit only in the tables'
   deltas, so each answer needs the delta filter bits an insert set to
   be visible once Online's visibility bound admits its id. *)
let test_delta_filter_across_domains () =
  let rng = Rng.create 91 in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:6 ~dim:4 300 in
  let config =
    { Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }
  in
  let t =
    Online.create ~rng:(Rng.create 92) ~space:l2 ~config ~rebuild_factor:100.
      ~target_accuracy:0.9 db
  in
  let inserts = 400 in
  let handoff = Atomic.make None and taken = Atomic.make (-1) in
  let reader =
    Domain.spawn (fun () ->
        let wrong = ref [] in
        for _ = 1 to inserts do
          let rec await () =
            match Atomic.get handoff with
            | Some (h, v) when h <> Atomic.get taken -> (h, v)
            | _ ->
                Domain.cpu_relax ();
                await ()
          in
          let h, v = await () in
          Atomic.set taken h;
          match (Online.search t v).Online.nn with
          | Some (h', d) when h' = h && d = 0. -> ()
          | nn -> wrong := (h, nn) :: !wrong
        done;
        List.rev !wrong)
  in
  let wrng = Rng.create 93 in
  for _ = 1 to inserts do
    let v = Array.init 4 (fun _ -> Rng.float_in wrng (-1.) 1.) in
    let h = Online.insert t v in
    Atomic.set handoff (Some (h, v));
    while Atomic.get taken <> h do
      Domain.cpu_relax ()
    done
  done;
  let wrong = Domain.join reader in
  Alcotest.(check bool) "inserts sit in the deltas" true (Online.delta_size t > 0);
  match wrong with
  | [] -> ()
  | (h, nn) :: _ ->
      Alcotest.failf "%d of %d inserts not found; first: handle %d got %s" (List.length wrong)
        inserts h
        (match nn with
        | Some (h', d) -> Printf.sprintf "(%d, %g)" h' d
        | None -> "none")

(* -------------------------------------------------------- scratch reuse *)

let test_scratch_reuse_is_clean () =
  let s = Scratch.create () in
  Scratch.ensure s 100;
  Alcotest.(check bool) "first mark" true (Scratch.mark s 7);
  Alcotest.(check bool) "repeat mark" false (Scratch.mark s 7);
  Alcotest.(check bool) "mem" true (Scratch.mem s 7);
  ignore (Scratch.mark s 42);
  Alcotest.(check int) "count" 2 (Scratch.count s);
  Alcotest.(check (list int)) "discovery order" [ 7; 42 ] (Scratch.to_list s);
  Scratch.reset s;
  Alcotest.(check int) "reset clears count" 0 (Scratch.count s);
  Alcotest.(check bool) "reset clears marks" true (Scratch.mark s 7);
  Scratch.reset s;
  (* Growth keeps the mask clean. *)
  Scratch.ensure s 10_000;
  for i = 0 to 9_999 do
    if not (Scratch.mark s i) then Alcotest.failf "stale mark at %d after growth" i
  done;
  Scratch.reset s;
  (* Growth past the capacity at least doubles it, so a workspace whose
     store grows one insert at a time rarely reallocates. *)
  let cap = Scratch.capacity s in
  Scratch.ensure s (cap + 1);
  Alcotest.(check bool) "growth at least doubles" true (Scratch.capacity s >= 2 * cap);
  let row = Scratch.pivot_dists s 32 in
  Alcotest.(check bool) "pivot row big enough" true (Array.length row >= 32)

let test_scratch_exception_safety () =
  (* A query cut short — by its budget, or by an exception its distance
     raises mid-query — must still give its domain's workspace back
     clean: the next query there answers, costs, truncates and traces
     exactly as in a freshly spawned domain. *)
  let db = Pen.generate_set ~rng:(Rng.create 21) 120 in
  let calls_left = ref max_int in
  let space =
    Dbh_space.Space.make ~name:"pen-dtw-failing" (fun a b ->
        decr calls_left;
        if !calls_left < 0 then failwith "distance failed";
        Pen.space.Dbh_space.Space.distance a b)
  in
  let family =
    Hash_family.make ~rng:(Rng.create 22) ~space ~num_pivots:15 ~threshold_sample:80 db
  in
  let index = Index.build ~rng:(Rng.create 23) ~family ~db ~k:4 ~l:5 () in
  let q = Pen.generate_set ~rng:(Rng.create 24) 2 in
  let search opts q = Index.search ~opts index q in
  let clean label =
    List.iter
      (fun opts ->
        if outcome search opts q.(1) <> in_fresh_domain (fun () -> outcome search opts q.(1))
        then Alcotest.failf "%s: the next query differs from a fresh domain's" label)
      [ Query_opts.default; Query_opts.budgeted 20 ]
  in
  let r1 = Index.search ~opts:(Query_opts.budgeted 3) index q.(0) in
  Alcotest.(check bool) "budget truncated" true r1.Index.truncated;
  clean "after truncation";
  (* Past the 15 pivots: the failing distance scores a candidate. *)
  calls_left := 20;
  (match Index.search index q.(0) with
  | _ -> Alcotest.fail "the failing distance did not raise"
  | exception Failure _ -> ());
  calls_left := max_int;
  clean "after an exception"

(* A distance function may itself run a query.  The inner query finds
   its domain's workspace taken by the outer one and works in a fresh
   one, so neither disturbs the other: the outer query and every inner
   one answer, cost, truncate and trace exactly as the same queries run
   one at a time. *)
let test_nested_query () =
  let rng = Rng.create 43 in
  let vec () = Array.init 4 (fun _ -> Rng.float_in rng (-1.) 1.) in
  let inner_db = Array.init 150 (fun _ -> vec ()) in
  let inner_family =
    Hash_family.make ~rng ~space:l2 ~num_pivots:10 ~threshold_sample:60 inner_db
  in
  let inner = Index.build ~rng ~family:inner_family ~db:inner_db ~k:4 ~l:6 () in
  let inner_outcome = outcome (fun opts q -> Index.search ~opts inner q) Query_opts.default in
  let nesting = ref false and inner_runs = ref [] in
  let space =
    Dbh_space.Space.make ~name:"l2-nesting" (fun a b ->
        if !nesting then inner_runs := (a, inner_outcome a) :: !inner_runs;
        l2.Dbh_space.Space.distance a b)
  in
  let db = Array.init 200 (fun _ -> vec ()) in
  let family = Hash_family.make ~rng ~space ~num_pivots:12 ~threshold_sample:80 db in
  let outer = Index.build ~rng ~family ~db ~k:5 ~l:6 () in
  let outer_outcome = outcome (fun opts q -> Index.search ~opts outer q) in
  List.iter
    (fun (label, opts) ->
      for i = 1 to 8 do
        let q = vec () in
        let alone = outer_outcome opts q in
        inner_runs := [];
        nesting := true;
        let nested =
          Fun.protect ~finally:(fun () -> nesting := false) (fun () -> outer_outcome opts q)
        in
        if nested <> alone then
          Alcotest.failf "%s query %d: nesting changed the outer query" label i;
        if !inner_runs = [] then Alcotest.failf "%s query %d: no inner query ran" label i;
        List.iter
          (fun (a, got) ->
            if got <> inner_outcome a then
              Alcotest.failf "%s query %d: a nested inner query differs from its run alone" label i)
          !inner_runs
      done)
    [
      ("plain", Query_opts.default);
      ("budget 30", Query_opts.budgeted 30);
      ("multiprobe 3", Query_opts.multiprobe 3);
    ]

(* A warmed single-level query allocates a fixed handful of words (its
   query record, hash cache, closures and result) however large the
   store and however many candidates it scores: the seen mask,
   candidate cells and pivot row live in the domain's workspace.  On
   this workload (400 pen digits under a frozen DTW memo, k = 10,
   l = 8) a query allocates 48 words, and 48 again at 1,600 objects.
   The ceiling of 64 leaves room for a field or a closure more, while a
   per-query seen mask (51 words at 400 objects) or an allocation per
   scored candidate breaks it. *)
let test_query_allocation_ceiling () =
  let w = Memo_pen.make ~n:400 ~m:75 in
  let family =
    Hash_family.make ~rng:(Rng.create 97) ~space:w.Memo_pen.space ~num_pivots:15
      ~threshold_sample:75 w.Memo_pen.db
  in
  let index = Index.build ~rng:(Rng.create 98) ~family ~db:w.Memo_pen.db ~k:10 ~l:8 () in
  let search q = Index.search index q in
  ignore (Array.map search w.Memo_pen.queries);
  w.Memo_pen.freeze ();
  let _, words = Memo_pen.words_per_query search w.Memo_pen.queries in
  if words > 64. then
    Alcotest.failf "Index.search allocated %.1f words per query; the ceiling is 64" words

(* ------------------------------------------------- v1 -> v2 migration *)

let copy_file src dst =
  let ic = open_in_bin src in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin dst in
  output_string oc data;
  close_out oc

let encode (v : float array) =
  let buf = Buffer.create 64 in
  Binio.write_float_array buf v;
  Buffer.contents buf

let decode s =
  let r = Binio.reader s in
  let v = Binio.read_float_array r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in vector");
  v

let test_v1_snapshot_migrates_to_v2 () =
  (* The pinned fixture directory was written by the pre-refactor engine
     (snapshot version 1, bit-packed key blocks) via
     `dbh-cli persist <dir> -n 120 --ops 30 -q 5 -s 42`.  It must open
     cleanly, replay its WAL, serve queries, and migrate to a packed v2
     snapshot on the first checkpoint. *)
  let src = fixture_path "v1_online" in
  Temp_dir.with_dir "storage" @@ fun dir ->
  List.iter
    (fun f -> copy_file (Filename.concat src f) (Filename.concat dir f))
    [ "snapshot-000001.dbh"; "wal-000001.log" ];
  let v1_path = Layout.snapshot_path ~dir 1 in
  let hdr, _ = Envelope.read ~path:v1_path in
  Alcotest.(check int) "fixture is version 1" 1 hdr.Envelope.version;
  let info = Durable.inspect_snapshot ~path:v1_path in
  Alcotest.(check int) "inspect sees v1" 1 info.Durable.format_version;
  (* Same open parameters as dbh-cli's durable subcommands. *)
  let t, recovery =
    Durable.open_or_create ~rng:(Rng.create 42) ~space:l2
      ~config:
        { Builder.default_config with num_pivots = 50; num_sample_queries = 100 }
      ~target_accuracy:0.9 ~encode ~decode ~dir ()
  in
  (match recovery.Durable.source with
  | `Snapshot 1 -> ()
  | _ -> Alcotest.fail "expected recovery from the v1 snapshot");
  Alcotest.(check (list (pair int string))) "no generation skipped" []
    recovery.Durable.skipped;
  Alcotest.(check int) "WAL replayed" 36 recovery.Durable.replayed_ops;
  Alcotest.(check int) "alive objects" (120 + 30 - 6) (Durable.size t);
  let q = Array.init 16 (fun i -> float_of_int i /. 16.) in
  let r = Durable.search t q in
  Alcotest.(check bool) "v1-recovered index answers" true (r.Online.nn <> None);
  Durable.checkpoint t;
  let gen = Durable.generation t in
  let v2_path = Layout.snapshot_path ~dir gen in
  let hdr2, _ = Envelope.read ~path:v2_path in
  Alcotest.(check int) "first checkpoint writes version 2" 2 hdr2.Envelope.version;
  let total, alive = Durable.verify_snapshot ~path:v2_path in
  Alcotest.(check int) "v2 verifies: total handles" 150 total;
  Alcotest.(check int) "v2 verifies: alive" 144 alive;
  let info2 = Durable.inspect_snapshot ~path:v2_path in
  Alcotest.(check int) "inspect sees v2" 2 info2.Durable.format_version;
  Alcotest.(check int) "registry carried over" 150 info2.Durable.registry_len;
  Alcotest.(check int) "tombstones carried over" 6 info2.Durable.dead_handles;
  Durable.close t;
  (* Reopen from the migrated snapshot: answers must match the handle. *)
  let t2, recovery2 =
    Durable.open_or_create ~rng:(Rng.create 42) ~space:l2
      ~config:
        { Builder.default_config with num_pivots = 50; num_sample_queries = 100 }
      ~target_accuracy:0.9 ~encode ~decode ~dir ()
  in
  (match recovery2.Durable.source with
  | `Snapshot g when g = gen -> ()
  | _ -> Alcotest.fail "expected recovery from the migrated v2 snapshot");
  let r2 = Durable.search t2 q in
  if r.Online.nn <> r2.Online.nn then Alcotest.fail "v2 reopen changed the answer";
  Durable.close t2

(* ------------------------------------------------------- diagnostics *)

let test_diagnostics_storage_fields () =
  let db = Pen.generate_set ~rng:(Rng.create 31) 150 in
  let family =
    Hash_family.make ~rng:(Rng.create 32) ~space:Pen.space ~num_pivots:15
      ~threshold_sample:80 db
  in
  let index = Index.build ~rng:(Rng.create 33) ~family ~db ~k:4 ~l:5 () in
  let s = Diagnostics.index_stats index in
  Alcotest.(check int) "no delta right after build" 0 s.Diagnostics.delta_entries;
  Alcotest.(check bool) "fill in (0,1]" true
    (s.Diagnostics.directory_fill > 0. && s.Diagnostics.directory_fill <= 1.);
  Alcotest.(check bool) "memory estimate positive" true (s.Diagnostics.approx_table_bytes > 0);
  let hist = Diagnostics.bucket_histogram index in
  Alcotest.(check bool) "histogram non-empty" true (Array.length hist > 0);
  let buckets = Array.fold_left (fun acc (_, n) -> acc + n) 0 hist in
  Alcotest.(check int) "histogram covers every bucket" s.Diagnostics.non_empty_buckets
    buckets;
  let entries = Array.fold_left (fun acc (sz, n) -> acc + (sz * n)) 0 hist in
  Alcotest.(check int) "histogram mass = l * n" (5 * 150) entries

let () =
  Alcotest.run "dbh_storage"
    [
      ( "golden",
        [
          Alcotest.test_case "bit-identical to pre-refactor engine" `Slow
            test_golden_bit_identity;
          Alcotest.test_case "shared scratch changes nothing" `Slow
            test_golden_with_shared_scratch;
          Alcotest.test_case "batches (sequential + pool) match" `Slow
            test_golden_batches_match_pool;
          Alcotest.test_case "snapshot bytes pinned" `Slow test_golden_snapshot_digest;
          Alcotest.test_case "4-domain build, same bytes" `Slow test_golden_snapshot_pooled;
        ] );
      ( "key path",
        Alcotest.test_case "insert shares one pivot cache" `Slow test_insert_shares_pivot_cache
        :: Alcotest.test_case "eval_row = eval per function" `Quick test_eval_row_matches_eval
        :: Alcotest.test_case "widest keys (k = 62)" `Quick test_widest_keys
        :: qsuite [ build_matches_prefix_then_inserts ] );
      ( "key",
        Alcotest.test_case "width limits" `Quick test_key_width_limits
        :: Alcotest.test_case "index rejects wide k" `Quick test_index_rejects_wide_k
        :: qsuite [ key_roundtrip; key_order_is_lexicographic ] );
      ( "csr",
        Alcotest.test_case "online compaction vs uncompacted twin" `Quick
          test_online_compaction_vs_rebuild
        :: Alcotest.test_case "delta filter across domains" `Quick
             test_delta_filter_across_domains
        :: qsuite
             [
               csr_fuzz;
               delta_filter_matches_model;
               of_keys_matches_list_buckets;
               prefix_directory_matches_list;
             ] );
      ( "scratch",
        [
          Alcotest.test_case "reuse stays clean" `Quick test_scratch_reuse_is_clean;
          Alcotest.test_case "exception safety" `Quick test_scratch_exception_safety;
          Alcotest.test_case "nested query works in its own workspace" `Quick test_nested_query;
          Alcotest.test_case "warmed query allocates under a fixed ceiling" `Quick
            test_query_allocation_ceiling;
        ] );
      ( "migration",
        [
          Alcotest.test_case "v1 fixture opens and migrates to v2" `Slow
            test_v1_snapshot_migrates_to_v2;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "storage fields" `Quick test_diagnostics_storage_fields;
        ] );
    ]
