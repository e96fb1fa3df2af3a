module Rng = Dbh_util.Rng
module Space = Dbh_space.Space
module Binio = Dbh_util.Binio

type stats = {
  hash_cost : int;
  lookup_cost : int;
  probes : int;
}

let total_cost s = s.hash_cost + s.lookup_cost

let add_stats a b =
  {
    hash_cost = a.hash_cost + b.hash_cost;
    lookup_cost = a.lookup_cost + b.lookup_cost;
    probes = a.probes + b.probes;
  }

type 'a result = {
  nn : (int * float) option;
  stats : stats;
  truncated : bool;
  levels_probed : int;
}

(* One metrics recording per completed query, from the query's own
   stats — never from raw distance calls — so the counters are logical:
   dbh_distance_computations_total is exactly the sum of per-query
   total_cost, whatever the domain count, and build/baseline distances
   never leak in.  Shared by every serving entry point (single-level,
   cascade, breaker fallback). *)
let observe_query ?metrics ?seconds ?(cache_hits = 0) ?nn_distance ~(stats : stats)
    ~truncated ~levels_probed () =
  match Dbh_obs.Metrics.resolve metrics with
  | None -> ()
  | Some m ->
      let module R = Dbh_obs.Registry in
      R.inc m.Dbh_obs.Metrics.queries_total;
      if truncated then R.inc m.Dbh_obs.Metrics.queries_truncated_total;
      R.add m.Dbh_obs.Metrics.distance_computations_total (total_cost stats);
      R.add m.Dbh_obs.Metrics.hash_distance_computations_total stats.hash_cost;
      R.add m.Dbh_obs.Metrics.lookup_distance_computations_total stats.lookup_cost;
      R.add m.Dbh_obs.Metrics.bucket_probes_total stats.probes;
      R.add m.Dbh_obs.Metrics.levels_probed_total levels_probed;
      R.add m.Dbh_obs.Metrics.pivot_cache_misses_total stats.hash_cost;
      R.add m.Dbh_obs.Metrics.pivot_cache_hits_total cache_hits;
      R.observe m.Dbh_obs.Metrics.query_cost (float_of_int (total_cost stats));
      (match nn_distance with
      | Some d -> R.observe m.Dbh_obs.Metrics.query_nn_distance d
      | None -> ());
      (match seconds with Some s -> R.observe m.Dbh_obs.Metrics.query_seconds s | None -> ())

type 'a t = {
  family : 'a Hash_family.t;
  store : 'a Store.t;
  k : int;
  l : int;
  fn_ids : int array array;  (* l rows of k function indices *)
  distinct_fns : int array;  (* deduplicated function indices *)
  tables : Csr.t array;  (* frozen CSR base + insert delta, one per row *)
}

let k t = t.k
let l t = t.l
let store t = t.store
let family t = t.family
let size t = Store.alive_count t.store

let distinct_of fn_ids =
  let seen = Hashtbl.create 64 in
  Array.iter (Array.iter (fun id -> Hashtbl.replace seen id ())) fn_ids;
  Array.of_seq (Hashtbl.to_seq_keys seen)

(* The one key path — build, insert and every query: make the cells of
   every distinct function known in one family row, in [distinct_fns]
   order (which fixes the pivot-miss order and so hash_cost and budget
   truncation), skipping cells an earlier index over the same row
   already evaluated; then read each table row's key straight off the
   row.  Neither step allocates. *)
let fill_row t cache row = Hash_family.eval_fns t.family cache row t.distinct_fns

let key_of t cells row = (Key.of_row cells t.fn_ids.(row) :> int)

(* Per-function flip margins, filled after [fill_row] at the family
   functions this index draws: every projection the margins need was
   just computed through the same cache, so this costs zero additional
   distance computations (and charges no budget). *)
let eval_margins t cache margins =
  Array.iter
    (fun fn_id -> margins.(fn_id) <- Hash_family.margin t.family cache fn_id)
    t.distinct_fns

let index_cached t cache row id =
  fill_row t cache row;
  let cells = Hash_family.row_cells row in
  for r = 0 to t.l - 1 do
    Csr.add t.tables.(r) (key_of t cells r) id
  done

let build_on ?pool ~rng ~family ~store ?pivot_table ~k ~l () =
  (try Key.check_width k
   with Invalid_argument _ ->
     invalid_arg (Printf.sprintf "Index.build: k must be in [1, %d]" Key.max_bits));
  if l < 1 then invalid_arg "Index.build: l must be >= 1";
  if Store.length store = 0 then invalid_arg "Index.build: empty database";
  (match pivot_table with
  | Some table when Array.length table <> Store.length store ->
      invalid_arg "Index.build: pivot_table length mismatch"
  | _ -> ());
  let fn_ids = Array.init l (fun _ -> Hash_family.sample_fn_indices ~rng family k) in
  let t = { family; store; k; l; fn_ids; distinct_fns = distinct_of fn_ids; tables = [||] } in
  let ids =
    Array.of_seq (Seq.filter (Store.is_alive store) (Seq.init (Store.length store) Fun.id))
  in
  let m = Array.length ids in
  (* keys.(row).(p): table [row]'s key for object ids.(p).  Each object
     is keyed through a private cache and a family row its chunk of
     objects reuses — pure given the store and pivot table, so chunks
     fan out over the pool and write disjoint cells. *)
  let keys = Array.init l (fun _ -> Array.make m 0) in
  let key_objects ~lo ~hi =
    let row = Hash_family.row (Hash_family.size family) in
    for p = lo to hi - 1 do
      let id = ids.(p) in
      let obj = Store.get store id in
      let cache =
        match pivot_table with
        | Some table -> Hash_family.cache_with_distances family obj table.(id)
        | None -> Hash_family.cache family obj
      in
      fill_row t cache row;
      let cells = Hash_family.row_cells row in
      for r = 0 to l - 1 do
        keys.(r).(p) <- key_of t cells r
      done;
      Hash_family.clear_row row
    done
  in
  let table_of row =
    let table = Csr.of_keys ~ids ~keys:keys.(row) in
    keys.(row) <- [||];
    table
  in
  (* Without a pivot table, keying pays the object's pivot distances,
     so chunks balance on the space's item cost. *)
  let space = Hash_family.space family in
  let cost =
    match pivot_table with
    | None when Space.has_item_cost space ->
        Some (fun p -> Space.item_cost space (Store.get store ids.(p)))
    | _ -> None
  in
  Dbh_util.Pool.map_reduce_chunks ?pool ?cost m ~map:key_objects ~fold:(fun () () -> ())
    ~init:();
  { t with tables = Dbh_util.Pool.parallel_map_array ?pool table_of (Array.init l Fun.id) }

let build ?pool ~rng ~family ~db ?pivot_table ~k ~l () =
  build_on ?pool ~rng ~family ~store:(Store.of_array db) ?pivot_table ~k ~l ()

(* O(1): maintained by the CSR tables (dead entries included, exactly as
   the list buckets counted before). *)
let bucket_count t = Array.fold_left (fun acc tbl -> acc + Csr.bucket_count tbl) 0 t.tables

let largest_bucket t =
  Array.fold_left (fun acc tbl -> max acc (Csr.largest_bucket tbl)) 0 t.tables

let delta_size t = Array.fold_left (fun acc tbl -> acc + Csr.delta_size tbl) 0 t.tables
let approx_table_words t =
  Array.fold_left (fun acc tbl -> acc + Csr.approx_words tbl) 0 t.tables

(* Fresh tables for atomic publication, everything else (store, family,
   function choices) shared. *)
let compacted t =
  let is_alive = Store.is_alive t.store in
  { t with tables = Array.map (Csr.compacted ~is_alive) t.tables }

let iter_buckets t f =
  Array.iteri (fun row tbl -> Csr.iter_buckets tbl (fun key ids -> f row key ids)) t.tables

(* --------------------------------------------------------------- queries *)

let check_probe_knobs ~probes ~radius =
  if probes < 1 then invalid_arg "Index: probes_per_table must be >= 1";
  if radius < 0 || radius > Key.max_radius then
    invalid_arg
      (Printf.sprintf "Index: hamming_radius must be in [0, %d]" Key.max_radius)

(* One query in flight.  Every query shape — the eager single-level
   [search], the cascade, k-NN, range and collision-ranked — is set up
   and torn down by [run], walks buckets with [walk] and pays for each
   candidate through [score]; the shapes differ only in when they score
   and what they keep.  Mutable fields rather than refs: the closures
   that visit buckets capture this one record. *)
type 'a query = {
  obj : 'a;
  objects : 'a Store.t;
  space : 'a Space.t;
  budget : Budget.t option;
  trace : Dbh_obs.Trace.t option;
  scratch : Scratch.t;
  cache : 'a Hash_family.cache;
  probes_per_table : int;
  hamming_radius : int;
  (* Ids at or past [admit] — past the store length read at query
     start, or past the visibility bound a concurrent reader pinned —
     were inserted by a writer after this query started; skipping them
     linearizes the query before those inserts.  Sequentially the bound
     never bites. *)
  admit : int;
  mutable best_id : int;
  mutable best_d : float;
  mutable lookup : int;
  mutable probes : int;
  mutable levels : int;  (* cascade levels entered; 1 for single-level shapes *)
}

let start ~opts ~family ~store ~admit scratch obj =
  let budget = Option.map Budget.create opts.Query_opts.budget in
  let trace = opts.Query_opts.trace in
  {
    obj;
    objects = store;
    space = Hash_family.space family;
    budget;
    trace;
    scratch;
    cache =
      Hash_family.cache_in ?budget ?trace family
        ~dists:(Scratch.pivot_dists scratch (Hash_family.num_pivots family))
        obj;
    probes_per_table = opts.Query_opts.probes_per_table;
    hamming_radius = opts.Query_opts.hamming_radius;
    admit;
    best_id = -1;
    best_d = infinity;
    lookup = 0;
    probes = 0;
    levels = 1;
  }

(* Each domain's one query workspace, so steady-state queries allocate
   no seen mask, candidate cells or pivot row.  [run] takes it with an
   exchange that leaves [vacant] in the slot, and [give] resets it and
   puts it back.  A query that finds the slot vacant — nested inside a
   distance function, or on another systhread of the domain mid-query —
   works in a fresh workspace, so two live queries never share marks. *)
let vacant = Scratch.create ()
let workspace = Domain.DLS.new_key (fun () -> Atomic.make (Scratch.create ()))

let take slot =
  match Atomic.exchange slot vacant with s when s == vacant -> Scratch.create () | s -> s

let give slot scratch =
  Scratch.reset scratch;
  Atomic.set slot scratch

(* Setup and teardown shared by every shape.  The query works in its
   domain's workspace and gives it back on the way out, exceptional
   exits included, clean for the next query (through a [match], not
   [Fun.protect], whose closures cost ~19 words per query).  The store
   length is read once: it sizes the seen mask and bounds admission, so
   [Scratch.mark]'s unchecked writes stay in range however the store
   grows meanwhile.  A budget running out inside [body] ends the query
   with the best answer the paid-for computations found.  Trace events
   are recorded only behind a [match] on the trace option, so the
   untraced path allocates nothing for them; metrics are recorded once
   at the end from the final stats, never from raw distance calls.
   [describe subject] names the query in its [Query_start] event, and
   is only called when tracing. *)
let run ~describe subject ~opts ~family ~store ~limit obj body =
  check_probe_knobs ~probes:opts.Query_opts.probes_per_table
    ~radius:opts.Query_opts.hamming_radius;
  let metrics = Dbh_obs.Metrics.resolve opts.Query_opts.metrics in
  let t0 = match metrics with Some _ -> Dbh_obs.Metrics.now () | None -> 0. in
  (match opts.Query_opts.trace with
  | Some tr ->
      Dbh_obs.Trace.record tr (Dbh_obs.Trace.Query_start { kind = describe subject })
  | None -> ());
  let slot = Domain.DLS.get workspace in
  let scratch = take slot in
  let r =
    match
      let n = Store.length store in
      Scratch.ensure scratch n;
      let r = start ~opts ~family ~store ~admit:(min limit n) scratch obj in
      (try body r
       with Budget.Exhausted -> (
         match (r.trace, r.budget) with
         | Some tr, Some b ->
             Dbh_obs.Trace.record tr (Dbh_obs.Trace.Budget_exhausted { spent = Budget.spent b })
         | _ -> ()));
      r
    with
    | r ->
        give slot scratch;
        r
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        give slot scratch;
        Printexc.raise_with_backtrace e bt
  in
  let truncated = match r.budget with Some b -> Budget.exhausted b | None -> false in
  let stats =
    { hash_cost = Hash_family.cache_cost r.cache; lookup_cost = r.lookup; probes = r.probes }
  in
  (match r.trace with
  | Some tr ->
      Dbh_obs.Trace.record tr
        (Dbh_obs.Trace.Query_done
           {
             hash_cost = stats.hash_cost;
             lookup_cost = stats.lookup_cost;
             probes = stats.probes;
             levels_probed = r.levels;
             truncated;
           })
  | None -> ());
  let nn = if r.best_id < 0 then None else Some (r.best_id, r.best_d) in
  let seconds =
    match metrics with Some _ -> Some (Dbh_obs.Metrics.now () -. t0) | None -> None
  in
  observe_query ?metrics ?seconds ~cache_hits:(Hash_family.cache_hits r.cache)
    ?nn_distance:(Option.map snd nn) ~stats ~truncated ~levels_probed:r.levels ();
  { nn; stats; truncated; levels_probed = r.levels }

(* Hash the query for one index into the scratch's family row; the
   cells are what the walk reads keys off. *)
let hash r t =
  let row = Scratch.fn_row r.scratch (Hash_family.size t.family) in
  fill_row t r.cache row;
  Hash_family.row_cells row

let admitted r id = id < r.admit && Store.is_alive r.objects id

let record_probe r ~level ~row table key =
  match r.trace with
  | Some tr ->
      Dbh_obs.Trace.record tr
        (Dbh_obs.Trace.Bucket_probe
           { level; table = row; key; found = Csr.bucket_size table key })
  | None -> ()

(* The extra probes of the multi-probe path.  After the base buckets,
   each table probes up to [probes_per_table - 1] Hamming-adjacent keys
   within [hamming_radius] bit flips of its base key.  When the probe
   budget covers the whole radius ball the keys are served by code-only
   range scans over the sorted directory (one scan per consecutive-key
   run); otherwise the probe heap emits keys one by one in increasing
   flip-penalty order, cheapest bits — the projections that landed
   nearest their thresholds — first.  Margins reuse the pivot distances
   [hash] already cached, so extra probes cost zero additional hash
   distance computations.  Each emitted key counts one probe on the heap
   path; the range path claims the full ball upfront. *)
let probe_extras r t ~level cells visit =
  let extra = r.probes_per_table - 1 in
  let margins = Scratch.margin_row r.scratch (Hash_family.size t.family) in
  eval_margins t r.cache margins;
  let radius = r.hamming_radius in
  let ball = Key.ball_size ~width:t.k ~radius in
  let ps = Scratch.probe_seq r.scratch in
  for row = 0 to t.l - 1 do
    let base = Key.of_row cells t.fn_ids.(row) in
    let table = t.tables.(row) in
    if extra >= ball then begin
      r.probes <- r.probes + ball;
      match r.trace with
      | None -> Csr.iter_within table ~width:t.k ~radius (base :> int) (fun _ id -> visit id)
      | Some _ ->
          (* The range scan only surfaces non-empty keys; record one
             probe event per distinct key it visits. *)
          let last = ref min_int in
          Csr.iter_within table ~width:t.k ~radius (base :> int) (fun key id ->
              if key <> !last then begin
                last := key;
                record_probe r ~level ~row table key
              end;
              visit id)
    end
    else begin
      let fns = t.fn_ids.(row) in
      let penalty j = margins.(Array.unsafe_get fns j) in
      Probe_seq.generate ps ~base ~width:t.k ~radius ~max_probes:extra ~penalty
        ~emit:(fun pk ->
          r.probes <- r.probes + 1;
          record_probe r ~level ~row table (pk :> int);
          Csr.iter_bucket table (pk :> int) visit)
    end
  done

(* The row walk shared by every shape: per table, record the probe and
   visit the base bucket's ids, then the multi-probe extras.  Each base
   row counts one probe as it is reached unless the caller [claimed] the
   l base probes before hashing (see [mark_level]).  Every key is read
   off the row before the first lookup: with nothing but lookups and
   visits between them, consecutive tables' cache misses overlap, which
   a k-step key fold between them prevents. *)
let walk r t ~level ~claimed cells visit =
  let keys = Scratch.key_row r.scratch t.l in
  for row = 0 to t.l - 1 do
    keys.(row) <- key_of t cells row
  done;
  for row = 0 to t.l - 1 do
    if not claimed then r.probes <- r.probes + 1;
    let key = keys.(row) in
    record_probe r ~level ~row t.tables.(row) key;
    Csr.iter_bucket t.tables.(row) key visit
  done;
  if r.probes_per_table > 1 && r.hamming_radius > 0 then probe_extras r t ~level cells visit

(* Mark this index's fresh admitted candidates into the scratch, in
   bucket-iteration order; ids an earlier level already marked are
   skipped, which is how the cascade dedups across levels.  The l base
   probes are claimed before hashing: a budget that dies mid-hash still
   counts them. *)
let mark_level r t ~level =
  r.probes <- r.probes + t.l;
  let cells = hash r t in
  walk r t ~level ~claimed:true cells (fun id ->
      if admitted r id then ignore (Scratch.mark r.scratch id))

(* The candidate scorer shared by every shape: charge the budget before
   the distance (so the spend never exceeds it), count, measure, trace,
   keep the best.  On a tie the earlier candidate stays best. *)
let score r id =
  (match r.budget with Some b -> Budget.charge b | None -> ());
  r.lookup <- r.lookup + 1;
  let d = r.space.Space.distance r.obj (Store.get r.objects id) in
  let improved = d < r.best_d in
  (match r.trace with
  | Some tr ->
      Dbh_obs.Trace.record tr (Dbh_obs.Trace.Candidate { id; distance = d; improved })
  | None -> ());
  if improved then begin
    r.best_id <- id;
    r.best_d <- d
  end;
  d

(* Score the candidates marked since [from], newest mark first: the order
   the consed candidate lists were visited in before the scratch existed,
   which tie-breaking (equal distances) depends on. *)
let score_marked r ~from f =
  for i = Scratch.count r.scratch - 1 downto from do
    let id = Scratch.get r.scratch i in
    f id (score r id)
  done

(* One level of the cascade (Sec. V-A): mark the whole level's buckets,
   then score its fresh candidates newest-first.  [true] when the best
   so far lies within [threshold] — the cascade stops there. *)
let cascade_level r t ~level ~threshold =
  r.levels <- level + 1;
  (match r.trace with
  | Some tr -> Dbh_obs.Trace.record tr (Dbh_obs.Trace.Level_enter { level; threshold })
  | None -> ());
  let from = Scratch.count r.scratch in
  mark_level r t ~level;
  score_marked r ~from (fun _ _ -> ());
  let settled = r.best_id >= 0 && r.best_d <= threshold in
  (match r.trace with
  | Some tr when settled ->
      Dbh_obs.Trace.record tr (Dbh_obs.Trace.Level_settled { level; best = r.best_d })
  | _ -> ());
  settled

let describe t = Printf.sprintf "index(k=%d,l=%d)" t.k t.l

let run_on t ~opts q body =
  run ~describe t ~opts ~family:t.family ~store:t.store ~limit:max_int q body

(* The single-level query.  Buckets are probed row by row and candidates
   scored as they surface (equivalent to collecting the union first: the
   candidate set, lookup cost and best answer are identical), so that
   when a budget runs out mid-query the best-so-far over everything
   already paid for is returned, and each row counts its probe only
   once reached. *)
let search ?(opts = Query_opts.default) t q =
  run_on t ~opts q (fun r ->
      let cells = hash r t in
      walk r t ~level:0 ~claimed:false cells (fun id ->
          if admitted r id && Scratch.mark r.scratch id then ignore (score r id)))

let candidates_into t q ~scratch =
  let n = Store.length t.store in
  if Scratch.capacity scratch < n then
    invalid_arg "Index.candidates_into: scratch smaller than the store";
  mark_level (start ~opts:Query_opts.default ~family:t.family ~store:t.store ~admit:n scratch q) t
    ~level:0;
  (* The marks are the output; the bits are [q]'s alone, so the next
     call, possibly for another query, must evaluate afresh. *)
  Hash_family.clear_row (Scratch.fn_row scratch (Hash_family.size t.family))

(* The one batch loop behind every [search_batch]: one [search opts]
   per query, sequentially or fanned over [opts.pool].  Queries only read
   the index, so a batch fans out with no shared mutable state beyond
   the atomic counters, and each domain works in its own workspace
   across the batch.  The metric set is resolved once up front and
   shared — its counters are atomic — while the trace is dropped: traces
   are single-domain by design.  Budgets stay per query: [run] creates a
   fresh one from [opts.budget] each time. *)
let batch ~opts ~space search qs =
  let search =
    search
      {
        opts with
        Query_opts.metrics = Dbh_obs.Metrics.resolve opts.Query_opts.metrics;
        trace = None;
      }
  in
  Dbh_util.Pool.parallel_map_array ?pool:opts.Query_opts.pool
    ?cost:(Space.cost_estimator space qs) search qs

let search_batch ?(opts = Query_opts.default) t qs =
  batch ~opts ~space:(Hash_family.space t.family) (fun opts q -> search ~opts t q) qs

(* The k-NN, range and collision-ranked queries have no truncation
   semantics (a partial k-NN list is not a best-so-far answer), so they
   refuse a budget rather than silently ignore it. *)
let reject_budget name opts =
  if opts.Query_opts.budget <> None then
    invalid_arg (name ^ ": opts.budget is not supported (use search)")

let query_knn ?(opts = Query_opts.default) t m q =
  if m < 1 then invalid_arg "Index.query_knn: m must be >= 1";
  reject_budget "Index.query_knn" opts;
  let heap = Dbh_util.Bounded_heap.create m in
  let result =
    run_on t ~opts q (fun r ->
        mark_level r t ~level:0;
        score_marked r ~from:0 (fun id d -> ignore (Dbh_util.Bounded_heap.push heap d id)))
  in
  ( Dbh_util.Bounded_heap.to_sorted_list heap |> List.map (fun (d, id) -> (id, d)) |> Array.of_list,
    result.stats )

let query_range ?(opts = Query_opts.default) t radius q =
  if radius < 0. then invalid_arg "Index.query_range: negative radius";
  reject_budget "Index.query_range" opts;
  let hits = ref [] in
  let result =
    run_on t ~opts q (fun r ->
        mark_level r t ~level:0;
        score_marked r ~from:0 (fun id d -> if d <= radius then hits := (id, d) :: !hits))
  in
  (List.sort (fun (_, a) (_, b) -> compare a b) !hits, result.stats)

(* Score at most [max_candidates] candidates, those colliding with the
   query in the most tables first (ties by ascending id). *)
let query_budgeted ?(opts = Query_opts.default) t ~max_candidates q =
  if max_candidates < 1 then invalid_arg "Index.query_budgeted: budget must be >= 1";
  reject_budget "Index.query_budgeted" opts;
  run_on t ~opts q (fun r ->
      let counts = Hashtbl.create 64 in
      walk r t ~level:0 ~claimed:false (hash r t) (fun id ->
          if admitted r id then
            Hashtbl.replace counts id (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)));
      Hashtbl.fold (fun id c acc -> (c, id) :: acc) counts []
      |> List.sort (fun (c1, id1) (c2, id2) ->
             if c1 <> c2 then compare c2 c1 else compare id1 id2)
      |> List.iteri (fun i (_, id) -> if i < max_candidates then ignore (score r id)))

(* -------------------------------------------------------------- updates *)

let index_existing t id =
  if not (Store.is_alive t.store id) then invalid_arg "Index.index_existing: dead or unknown id";
  index_cached t
    (Hash_family.cache t.family (Store.get t.store id))
    (Hash_family.row (Hash_family.size t.family))
    id

let insert t obj =
  let id = Store.add t.store obj in
  index_existing t id;
  id

let delete t id = Store.delete t.store id

(* ----------------------------------------------------------- persistence *)

(* v1 bodies store bit-packed keys — k bits per indexed object per
   table — rather than bucket lists: for realistic (k, l) this is an
   order of magnitude smaller than naive int encoding, and buckets
   rebuild exactly from the keys.  Objects that are dead at save time are
   dropped (compaction); their ids stay reserved.  The v2 body (used by
   the packed Online.Durable snapshots) instead dumps the live CSR
   arrays directly, which loads without any re-bucketing. *)

let pack_keys buf ~k keys =
  let n = Array.length keys in
  let total_bits = n * k in
  let bytes = Bytes.make ((total_bits + 7) / 8) '\000' in
  let bit = ref 0 in
  Array.iter
    (fun key ->
      for b = k - 1 downto 0 do
        if key lsr b land 1 = 1 then begin
          let byte = !bit / 8 and off = !bit mod 8 in
          Bytes.set bytes byte (Char.chr (Char.code (Bytes.get bytes byte) lor (1 lsl off)))
        end;
        incr bit
      done)
    keys;
  Binio.write_int buf n;
  Binio.write_string buf (Bytes.to_string bytes)

let unpack_keys r ~k =
  let n = Binio.read_int r in
  if n < 0 then raise (Binio.Corrupt "negative key count");
  let data = Binio.read_string r in
  if String.length data < (n * k + 7) / 8 then raise (Binio.Corrupt "truncated key block");
  let bit = ref 0 in
  Array.init n (fun _ ->
      let key = ref 0 in
      for _ = 1 to k do
        let byte = !bit / 8 and off = !bit mod 8 in
        key := (!key lsl 1) lor (Char.code data.[byte] lsr off land 1);
        incr bit
      done;
      !key)

(* Ids this index holds, alive only, ascending; every indexed object
   appears in every table, so membership of the first table suffices. *)
let present_ids t =
  let member = Bytes.make (Store.length t.store) '\000' in
  Csr.iter_buckets t.tables.(0) (fun _ bucket ->
      List.iter (fun id -> if Store.is_alive t.store id then Bytes.set member id '\001') bucket);
  Array.of_seq
    (Seq.filter (fun id -> Bytes.get member id <> '\000') (Seq.init (Bytes.length member) Fun.id))

(* Each of [ids]' key in [table], through [key_of], a store-length row
   reused across tables. *)
let keys_of_table key_of table ids =
  Array.fill key_of 0 (Array.length key_of) (-1);
  Csr.iter_buckets table (fun key bucket -> List.iter (fun id -> key_of.(id) <- key) bucket);
  Array.map
    (fun id ->
      let key = key_of.(id) in
      if key < 0 then invalid_arg "Index.write: object missing from a table" else key)
    ids

let write_fn_ids buf t =
  Binio.write_int buf t.k;
  Binio.write_int buf t.l;
  Array.iter (fun row -> Binio.write_int_array buf row) t.fn_ids

let read_fn_ids ~family r =
  let k = Binio.read_int r in
  let l = Binio.read_int r in
  if k < 1 || k > Key.max_bits || l < 1 || l > Binio.remaining r then
    raise (Binio.Corrupt "invalid k or l");
  let fn_ids =
    Array.init l (fun _ ->
        let row = Binio.read_int_array r in
        if Array.length row <> k then raise (Binio.Corrupt "bad fn row length");
        Array.iter
          (fun id ->
            if id < 0 || id >= Hash_family.size family then
              raise (Binio.Corrupt "function id out of range"))
          row;
        row)
  in
  (k, l, fn_ids)

let write_body buf t =
  write_fn_ids buf t;
  let ids = present_ids t in
  Binio.write_int_array buf ids;
  let key_of = Array.make (Store.length t.store) (-1) in
  Array.iter (fun table -> pack_keys buf ~k:t.k (keys_of_table key_of table ids)) t.tables

let read_body ~family ~store r =
  let n = Store.length store in
  let k, l, fn_ids = read_fn_ids ~family r in
  let ids = Binio.read_int_array r in
  Array.iter
    (fun id -> if id < 0 || id >= n then raise (Binio.Corrupt "object id out of range"))
    ids;
  let tables =
    Array.init l (fun _ ->
        let keys = unpack_keys r ~k in
        if Array.length keys <> Array.length ids then
          raise (Binio.Corrupt "key block does not match id list");
        Csr.of_keys ~ids ~keys)
  in
  { family; store; k; l; fn_ids; distinct_fns = distinct_of fn_ids; tables }

(* v2 body: the live CSR arrays verbatim.  Loading re-validates every
   structural invariant (sorted directory, in-range packed keys, offsets
   covering the ids, no duplicate id per table) so a corrupt or
   hand-edited snapshot cannot materialise a broken index. *)
let write_body_packed buf t =
  write_fn_ids buf t;
  let is_alive = Store.is_alive t.store in
  Array.iter (fun table -> Csr.write buf ~is_alive table) t.tables

let read_body_packed ~family ~store r =
  let n = Store.length store in
  let k, l, fn_ids = read_fn_ids ~family r in
  let seen = Bytes.create n in
  let validate_key key =
    try ignore (Key.of_int ~width:k key)
    with Invalid_argument _ -> raise (Binio.Corrupt "packed key out of range")
  in
  let tables = Array.init l (fun _ -> Csr.read r ~validate_key ~max_id:n ~seen) in
  { family; store; k; l; fn_ids; distinct_fns = distinct_of fn_ids; tables }

let write_store ~encode buf store =
  Binio.write_int buf (Store.length store);
  for id = 0 to Store.length store - 1 do
    Binio.write_string buf (encode (Store.get store id))
  done;
  let dead =
    List.filter (fun id -> not (Store.is_alive store id))
      (List.init (Store.length store) Fun.id)
  in
  Binio.write_int_array buf (Array.of_list dead)

let read_store ~decode r =
  let n = Binio.read_int r in
  (* Each stored object costs at least a length prefix; bound n before
     allocating so corrupt inputs cannot trigger huge allocations. *)
  if n < 0 || n > Binio.remaining r then raise (Binio.Corrupt "implausible store size");
  let objects = Array.init n (fun _ -> Binio.guard_decode decode (Binio.read_string r)) in
  let store = Store.of_array objects in
  let dead = Binio.read_int_array r in
  Array.iter (fun id -> Store.delete store id) dead;
  store

let format_tag = "DBH-index-v1"

let write ~encode buf t =
  Binio.write_string buf format_tag;
  Hash_family.write ~encode buf t.family;
  write_store ~encode buf t.store;
  write_body buf t

let read ~decode ~space r =
  let tag = Binio.read_string r in
  if tag <> format_tag then
    raise (Binio.Corrupt (Printf.sprintf "expected %s, found %S" format_tag tag));
  let family = Hash_family.read ~decode ~space r in
  let store = read_store ~decode r in
  read_body ~family ~store r

let snapshot_kind = "index"
let snapshot_version = 1

let save ~encode ~path t =
  let buf = Buffer.create 4096 in
  write ~encode buf t;
  Dbh_persist.Envelope.save ~path ~kind:snapshot_kind ~version:snapshot_version
    (Buffer.contents buf)

let load ~decode ~space ~path =
  let payload =
    Dbh_persist.Envelope.read_expect ~kind:snapshot_kind ~version:snapshot_version ~path
  in
  let r = Binio.reader payload in
  let t = read ~decode ~space r in
  if not (Binio.at_end r) then
    raise (Binio.Corrupt "trailing bytes after index payload");
  t
