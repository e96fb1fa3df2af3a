type table_stats = {
  tables : int;
  bits_per_key : int;
  indexed_objects : int;
  non_empty_buckets : int;
  largest_bucket : int;
  mean_bucket : float;
  largest_bucket_fraction : float;
  delta_entries : int;
  directory_fill : float;
  approx_table_bytes : int;
}

let index_stats index =
  let objects = Index.size index in
  let buckets = Index.bucket_count index in
  let largest = Index.largest_bucket index in
  let l = Index.l index in
  let k = Index.k index in
  (* Mean fraction of each table's 2^k key space that holds a bucket.
     Computed in floats: 2^k overflows no further than the exponent. *)
  let directory_fill =
    float_of_int buckets /. (float_of_int l *. (2. ** float_of_int k))
  in
  {
    tables = l;
    bits_per_key = k;
    indexed_objects = objects;
    non_empty_buckets = buckets;
    largest_bucket = largest;
    mean_bucket =
      (if buckets = 0 then 0. else float_of_int (objects * l) /. float_of_int buckets);
    largest_bucket_fraction =
      (if objects = 0 then 0. else float_of_int largest /. float_of_int objects);
    delta_entries = Index.delta_size index;
    directory_fill;
    approx_table_bytes = Index.approx_table_words index * (Sys.word_size / 8);
  }

(* Bucket-size histogram across every table of an index: sorted
   [(size, how_many_buckets)], dead entries included. *)
let bucket_histogram index =
  let counts = Hashtbl.create 64 in
  Index.iter_buckets index (fun _table _key bucket ->
      let size = List.length bucket in
      Hashtbl.replace counts size (1 + Option.value ~default:0 (Hashtbl.find_opt counts size)));
  let hist = Hashtbl.fold (fun size n acc -> (size, n) :: acc) counts [] in
  Array.of_list (List.sort compare hist)

type table_profile = {
  table : int;
  directory_keys : int;
  key_density : float;
  empty_bucket_rate : float;
  mean_alive_bucket : float;
}

(* Per-table bucket census in one pass over the directories.  A bucket
   whose entries are all tombstoned still occupies its key (entries are
   skipped lazily at query time), so the empty-bucket rate is the
   fraction of directory keys a probe can hit and find nothing alive —
   exactly the sparsity signal that makes extra Hamming probes pay. *)
let table_profiles index =
  let l = Index.l index and k = Index.k index in
  let keys = Array.make l 0 in
  let dead = Array.make l 0 in
  let alive = Array.make l 0 in
  let store = Index.store index in
  Index.iter_buckets index (fun table _key bucket ->
      keys.(table) <- keys.(table) + 1;
      let live =
        List.fold_left
          (fun acc id -> if Store.is_alive store id then acc + 1 else acc)
          0 bucket
      in
      if live = 0 then dead.(table) <- dead.(table) + 1;
      alive.(table) <- alive.(table) + live);
  let key_space = 2. ** float_of_int k in
  Array.init l (fun t ->
      {
        table = t;
        directory_keys = keys.(t);
        key_density = float_of_int keys.(t) /. key_space;
        empty_bucket_rate =
          (if keys.(t) = 0 then 0. else float_of_int dead.(t) /. float_of_int keys.(t));
        mean_alive_bucket =
          (if keys.(t) = 0 then 0. else float_of_int alive.(t) /. float_of_int keys.(t));
      })

let pp_table_profile ppf p =
  Format.fprintf ppf
    "table %d: keys=%d density=%.2e empty=%.1f%% mean alive bucket=%.2f" p.table
    p.directory_keys p.key_density
    (100. *. p.empty_bucket_rate)
    p.mean_alive_bucket

let pp_table_stats ppf s =
  Format.fprintf ppf
    "l=%d k=%d objects=%d buckets=%d largest=%d (%.1f%% of objects) mean occupancy=%.2f"
    s.tables s.bits_per_key s.indexed_objects s.non_empty_buckets s.largest_bucket
    (100. *. s.largest_bucket_fraction)
    s.mean_bucket

let hierarchical_stats h =
  let infos = Hierarchical.levels h in
  let indexes = Hierarchical.indexes h in
  Array.mapi (fun i info -> (info, index_stats indexes.(i))) infos

let family_balance_profile ~rng ?(num_fns = 200) family sample =
  if Array.length sample = 0 then
    invalid_arg "Diagnostics.family_balance_profile: empty sample";
  let fn_ids = Hash_family.sample_fn_indices ~rng family (min num_fns (Hash_family.size family)) in
  let balances = Array.map (fun i -> Hash_family.balance family i sample) fn_ids in
  ( Dbh_util.Stats.mean balances,
    Dbh_util.Stats.minimum balances,
    Dbh_util.Stats.maximum balances )

let healthy ?(max_bucket_fraction = 0.5) s =
  s.indexed_objects = 0
  || (s.non_empty_buckets > 1 && s.largest_bucket_fraction <= max_bucket_fraction)
