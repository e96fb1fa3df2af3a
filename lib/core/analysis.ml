module Rng = Dbh_util.Rng
module Bitvec = Dbh_util.Bitvec
module Space = Dbh_space.Space

(* The credit of the cascade levels already chosen (Sec. V-A).  A query
   of stratum i passes through levels 0..i, and each level draws its
   functions independently, so by Eq. 10 a pair that agrees on a
   fraction c of the sampled functions escapes every earlier level with
   probability Π_j (1 − C_{k_j,l_j}(c)).  That depends on the pair only
   through its agreement count, so the credit keeps it per count, with
   the model's pairs histogrammed by count: pricing a (k, l) then costs
   O(num_fns) instead of O(queries · db_sample). *)
type credit = {
  miss : float array;  (* per disagreement count d: chance to escape every earlier level *)
  draws : float;  (* Σ_j k_j·l_j: functions the earlier levels draw *)
  nn_hist : float array;  (* per d: sample queries whose NN disagrees on d functions *)
  db_hist : float array;  (* per d: (sample query, db sample object) pairs, self excluded *)
}

type t = {
  db_size : int;
  num_fns : int;  (* length of every signature: agreements are multiples of 1/num_fns *)
  c_nn : float array;  (* per sample query: collision rate with its true NN *)
  nn_dist : float array;
  c_db : float array array;  (* per sample query: rates against the db sample; nan = self *)
  scale : float;  (* db_size / db_sample, for Eq. 12 *)
  pivot_usage : float array;  (* per pivot: fraction of family functions using it *)
  credit : credit option;  (* None: the level runs alone (the paper's per-level model) *)
}

let brute_force_nn space db qi =
  let best = ref (-1) and best_d = ref infinity in
  Array.iteri
    (fun j x ->
      if j <> qi then begin
        let d = space.Space.distance db.(qi) x in
        if d < !best_d then begin
          best_d := d;
          best := j
        end
      end)
    db;
  (!best, !best_d)

let pivot_usage_of_family family =
  let m = Hash_family.num_pivots family in
  let counts = Array.make m 0 in
  let nf = Hash_family.size family in
  for i = 0 to nf - 1 do
    let f = Hash_family.fn family i in
    counts.(f.Hash_family.p1) <- counts.(f.Hash_family.p1) + 1;
    counts.(f.Hash_family.p2) <- counts.(f.Hash_family.p2) + 1
  done;
  Array.map (fun c -> float_of_int c /. float_of_int nf) counts

let build ?pool ~rng ~family ~db ~pivot_table ~query_indices ?(num_fns = 250) ?(db_sample = 500)
    ?ground_truth () =
  let n = Array.length db in
  if n < 2 then invalid_arg "Analysis.build: database too small";
  if Array.length query_indices = 0 then invalid_arg "Analysis.build: no sample queries";
  if Array.length pivot_table <> n then invalid_arg "Analysis.build: pivot_table length mismatch";
  let space = Hash_family.space family in
  let fn_indices = Hash_family.sample_fn_indices ~rng family num_fns in
  (* Database object [id]'s signature reads its pivot distances from the
     table's row, and costs nothing. *)
  let sig_of id =
    Hash_family.signature family ~fn_indices
      (Hash_family.cache_with_distances family db.(id) pivot_table.(id))
  in
  (* All rng draws happen above/below on the submitting domain; the
     fanned-out work (brute-force NN scans, signatures, agreement rows)
     is pure per index, so the fitted model is bit-identical at every
     pool width for the same seed. *)
  (* Chunking weight for the brute-force scans: each scan's distance
     work scales with the length of its own query when the space
     declares per-item costs. *)
  let scan_cost =
    if Space.has_item_cost space then
      Some (fun i -> Space.item_cost space db.(query_indices.(i)))
    else None
  in
  (* Ground truth nearest neighbors of the sample queries — the dominant
     O(|queries| · |db|) distance cost when not supplied. *)
  let nn =
    match ground_truth with
    | Some gt ->
        if Array.length gt <> Array.length query_indices then
          invalid_arg "Analysis.build: ground_truth length mismatch";
        gt
    | None ->
        Dbh_util.Pool.parallel_map_array ?pool ?cost:scan_cost
          (fun qi -> brute_force_nn space db qi)
          query_indices
  in
  (* A scan whose every distance is +∞ or NaN finds no neighbour (id -1),
     and the signatures below would read db.(-1). *)
  Array.iteri
    (fun i (j, _) ->
      if j < 0 then
        invalid_arg
          (Printf.sprintf
             "Analysis.build: sample query %d has no finite distance to any other object"
             query_indices.(i)))
    nn;
  (* Database sample for the Eq. 12 lookup-cost sum. *)
  let sample_ids = Rng.sample_indices rng (min db_sample n) n in
  let sample_sigs = Dbh_util.Pool.parallel_map_array ?pool sig_of sample_ids in
  (* Signatures are needed for every sample query and for every true NN,
     and one object can play several of those roles at once (the NN of
     many queries, or a query that is also some other query's NN).
     Compute each signature exactly once, over the deduplicated id
     list. *)
  let sig_ids =
    let seen = Hashtbl.create (2 * Array.length query_indices) in
    let order = ref [] in
    let add id =
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        order := id :: !order
      end
    in
    Array.iter add query_indices;
    Array.iter (fun (j, _) -> add j) nn;
    Array.of_list (List.rev !order)
  in
  let sigs = Dbh_util.Pool.parallel_map_array ?pool sig_of sig_ids in
  let sig_tbl = Hashtbl.create (Array.length sig_ids) in
  Array.iteri (fun i id -> Hashtbl.replace sig_tbl id sigs.(i)) sig_ids;
  let sig_cached id = Hashtbl.find sig_tbl id in
  let c_nn = Array.make (Array.length query_indices) 0. in
  let nn_dist = Array.make (Array.length query_indices) 0. in
  let c_db = Array.make (Array.length query_indices) [||] in
  (* Pure bit-vector agreements from here on: no distance calls. *)
  let fit_query i =
    let qi = query_indices.(i) in
    let q_sig = sig_cached qi in
    let nn_j, nn_d = nn.(i) in
    c_nn.(i) <- Bitvec.agreement q_sig (sig_cached nn_j);
    nn_dist.(i) <- nn_d;
    c_db.(i) <-
      Array.mapi
        (fun s j -> if j = qi then nan else Bitvec.agreement q_sig sample_sigs.(s))
        sample_ids
  in
  Dbh_util.Pool.parallel_for ?pool (Array.length query_indices) fit_query;
  {
    db_size = n;
    num_fns = Array.length fn_indices;
    c_nn;
    nn_dist;
    c_db;
    scale = float_of_int n /. float_of_int (Array.length sample_ids);
    pivot_usage = pivot_usage_of_family family;
    credit = None;
  }

let num_queries t = Array.length t.c_nn
let db_size t = t.db_size
let nn_distance t i = t.nn_dist.(i)
let nn_collision t i = t.c_nn.(i)

(* An agreement [c] is [1 - d/num_fns] for a count [d] of disagreeing
   functions ({!Dbh_util.Bitvec.agreement}); [rate] rebuilds the very
   same float from [d]. *)
let disagreements t c = Float.to_int (Float.round ((1. -. c) *. float_of_int t.num_fns))
let rate t d = 1. -. (float_of_int d /. float_of_int t.num_fns)

(* Σ_d hist(d)·(1 − miss(d)·(1 − C_{k,l}(d))): the credited sums of
   Eq. 11 and 12, each term the chance that a pair is caught by the
   level (k, l) or by an earlier one. *)
let credited_sum ?probes ?radius cr t hist ~k ~l =
  let acc = ref 0. in
  Array.iteri
    (fun d n ->
      if n > 0. then
        acc :=
          !acc
          +. n
             *. (1. -. (cr.miss.(d) *. (1. -. Collision.c_kl ?probes ?radius (rate t d) ~k ~l))))
    hist;
  !acc

let accuracy ?probes ?radius t ~k ~l =
  match t.credit with
  | Some cr -> credited_sum ?probes ?radius cr t cr.nn_hist ~k ~l /. float_of_int (num_queries t)
  | None ->
      let acc =
        Array.fold_left
          (fun acc c -> acc +. Collision.c_kl ?probes ?radius c ~k ~l)
          0. t.c_nn
      in
      acc /. float_of_int (num_queries t)

let lookup_cost_of_query ?probes ?radius t i ~k ~l =
  let acc =
    Array.fold_left
      (fun acc c ->
        if Float.is_nan c then acc else acc +. Collision.c_kl ?probes ?radius c ~k ~l)
      0. t.c_db.(i)
  in
  t.scale *. acc

let lookup_cost ?probes ?radius t ~k ~l =
  match t.credit with
  | Some cr ->
      t.scale *. credited_sum ?probes ?radius cr t cr.db_hist ~k ~l
      /. float_of_int (num_queries t)
  | None ->
      let acc = ref 0. in
      for i = 0 to num_queries t - 1 do
        acc := !acc +. lookup_cost_of_query ?probes ?radius t i ~k ~l
      done;
      !acc /. float_of_int (num_queries t)

let hash_cost t ~k ~l =
  (* Expected distinct pivots among k·l functions drawn with replacement
     (plus those of the credited levels, which the query hashed first):
     sum over pivots of 1 - (1 - usage)^draws.  Multi-probe leaves this
     unchanged: extra probes reuse the pivot distances the base key
     already paid for (margins come from the same cache). *)
  let draws = float_of_int k *. float_of_int l in
  let draws = match t.credit with Some cr -> draws +. cr.draws | None -> draws in
  Array.fold_left (fun acc u -> acc +. (1. -. ((1. -. u) ** draws))) 0. t.pivot_usage

let total_cost ?probes ?radius t ~k ~l =
  lookup_cost ?probes ?radius t ~k ~l +. hash_cost t ~k ~l

(* The credit with its histograms rebuilt over [t]'s own sample queries. *)
let with_credit t ~miss ~draws =
  let nn_hist = Array.make (t.num_fns + 1) 0. and db_hist = Array.make (t.num_fns + 1) 0. in
  let add hist c =
    let d = disagreements t c in
    hist.(d) <- hist.(d) +. 1.
  in
  Array.iter (add nn_hist) t.c_nn;
  Array.iter (Array.iter (fun c -> if not (Float.is_nan c) then add db_hist c)) t.c_db;
  { t with credit = Some { miss; draws; nn_hist; db_hist } }

let credit t ~k ~l =
  if k < 1 || l < 1 then invalid_arg "Analysis.credit: k and l must be positive";
  let miss, draws =
    match t.credit with
    | Some cr -> (cr.miss, cr.draws)
    | None -> (Array.make (t.num_fns + 1) 1., 0.)
  in
  let miss = Array.mapi (fun d m -> m *. (1. -. Collision.c_kl (rate t d) ~k ~l)) miss in
  with_credit t ~miss ~draws:(draws +. (float_of_int k *. float_of_int l))

let restrict t positions =
  if Array.length positions = 0 then invalid_arg "Analysis.restrict: empty subset";
  Array.iter
    (fun p ->
      if p < 0 || p >= num_queries t then invalid_arg "Analysis.restrict: position out of range")
    positions;
  let sub =
    {
      t with
      c_nn = Array.map (fun p -> t.c_nn.(p)) positions;
      nn_dist = Array.map (fun p -> t.nn_dist.(p)) positions;
      c_db = Array.map (fun p -> t.c_db.(p)) positions;
    }
  in
  match t.credit with
  | Some cr -> with_credit sub ~miss:cr.miss ~draws:cr.draws
  | None -> sub

let queries_by_nn_distance t =
  let order = Array.init (num_queries t) (fun i -> i) in
  Array.sort (fun a b -> compare t.nn_dist.(a) t.nn_dist.(b)) order;
  order
