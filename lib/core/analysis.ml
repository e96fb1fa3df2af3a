module Rng = Dbh_util.Rng
module Bitvec = Dbh_util.Bitvec
module Space = Dbh_space.Space

type t = {
  db_size : int;
  c_nn : float array;  (* per sample query: collision rate with its true NN *)
  nn_dist : float array;
  c_db : float array array;  (* per sample query: rates against the db sample; nan = self *)
  scale : float;  (* db_size / db_sample, for Eq. 12 *)
  pivot_usage : float array;  (* per pivot: fraction of family functions using it *)
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

let build ?pool ~rng ~family ~db ~query_indices ?(num_fns = 250) ?(db_sample = 500)
    ?ground_truth () =
  let n = Array.length db in
  if n < 2 then invalid_arg "Analysis.build: database too small";
  if Array.length query_indices = 0 then invalid_arg "Analysis.build: no sample queries";
  let space = Hash_family.space family in
  let fn_indices = Hash_family.sample_fn_indices ~rng family num_fns in
  let sig_of = Hash_family.signature family ~fn_indices in
  (* All rng draws happen above/below on the submitting domain; the
     fanned-out work (brute-force NN scans, signatures, agreement rows)
     is pure per index, so the fitted model is bit-identical at every
     pool width for the same seed. *)
  (* Chunking weight for a fan-out over db ids: each task's distance work
     (a brute-force scan or a signature) scales with the length of its
     own object when the space declares per-item costs. *)
  let id_cost ids =
    if Space.has_item_cost space then
      Some (fun i -> Space.item_cost space db.(ids.(i)))
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
        Dbh_util.Pool.parallel_map_array ?pool ?cost:(id_cost query_indices)
          (fun qi -> brute_force_nn space db qi)
          query_indices
  in
  (* Database sample for the Eq. 12 lookup-cost sum. *)
  let sample_ids = Rng.sample_indices rng (min db_sample n) n in
  let sample_sigs =
    Dbh_util.Pool.parallel_map_array ?pool ?cost:(id_cost sample_ids)
      (fun j -> sig_of db.(j))
      sample_ids
  in
  (* Signatures are needed for every sample query and for every true NN,
     and one object can play several of those roles at once (the NN of
     many queries, or a query that is also some other query's NN).
     Compute each signature exactly once, over the deduplicated id list:
     this avoids repeating the pivot-distance work, and it keeps every
     distance pair on a single task so fault-injected spaces see a
     schedule-independent call sequence under a pool. *)
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
  let sigs =
    Dbh_util.Pool.parallel_map_array ?pool ?cost:(id_cost sig_ids)
      (fun id -> sig_of db.(id))
      sig_ids
  in
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
    c_nn;
    nn_dist;
    c_db;
    scale = float_of_int n /. float_of_int (Array.length sample_ids);
    pivot_usage = pivot_usage_of_family family;
  }

let num_queries t = Array.length t.c_nn
let db_size t = t.db_size
let nn_distance t i = t.nn_dist.(i)
let nn_collision t i = t.c_nn.(i)

(* The per-rate cascade map: plain Eq. 10, or its multi-probe extension
   when the knobs are on.  Dispatching keeps the default path running
   the exact historical float expressions — bit-identical estimates. *)
let rate_kl ~k ~l ~probes ~radius c =
  if probes > 1 && radius > 0 then Collision.c_kl_probed c ~k ~l ~probes ~radius
  else Collision.c_kl c ~k ~l

let accuracy ?(probes = 1) ?(radius = 0) t ~k ~l =
  let acc =
    Array.fold_left (fun acc c -> acc +. rate_kl ~k ~l ~probes ~radius c) 0. t.c_nn
  in
  acc /. float_of_int (num_queries t)

let lookup_cost_of_query ?(probes = 1) ?(radius = 0) t i ~k ~l =
  let acc =
    Array.fold_left
      (fun acc c -> if Float.is_nan c then acc else acc +. rate_kl ~k ~l ~probes ~radius c)
      0. t.c_db.(i)
  in
  t.scale *. acc

let lookup_cost ?(probes = 1) ?(radius = 0) t ~k ~l =
  let acc = ref 0. in
  for i = 0 to num_queries t - 1 do
    acc := !acc +. lookup_cost_of_query ~probes ~radius t i ~k ~l
  done;
  !acc /. float_of_int (num_queries t)

let hash_cost t ~k ~l =
  (* Expected distinct pivots among k·l functions drawn with replacement:
     sum over pivots of 1 - (1 - usage)^(k·l).  Multi-probe leaves this
     unchanged: extra probes reuse the pivot distances the base key
     already paid for (margins come from the same cache). *)
  let draws = float_of_int k *. float_of_int l in
  Array.fold_left (fun acc u -> acc +. (1. -. ((1. -. u) ** draws))) 0. t.pivot_usage

let total_cost ?(probes = 1) ?(radius = 0) t ~k ~l =
  lookup_cost ~probes ~radius t ~k ~l +. hash_cost t ~k ~l

let restrict t positions =
  if Array.length positions = 0 then invalid_arg "Analysis.restrict: empty subset";
  Array.iter
    (fun p ->
      if p < 0 || p >= num_queries t then invalid_arg "Analysis.restrict: position out of range")
    positions;
  {
    t with
    c_nn = Array.map (fun p -> t.c_nn.(p)) positions;
    nn_dist = Array.map (fun p -> t.nn_dist.(p)) positions;
    c_db = Array.map (fun p -> t.c_db.(p)) positions;
  }

let queries_by_nn_distance t =
  let order = Array.init (num_queries t) (fun i -> i) in
  Array.sort (fun a b -> compare t.nn_dist.(a) t.nn_dist.(b)) order;
  order
