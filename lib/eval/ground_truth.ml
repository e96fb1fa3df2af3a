module Space = Dbh_space.Space

type t = {
  nn_index : int array;
  nn_distance : float array;
  cost_per_query : int;
}

let scan space db ~exclude q =
  let best = ref (-1) and best_d = ref infinity in
  Array.iteri
    (fun j x ->
      if j <> exclude then begin
        let d = space.Space.distance q x in
        if d < !best_d then begin
          best_d := d;
          best := j
        end
      end)
    db;
  (!best, !best_d)

let compute ?pool ~space ~db ~queries () =
  if Array.length db = 0 then invalid_arg "Ground_truth.compute: empty database";
  if Array.length queries = 0 then invalid_arg "Ground_truth.compute: no queries";
  let scan_query q = scan space db ~exclude:(-1) q in
  (* A scan pays |db| distances against its own query, so a long query
     costs proportionally more under sequence metrics. *)
  let pairs =
    Dbh_util.Pool.parallel_map_array ?pool ?cost:(Space.cost_estimator space queries)
      scan_query queries
  in
  {
    nn_index = Array.map fst pairs;
    nn_distance = Array.map snd pairs;
    cost_per_query = Array.length db;
  }

let compute_self ~space ~db ~query_indices =
  if Array.length db < 2 then invalid_arg "Ground_truth.compute_self: database too small";
  if Array.length query_indices = 0 then invalid_arg "Ground_truth.compute_self: no queries";
  let pairs = Array.map (fun qi -> scan space db ~exclude:qi db.(qi)) query_indices in
  {
    nn_index = Array.map fst pairs;
    nn_distance = Array.map snd pairs;
    cost_per_query = Array.length db - 1;
  }

let compute_range ~space ~db ~queries ~radius =
  if Array.length db = 0 then invalid_arg "Ground_truth.compute_range: empty database";
  if radius < 0. then invalid_arg "Ground_truth.compute_range: negative radius";
  Array.map
    (fun q ->
      let hits = ref [] in
      Array.iteri (fun j x -> if space.Space.distance q x <= radius then hits := j :: !hits) db;
      List.rev !hits)
    queries

let range_recall truth returned =
  let nq = Array.length truth in
  if Array.length returned <> nq then invalid_arg "Ground_truth.range_recall: length mismatch";
  let total = ref 0. and counted = ref 0 in
  for qi = 0 to nq - 1 do
    match truth.(qi) with
    | [] -> ()
    | expected ->
        incr counted;
        let got = List.map fst returned.(qi) in
        let hits = List.length (List.filter (fun id -> List.mem id got) expected) in
        total := !total +. (float_of_int hits /. float_of_int (List.length expected))
  done;
  if !counted = 0 then 1. else !total /. float_of_int !counted

let is_correct t qi answer =
  match answer with
  | None -> false
  | Some (idx, d) ->
      idx = t.nn_index.(qi)
      ||
      let truth = t.nn_distance.(qi) in
      let tol = 1e-9 *. Float.max 1. (Float.abs truth) in
      d <= truth +. tol

type knn = {
  neighbor_ids : int array array;
  neighbor_distances : float array array;
}

let compute_knn ~space ~db ~queries ~k =
  if Array.length db = 0 then invalid_arg "Ground_truth.compute_knn: empty database";
  if k < 1 then invalid_arg "Ground_truth.compute_knn: k must be >= 1";
  let k = min k (Array.length db) in
  let per_query q =
    let heap = Dbh_util.Bounded_heap.create k in
    Array.iteri (fun j x -> ignore (Dbh_util.Bounded_heap.push heap (space.Space.distance q x) j)) db;
    let sorted = Dbh_util.Bounded_heap.to_sorted_list heap in
    ( Array.of_list (List.map snd sorted),
      Array.of_list (List.map fst sorted) )
  in
  let pairs = Array.map per_query queries in
  { neighbor_ids = Array.map fst pairs; neighbor_distances = Array.map snd pairs }

let recall_at_k t answers =
  let nq = Array.length t.neighbor_ids in
  if Array.length answers <> nq then invalid_arg "Ground_truth.recall_at_k: length mismatch";
  let total = ref 0. in
  for qi = 0 to nq - 1 do
    let truth_ids = t.neighbor_ids.(qi) in
    let k = Array.length truth_ids in
    let kth = t.neighbor_distances.(qi).(k - 1) in
    let tol = 1e-9 *. Float.max 1. (Float.abs kth) in
    let hits =
      Array.fold_left
        (fun acc (id, d) ->
          if Array.exists (fun tid -> tid = id) truth_ids || d <= kth +. tol then acc + 1
          else acc)
        0 answers.(qi)
    in
    total := !total +. (float_of_int (min hits k) /. float_of_int k)
  done;
  !total /. float_of_int nq

let accuracy t answers =
  if Array.length answers <> Array.length t.nn_index then
    invalid_arg "Ground_truth.accuracy: length mismatch";
  let correct = ref 0 in
  Array.iteri (fun qi a -> if is_correct t qi a then incr correct) answers;
  float_of_int !correct /. float_of_int (Array.length answers)
