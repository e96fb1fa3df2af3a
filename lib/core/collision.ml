module Rng = Dbh_util.Rng
module Bitvec = Dbh_util.Bitvec

let check_rate c = if c < 0. || c > 1. then invalid_arg "Collision: rate outside [0,1]"

let c_k c k =
  check_rate c;
  if k < 0 then invalid_arg "Collision.c_k: negative k";
  c ** float_of_int k

let c_kl c ~k ~l =
  if l < 0 then invalid_arg "Collision.c_kl: negative l";
  let ck = c_k c k in
  1. -. ((1. -. ck) ** float_of_int l)

let l_for_target c ~k ~target =
  check_rate target;
  let ck = c_k c k in
  if ck >= 1. then Some 1
  else if target <= 0. then Some 0
  else if ck <= 0. then None
  else begin
    (* 1 - (1-ck)^l >= target  <=>  l >= log(1-target)/log(1-ck) *)
    let l = Float.ceil (log (1. -. target) /. log (1. -. ck)) in
    if Float.is_integer l && l >= 0. && l < 1e9 then Some (max 1 (int_of_float l)) else None
  end

(* How many extra probes land on 1-flip vs 2-flip keys.  The probe
   sequence visits cheapest subsets first, but which mix of sizes a
   margin-driven walk picks is query-dependent; the model assumes the
   radius-1 shell fills before any radius-2 key — the dominant regime,
   since single flips are (weakly) cheaper than any pair containing
   them.  The range-scan path probes the full ball, which this same
   split covers with extra >= ball. *)
let probe_split ~k ~probes ~radius =
  if probes < 1 then invalid_arg "Collision: probes must be >= 1";
  if radius < 0 || radius > 2 then invalid_arg "Collision: radius must be in [0, 2]";
  if k < 0 then invalid_arg "Collision: negative k";
  let extra = probes - 1 in
  let n1 = if radius >= 1 then min extra k else 0 in
  let n2 = if radius >= 2 then min (extra - n1) (k * (k - 1) / 2) else 0 in
  (n1, n2)

(* Eq. 9 extended to multi-probe: a probed bucket at Hamming distance m
   from the base key collides with the query's neighbor exactly when the
   m flipped bits all disagree (probability (1-c) each) and the other
   k-m agree.  The events are disjoint across distinct flip subsets, so
   the per-table collision probability is the plain c^k plus one term
   per probed key. *)
let c_k_probed c ~k ~probes ~radius =
  check_rate c;
  let n1, n2 = probe_split ~k ~probes ~radius in
  let base = c_k c k in
  let miss = 1. -. c in
  let one = if n1 = 0 then 0. else float_of_int n1 *. (c ** float_of_int (k - 1)) *. miss in
  let two =
    if n2 = 0 then 0.
    else float_of_int n2 *. (c ** float_of_int (k - 2)) *. miss *. miss
  in
  Float.min 1. (base +. one +. two)

(* Eq. 10 with the probed per-table rate. *)
let c_kl_probed c ~k ~l ~probes ~radius =
  if l < 0 then invalid_arg "Collision.c_kl_probed: negative l";
  let ck = c_k_probed c ~k ~probes ~radius in
  1. -. ((1. -. ck) ** float_of_int l)

let l_for_target_probed c ~k ~probes ~radius ~target =
  check_rate target;
  let ck = c_k_probed c ~k ~probes ~radius in
  if ck >= 1. then Some 1
  else if target <= 0. then Some 0
  else if ck <= 0. then None
  else begin
    let l = Float.ceil (log (1. -. target) /. log (1. -. ck)) in
    if Float.is_integer l && l >= 0. && l < 1e9 then Some (max 1 (int_of_float l)) else None
  end

let estimate ~rng ?(num_fns = 200) family x1 x2 =
  let fn_indices = Hash_family.sample_fn_indices ~rng family num_fns in
  let s1 = Hash_family.signature family ~fn_indices x1 in
  let s2 = Hash_family.signature family ~fn_indices x2 in
  Bitvec.agreement s1 s2

let estimate_exact family x1 x2 =
  let n = Hash_family.size family in
  let fn_indices = Array.init n (fun i -> i) in
  let s1 = Hash_family.signature family ~fn_indices x1 in
  let s2 = Hash_family.signature family ~fn_indices x2 in
  Bitvec.agreement s1 s2

let pairwise_matrix ?pool ~rng ?(num_fns = 200) family sample =
  let fn_indices = Hash_family.sample_fn_indices ~rng family num_fns in
  (* Signatures dominate the cost (each pays up to num_pivots distances);
     they are independent per object, so they fan out across the pool.
     The function draw happens before, so the matrix is bit-identical to
     the sequential run for the same seed. *)
  let sig_of = Hash_family.signature family ~fn_indices in
  (* One signature pays pivot distances against a fixed pivot set, so an
     object's share scales with its own declared cost. *)
  let signatures =
    Dbh_util.Pool.parallel_map_array ?pool
      ?cost:(Dbh_space.Space.cost_estimator (Hash_family.space family) sample)
      sig_of sample
  in
  let n = Array.length sample in
  let m = Array.make_matrix n n 1. in
  let fill_row i =
    for j = i + 1 to n - 1 do
      let c = Bitvec.agreement signatures.(i) signatures.(j) in
      m.(i).(j) <- c;
      m.(j).(i) <- c
    done
  in
  (* Rows write disjoint cells: row task i writes m.(i).(j>i) and the
     mirror cells m.(j>i).(i), never a cell another row task touches.
     The triangular loop makes row i cost n-1-i agreements, so chunk by
     that instead of row count. *)
  Dbh_util.Pool.parallel_for ?pool ~cost:(fun i -> n - i) n fill_row;
  m
