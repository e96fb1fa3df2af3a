type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

(* splitmix64: used only to expand the seed into the xoshiro state, as
   recommended by the xoshiro authors. *)
let splitmix64_next state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let state t = [| t.s0; t.s1; t.s2; t.s3 |]

let of_state a =
  if Array.length a <> 4 then invalid_arg "Rng.of_state: expected 4 state words";
  if Array.for_all (fun w -> w = 0L) a then invalid_arg "Rng.of_state: all-zero state";
  { s0 = a.(0); s1 = a.(1); s2 = a.(2); s3 = a.(3) }

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let state = ref (bits64 t) in
  let s0 = splitmix64_next state in
  let s1 = splitmix64_next state in
  let s2 = splitmix64_next state in
  let s3 = splitmix64_next state in
  { s0; s1; s2; s3 }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  Array.init n (fun _ -> split t)

(* Non-negative 62-bit integer, avoiding the sign bit entirely. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let rec draw () =
    let v = bits62 t in
    if v >= limit then draw () else v mod bound
  in
  draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let unit_float t =
  (* 53 random bits mapped to [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v *. 0x1p-53

let float t bound = unit_float t *. bound

let float_in t lo hi = lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian ?(mu = 0.) ?(sigma = 1.) t =
  (* Box–Muller; draw u1 away from 0 so log is finite. *)
  let rec nonzero () =
    let u = unit_float t in
    if u <= 1e-300 then nonzero () else u
  in
  let u1 = nonzero () in
  let u2 = unit_float t in
  let r = sqrt (-2. *. log u1) in
  mu +. (sigma *. r *. cos (2. *. Float.pi *. u2))

let exponential t lambda =
  if lambda <= 0. then invalid_arg "Rng.exponential: lambda must be positive";
  let rec nonzero () =
    let u = unit_float t in
    if u <= 1e-300 then nonzero () else u
  in
  -.log (nonzero ()) /. lambda

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let choose_index_weighted t weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Rng.choose_index_weighted: empty weights";
  let total = Array.fold_left (fun acc w ->
      if w < 0. then invalid_arg "Rng.choose_index_weighted: negative weight";
      acc +. w)
      0. weights
  in
  if total <= 0. then invalid_arg "Rng.choose_index_weighted: zero total weight";
  let target = float t total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. weights.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.

let sample_indices t m n =
  if m < 0 || m > n then invalid_arg "Rng.sample_indices";
  (* Partial Fisher–Yates over an index array. *)
  let idx = Array.init n (fun i -> i) in
  for i = 0 to m - 1 do
    let j = int_in t i (n - 1) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  Array.sub idx 0 m

let sample_without_replacement t m arr =
  let n = Array.length arr in
  if m < 0 || m > n then invalid_arg "Rng.sample_without_replacement";
  Array.map (fun i -> arr.(i)) (sample_indices t m n)

let permutation t n = sample_indices t n n

let subsample t m arr =
  if m >= Array.length arr then Array.copy arr
  else sample_without_replacement t m arr
