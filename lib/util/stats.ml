let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty array" name)

let sum xs =
  (* Kahan summation. *)
  let total = ref 0. and comp = ref 0. in
  Array.iter
    (fun x ->
      let y = x -. !comp in
      let t = !total +. y in
      comp := t -. !total -. y;
      total := t)
    xs;
  !total

let mean xs =
  check_nonempty "mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check_nonempty "variance" xs;
  let m = mean xs in
  let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0. xs in
  acc /. float_of_int (Array.length xs)

let stddev xs = sqrt (variance xs)

let minimum xs =
  check_nonempty "minimum" xs;
  Array.fold_left min xs.(0) xs

let maximum xs =
  check_nonempty "maximum" xs;
  Array.fold_left max xs.(0) xs

let quantiles_of_sorted sorted q =
  check_nonempty "quantiles_of_sorted" sorted;
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

(* [compare]'s order on floats: NaN before everything, then numeric
   order, -0. and 0. equal.  Both arguments are known floats, so this
   compiles to plain float comparisons, with nothing boxed. *)
let[@inline] before (a : float) b = a < b || (a <> a && b = b)

(* Sink [a.(i)] to its place in the max-heap [a.(0 .. len-1)]. *)
let sift_down a i len =
  let x = a.(i) in
  let i = ref i and sinking = ref true in
  while !sinking do
    let l = (2 * !i) + 1 in
    if l >= len then sinking := false
    else begin
      let c = if l + 1 < len && before a.(l) a.(l + 1) then l + 1 else l in
      if before x a.(c) then begin
        a.(!i) <- a.(c);
        i := c
      end
      else sinking := false
    end
  done;
  a.(!i) <- x

(* Heapsort: in place, O(n log n) on any input, no recursion. *)
let sort_floats a =
  let n = Array.length a in
  for i = (n / 2) - 1 downto 0 do
    sift_down a i n
  done;
  for last = n - 1 downto 1 do
    let top = a.(0) in
    a.(0) <- a.(last);
    a.(last) <- top;
    sift_down a 0 last
  done

let quantile xs q =
  check_nonempty "quantile" xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  quantiles_of_sorted sorted q

let median xs = quantile xs 0.5

let histogram ~bins xs =
  check_nonempty "histogram" xs;
  if bins <= 0 then invalid_arg "Stats.histogram: bins must be positive";
  let lo = minimum xs and hi = maximum xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  let counts = Array.make bins 0 in
  Array.iter
    (fun x ->
      let cell = int_of_float ((x -. lo) /. width) in
      let cell = if cell >= bins then bins - 1 else if cell < 0 then 0 else cell in
      counts.(cell) <- counts.(cell) + 1)
    xs;
  Array.init bins (fun i ->
      let a = lo +. (float_of_int i *. width) in
      (a, a +. width, counts.(i)))

let pearson xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Stats.pearson: length mismatch";
  check_nonempty "pearson" xs;
  let mx = mean xs and my = mean ys in
  let sxy = ref 0. and sxx = ref 0. and syy = ref 0. in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  if !sxx = 0. || !syy = 0. then 0. else !sxy /. sqrt (!sxx *. !syy)

let mean_ci95 xs =
  check_nonempty "mean_ci95" xs;
  let n = Array.length xs in
  let m = mean xs in
  if n = 1 then (m, 0.)
  else
    let s = stddev xs *. sqrt (float_of_int n /. float_of_int (n - 1)) in
    (m, 1.96 *. s /. sqrt (float_of_int n))
