let distance ?band ~cost a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Dtw.distance: empty sequence";
  (* Row i of the DP table covers prefix a[0..i]; we keep two rows.
     With a band, column j is admissible for row i when
     |j - i*m/n| <= band (slope-normalized Sakoe-Chiba). *)
  let admissible =
    match band with
    | None -> fun _ _ -> true
    | Some w ->
        if w < 0 then invalid_arg "Dtw.distance: negative band";
        fun i j ->
          let center = i * (m - 1) / max 1 (n - 1) in
          abs (j - center) <= w + abs (m - n)
  in
  let prev = Array.make m infinity in
  let cur = Array.make m infinity in
  for j = 0 to m - 1 do
    if admissible 0 j then
      prev.(j) <- (if j = 0 then cost a.(0) b.(0) else prev.(j - 1) +. cost a.(0) b.(j))
  done;
  for i = 1 to n - 1 do
    Array.fill cur 0 m infinity;
    for j = 0 to m - 1 do
      if admissible i j then begin
        let best =
          if j = 0 then prev.(0)
          else Float.min prev.(j) (Float.min prev.(j - 1) cur.(j - 1))
        in
        if best < infinity then cur.(j) <- best +. cost a.(i) b.(j)
      end
    done;
    Array.blit cur 0 prev 0 m
  done;
  prev.(m - 1)

let path ~cost a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Dtw.path: empty sequence";
  let d = Array.make_matrix n m infinity in
  for i = 0 to n - 1 do
    for j = 0 to m - 1 do
      let c = cost a.(i) b.(j) in
      let best =
        if i = 0 && j = 0 then 0.
        else if i = 0 then d.(0).(j - 1)
        else if j = 0 then d.(i - 1).(0)
        else Float.min d.(i - 1).(j) (Float.min d.(i).(j - 1) d.(i - 1).(j - 1))
      in
      d.(i).(j) <- best +. c
    done
  done;
  (* Backtrack from the terminal cell. *)
  let rec back i j acc =
    if i = 0 && j = 0 then (i, j) :: acc
    else begin
      let candidates =
        List.filter
          (fun (i', j') -> i' >= 0 && j' >= 0)
          [ (i - 1, j - 1); (i - 1, j); (i, j - 1) ]
      in
      let best =
        List.fold_left
          (fun acc (i', j') ->
            match acc with
            | None -> Some (i', j')
            | Some (bi, bj) -> if d.(i').(j') < d.(bi).(bj) then Some (i', j') else acc)
          None candidates
      in
      match best with
      | Some (i', j') -> back i' j' ((i, j) :: acc)
      | None -> assert false
    end
  in
  (back (n - 1) (m - 1) [], d.(n - 1).(m - 1))

let float_cost x y = Float.abs (x -. y)

let floats ?band a b = distance ?band ~cost:float_cost a b

(* [Float.min x y] bit for bit, restated so that it inlines: without
   flambda the stdlib call is a real call that boxes both arguments.
   The two strict comparisons settle every pair but ties and NaNs, which
   take [Float.min]'s own branches. *)
let[@inline] float_min (x : float) (y : float) =
  if y > x then x
  else if y < x then y
  else if (not (Float.sign_bit y)) && Float.sign_bit x then if Float.is_nan y then y else x
  else if Float.is_nan x then x
  else y

(* [Geom.dist (ax, ay) pt], in [Geom.dist]'s operation order. *)
let[@inline] ground ax ay (pt : Geom.point) =
  let dx = ax -. pt.Geom.x and dy = ay -. pt.Geom.y in
  sqrt ((dx *. dx) +. (dy *. dy))

(* [distance ~cost:Geom.dist] specialized: the same recurrence in the
   same operation order, so the result is bit-identical, with the
   ground cost inline, the neighbouring cells in locals and the two rows
   swapped instead of refilled and copied. *)
let points a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Dtw.points: empty sequence";
  let prev = ref (Array.make m infinity) and cur = ref (Array.make m infinity) in
  let a0 = a.(0) and p = !prev in
  p.(0) <- ground a0.Geom.x a0.Geom.y b.(0);
  for j = 1 to m - 1 do
    p.(j) <- p.(j - 1) +. ground a0.Geom.x a0.Geom.y b.(j)
  done;
  for i = 1 to n - 1 do
    let p = !prev and q = !cur in
    let ax = a.(i).Geom.x and ay = a.(i).Geom.y in
    (* [diag] is p.(j - 1) and [left] q.(j - 1); both start at the
       infinite border, and [float_min x infinity] is [x] bit for bit,
       so column 0 takes p.(0) as [distance] does. *)
    let diag = ref infinity and left = ref infinity in
    for j = 0 to m - 1 do
      let up = p.(j) in
      let best = float_min up (float_min !diag !left) in
      left := if best < infinity then best +. ground ax ay b.(j) else infinity;
      q.(j) <- !left;
      diag := up
    done;
    prev := q;
    cur := p
  done;
  !prev.(m - 1)

(* DTW is O(|a|*|b|), so one element's share of a distance call scales
   with its own length. *)
let float_space =
  Dbh_space.Space.make ~item_cost:Array.length ~name:"DTW-1d" (fun a b -> floats a b)
