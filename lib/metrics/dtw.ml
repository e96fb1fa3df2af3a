let distance ~cost a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Dtw.distance: empty sequence";
  (* Row i of the DP table covers prefix a[0..i]; we keep two rows. *)
  let prev = Array.make m infinity in
  let cur = Array.make m infinity in
  for j = 0 to m - 1 do
    prev.(j) <- (if j = 0 then cost a.(0) b.(0) else prev.(j - 1) +. cost a.(0) b.(j))
  done;
  for i = 1 to n - 1 do
    Array.fill cur 0 m infinity;
    for j = 0 to m - 1 do
      let best =
        if j = 0 then prev.(0)
        else Float.min prev.(j) (Float.min prev.(j - 1) cur.(j - 1))
      in
      if best < infinity then cur.(j) <- best +. cost a.(i) b.(j)
    done;
    Array.blit cur 0 prev 0 m
  done;
  prev.(m - 1)

let float_cost x y = Float.abs (x -. y)

let floats a b = distance ~cost:float_cost a b

(* Each domain's DTW block: [b]'s x coordinates, its y coordinates and
   the two DP rows, [m] floats each.  A longer [b] replaces it with a
   larger one. *)
let blocks = Dbh_util.Per_domain.make (fun () -> Array.create_float (4 * 32))

(* [Geom.dist] from (ax, ay) to point [j] of the trajectory copied into
   [w], in [Geom.dist]'s operation order. *)
let[@inline] ground w m ax ay j =
  let dx = ax -. Array.unsafe_get w j and dy = ay -. Array.unsafe_get w (m + j) in
  sqrt ((dx *. dx) +. (dy *. dy))

(* [distance ~cost:Geom.dist] specialized for finite coordinates.  Then
   every ground cost is [sqrt] of a sum of squares and every DP cell a
   sum of them, so every operand lies in [+0, +inf], with no NaN and no
   -0: there two strict comparisons give [Float.min]'s bits, and
   [distance]'s [best < infinity] guard changes nothing (+inf plus a
   cost is +inf).  The recurrence and the ground cost keep [distance]'s
   and [Geom.dist]'s operation order, so the result is bit-identical.
   Any other input takes [distance] itself. *)
let points a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then invalid_arg "Dtw.points: empty sequence";
  let w = Dbh_util.Per_domain.take blocks in
  let w = if Array.length w >= 4 * m then w else Array.create_float (4 * m) in
  (* [x -. x] is +0 for finite [x] and NaN otherwise, so [finite] stays
     +0 exactly when every coordinate is finite. *)
  let finite = ref 0. in
  for j = 0 to m - 1 do
    let p = Array.unsafe_get b j in
    let x = p.Geom.x and y = p.Geom.y in
    Array.unsafe_set w j x;
    Array.unsafe_set w (m + j) y;
    finite := !finite +. (x -. x) +. (y -. y)
  done;
  for i = 0 to n - 1 do
    let p = Array.unsafe_get a i in
    finite := !finite +. (p.Geom.x -. p.Geom.x) +. (p.Geom.y -. p.Geom.y)
  done;
  let d =
    if not (!finite = 0.) then distance ~cost:Geom.dist a b
    else begin
      let prev = ref (2 * m) and cur = ref (3 * m) in
      let p = !prev and ax = a.(0).Geom.x and ay = a.(0).Geom.y in
      Array.unsafe_set w p (ground w m ax ay 0);
      for j = 1 to m - 1 do
        Array.unsafe_set w (p + j) (Array.unsafe_get w (p + j - 1) +. ground w m ax ay j)
      done;
      for i = 1 to n - 1 do
        let p = !prev and q = !cur in
        let ax = a.(i).Geom.x and ay = a.(i).Geom.y in
        (* [diag] is cell j - 1 of the row above and [left] cell j - 1
           of this one; both start at the infinite border, so column 0
           takes the cell above, as in [distance]. *)
        let diag = ref infinity and left = ref infinity in
        for j = 0 to m - 1 do
          let up = Array.unsafe_get w (p + j) and d = !diag and l = !left in
          let best = if up < d then if up < l then up else l else if d < l then d else l in
          left := best +. ground w m ax ay j;
          Array.unsafe_set w (q + j) !left;
          diag := up
        done;
        prev := q;
        cur := p
      done;
      Array.unsafe_get w (!prev + m - 1)
    end
  in
  Dbh_util.Per_domain.give blocks w;
  d
