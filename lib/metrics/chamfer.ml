let directed a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then invalid_arg "Chamfer.directed: empty point set";
  let total = ref 0. in
  for i = 0 to na - 1 do
    let best = ref infinity in
    for j = 0 to nb - 1 do
      let d = Geom.dist_sq a.(i) b.(j) in
      if d < !best then best := d
    done;
    total := !total +. sqrt !best
  done;
  !total /. float_of_int na

let symmetric a b = directed a b +. directed b a

type grid = {
  size : int;
  lo : float;
  hi : float;
  dist : float array;  (* row-major [size*size] Euclidean distance field *)
}

(* 1-D squared distance transform (Felzenszwalb & Huttenlocher): exact
   lower envelope of parabolas rooted at f.  Cells with f = infinity carry
   no parabola and are skipped; an all-infinite row stays infinite. *)
let dt1d f =
  let n = Array.length f in
  let v = Array.make n 0 in
  let z = Array.make (n + 1) 0. in
  let k = ref (-1) in
  let intersect q p =
    (* Abscissa where parabola rooted at q overtakes the one rooted at p. *)
    (f.(q) +. float_of_int (q * q) -. (f.(p) +. float_of_int (p * p)))
    /. float_of_int (2 * (q - p))
  in
  for q = 0 to n - 1 do
    if f.(q) < infinity then begin
      if !k < 0 then begin
        k := 0;
        v.(0) <- q;
        z.(0) <- neg_infinity;
        z.(1) <- infinity
      end
      else begin
        let s = ref (intersect q v.(!k)) in
        while !k > 0 && !s <= z.(!k) do
          decr k;
          s := intersect q v.(!k)
        done;
        if !k = 0 && !s <= z.(0) then begin
          v.(0) <- q;
          z.(0) <- neg_infinity;
          z.(1) <- infinity
        end
        else begin
          incr k;
          v.(!k) <- q;
          z.(!k) <- !s;
          z.(!k + 1) <- infinity
        end
      end
    end
  done;
  if !k < 0 then Array.make n infinity
  else begin
    let d = Array.make n 0. in
    let j = ref 0 in
    for q = 0 to n - 1 do
      while z.(!j + 1) < float_of_int q do
        incr j
      done;
      let p = v.(!j) in
      let dq = float_of_int (q - p) in
      d.(q) <- (dq *. dq) +. f.(p)
    done;
    d
  end

let grid_of_points ~size ~lo ~hi pts =
  if size < 2 then invalid_arg "Chamfer.grid_of_points: size too small";
  if hi <= lo then invalid_arg "Chamfer.grid_of_points: empty range";
  if Array.length pts = 0 then invalid_arg "Chamfer.grid_of_points: empty point set";
  let cell = (hi -. lo) /. float_of_int (size - 1) in
  let inf = infinity in
  let f = Array.make (size * size) inf in
  Array.iter
    (fun (p : Geom.point) ->
      let ix = int_of_float (Float.round ((p.x -. lo) /. cell)) in
      let iy = int_of_float (Float.round ((p.y -. lo) /. cell)) in
      let ix = max 0 (min (size - 1) ix) and iy = max 0 (min (size - 1) iy) in
      f.((iy * size) + ix) <- 0.)
    pts;
  (* Two-pass separable squared distance transform, in grid units. *)
  let col = Array.make size 0. in
  for x = 0 to size - 1 do
    for y = 0 to size - 1 do
      col.(y) <- f.((y * size) + x)
    done;
    let d = dt1d col in
    for y = 0 to size - 1 do
      f.((y * size) + x) <- d.(y)
    done
  done;
  let row = Array.make size 0. in
  for y = 0 to size - 1 do
    for x = 0 to size - 1 do
      row.(x) <- f.((y * size) + x)
    done;
    let d = dt1d row in
    for x = 0 to size - 1 do
      f.((y * size) + x) <- d.(x)
    done
  done;
  let dist = Array.map (fun sq -> cell *. sqrt sq) f in
  { size; lo; hi; dist }

let directed_to_grid a g =
  if Array.length a = 0 then invalid_arg "Chamfer.directed_to_grid: empty point set";
  let cell = (g.hi -. g.lo) /. float_of_int (g.size - 1) in
  let total = ref 0. in
  Array.iter
    (fun (p : Geom.point) ->
      let ix = int_of_float (Float.round ((p.x -. g.lo) /. cell)) in
      let iy = int_of_float (Float.round ((p.y -. g.lo) /. cell)) in
      let ix = max 0 (min (g.size - 1) ix) and iy = max 0 (min (g.size - 1) iy) in
      total := !total +. g.dist.((iy * g.size) + ix))
    a;
  !total /. float_of_int (Array.length a)
