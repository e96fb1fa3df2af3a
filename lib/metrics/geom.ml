type point = { x : float; y : float }

let point x y = { x; y }

let add a b = { x = a.x +. b.x; y = a.y +. b.y }
let sub a b = { x = a.x -. b.x; y = a.y -. b.y }
let scale s p = { x = s *. p.x; y = s *. p.y }
let dot a b = (a.x *. b.x) +. (a.y *. b.y)
let norm p = sqrt (dot p p)
let dist_sq a b = ((a.x -. b.x) *. (a.x -. b.x)) +. ((a.y -. b.y) *. (a.y -. b.y))
let dist a b = sqrt (dist_sq a b)

let rotate theta p =
  let c = cos theta and s = sin theta in
  { x = (c *. p.x) -. (s *. p.y); y = (s *. p.x) +. (c *. p.y) }

let angle_of p =
  let a = atan2 p.y p.x in
  if a < 0. then a +. (2. *. Float.pi) else a

let translate offset pts = Array.map (add offset) pts
let rotate_all theta pts = Array.map (rotate theta) pts

let mean_pairwise_distance pts =
  let n = Array.length pts in
  if n < 2 then invalid_arg "Geom.mean_pairwise_distance: need at least two points";
  let total = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      total := !total +. dist pts.(i) pts.(j)
    done
  done;
  !total /. float_of_int (n * (n - 1) / 2)

let path_length poly =
  let total = ref 0. in
  for i = 0 to Array.length poly - 2 do
    total := !total +. dist poly.(i) poly.(i + 1)
  done;
  !total

let resample n poly =
  if n < 2 then invalid_arg "Geom.resample: need n >= 2";
  let len = Array.length poly in
  if len = 0 then invalid_arg "Geom.resample: empty polyline";
  if len = 1 then Array.make n poly.(0)
  else begin
    let total = path_length poly in
    if total <= 0. then Array.make n poly.(0)
    else begin
      let step = total /. float_of_int (n - 1) in
      let out = Array.make n poly.(0) in
      out.(n - 1) <- poly.(len - 1);
      (* Walk the polyline, emitting a point every [step] of arc length. *)
      let seg = ref 0 in
      let seg_start = ref 0. in
      for i = 1 to n - 2 do
        let target = float_of_int i *. step in
        while
          !seg < len - 2 && !seg_start +. dist poly.(!seg) poly.(!seg + 1) < target
        do
          seg_start := !seg_start +. dist poly.(!seg) poly.(!seg + 1);
          incr seg
        done;
        let seg_len = dist poly.(!seg) poly.(!seg + 1) in
        let frac = if seg_len > 0. then (target -. !seg_start) /. seg_len else 0. in
        let frac = Float.max 0. (Float.min 1. frac) in
        out.(i) <- add poly.(!seg) (scale frac (sub poly.(!seg + 1) poly.(!seg)))
      done;
      out
    end
  end
