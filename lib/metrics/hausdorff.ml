let nearest_distances a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 || nb = 0 then invalid_arg "Hausdorff: empty point set";
  Array.map
    (fun p ->
      let best = ref infinity in
      for j = 0 to nb - 1 do
        let d = Geom.dist_sq p b.(j) in
        if d < !best then best := d
      done;
      sqrt !best)
    a

let directed a b = Dbh_util.Stats.maximum (nearest_distances a b)

let symmetric a b = Float.max (directed a b) (directed b a)

let partial ~fraction a b =
  if fraction <= 0. || fraction > 1. then invalid_arg "Hausdorff.partial: fraction in (0,1]";
  Dbh_util.Stats.quantile (nearest_distances a b) fraction

(* All-pairs nearest-point scans: O(|a|*|b|). *)
let partial_space ~fraction =
  Dbh_space.Space.make ~item_cost:Array.length
    ~name:(Printf.sprintf "hausdorff-partial(%.2f)" fraction)
    (fun a b -> Float.max (partial ~fraction a b) (partial ~fraction b a))
