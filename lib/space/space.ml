type 'a t = {
  name : string;
  distance : 'a -> 'a -> float;
  item_cost : ('a -> int) option;
}

let make ?item_cost ~name distance = { name; distance; item_cost }
let rename name t = { t with name }

let item_cost t x = match t.item_cost with None -> 1 | Some c -> max 1 (c x)
let has_item_cost t = Option.is_some t.item_cost
let cost_estimator t arr = Option.map (fun c i -> max 1 (c arr.(i))) t.item_cost

(* Atomic so that parallel paths (Dbh_util.Pool fan-outs hashing and
   candidate evaluation across domains) never undercount: the tally is
   exact under concurrent use, not just under single-domain use. *)
type counter = int Atomic.t

let counter () = Atomic.make 0
let count c = Atomic.get c
let reset c = Atomic.set c 0

let counted c t =
  let distance x y =
    Atomic.incr c;
    t.distance x y
  in
  { t with distance }

let with_counter t =
  let c = counter () in
  (counted c t, c)

(* The ambient-metrics lookup is one Atomic.get per call; with nothing
   installed the only cost over the raw space is that load. *)
let observed t =
  let distance x y =
    (match Dbh_obs.Metrics.get () with
    | None -> ()
    | Some m -> Dbh_obs.Registry.inc m.Dbh_obs.Metrics.space_distance_calls_total);
    t.distance x y
  in
  { t with distance }

let of_matrix ?(name = "matrix") m =
  let n = Array.length m in
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Space.of_matrix: matrix not square";
      Array.iter
        (fun d ->
          if Float.is_nan d then invalid_arg "Space.of_matrix: NaN entry";
          if d < 0. then invalid_arg "Space.of_matrix: negative entry")
        row)
    m;
  let distance i j = m.(i).(j) in
  { name; distance; item_cost = None }

let random_metric_matrix rng n =
  let m = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d = Dbh_util.Rng.float_in rng 1. 2. in
      m.(i).(j) <- d;
      m.(j).(i) <- d
    done
  done;
  m

let transform ~name f s =
  let distance x y = s.distance (f x) (f y) in
  (* Pull the cost estimate back along the feature map too. *)
  { name; distance; item_cost = Option.map (fun c x -> c (f x)) s.item_cost }

let is_symmetric ?(tol = 1e-9) t sample =
  let n = Array.length sample in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let d1 = t.distance sample.(i) sample.(j)
      and d2 = t.distance sample.(j) sample.(i) in
      if Float.abs (d1 -. d2) > tol then ok := false
    done
  done;
  !ok

let triangle_violations ?(tol = 1e-9) t sample =
  let n = Array.length sample in
  (* Cache pairwise distances to avoid O(n^3) distance evaluations. *)
  let d = Array.make_matrix n n 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then d.(i).(j) <- t.distance sample.(i) sample.(j)
    done
  done;
  let violations = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        if i <> j && j <> k && i <> k && d.(i).(k) > d.(i).(j) +. d.(j).(k) +. tol then
          incr violations
      done
    done
  done;
  !violations
