let match_score = 2.
let mismatch = -1.
let gap = -2.

let needleman_wunsch a b =
  (* Keep the shorter string in the inner dimension. *)
  let a, b = if String.length a < String.length b then (a, b) else (b, a) in
  let n = String.length a and m = String.length b in
  let prev = Array.init (n + 1) (fun i -> float_of_int i *. gap) in
  let cur = Array.make (n + 1) 0. in
  for j = 1 to m do
    cur.(0) <- float_of_int j *. gap;
    for i = 1 to n do
      let diag = prev.(i - 1) +. if a.[i - 1] = b.[j - 1] then match_score else mismatch in
      let up = prev.(i) +. gap in
      let left = cur.(i - 1) +. gap in
      cur.(i) <- Float.max diag (Float.max up left)
    done;
    Array.blit cur 0 prev 0 (n + 1)
  done;
  prev.(n)

let global_distance a b =
  let longest = float_of_int (max (String.length a) (String.length b)) in
  (match_score *. longest) -. needleman_wunsch a b

let smith_waterman a b =
  let a, b = if String.length a < String.length b then (a, b) else (b, a) in
  let n = String.length a and m = String.length b in
  let prev = Array.make (n + 1) 0. in
  let cur = Array.make (n + 1) 0. in
  let best = ref 0. in
  for j = 1 to m do
    cur.(0) <- 0.;
    for i = 1 to n do
      let diag = prev.(i - 1) +. if a.[i - 1] = b.[j - 1] then match_score else mismatch in
      let up = prev.(i) +. gap in
      let left = cur.(i - 1) +. gap in
      let v = Float.max 0. (Float.max diag (Float.max up left)) in
      cur.(i) <- v;
      if v > !best then best := v
    done;
    Array.blit cur 0 prev 0 (n + 1)
  done;
  !best

let local_distance a b =
  if String.length a = 0 || String.length b = 0 then
    invalid_arg "Alignment.local_distance: empty string";
  let saa = smith_waterman a a and sbb = smith_waterman b b in
  if saa <= 0. || sbb <= 0. then 1. else 1. -. (smith_waterman a b /. sqrt (saa *. sbb))

(* Both alignments fill an O(|a|*|b|) table: cost scales with the
   sequence length. *)
let global_space = Dbh_space.Space.make ~item_cost:String.length ~name:"nw-global" global_distance
let local_space = Dbh_space.Space.make ~item_cost:String.length ~name:"sw-local" local_distance
