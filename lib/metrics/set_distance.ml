let dedup_sorted arr =
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  let out = ref [] and last = ref None in
  Array.iter
    (fun x ->
      if !last <> Some x then begin
        out := x :: !out;
        last := Some x
      end)
    sorted;
  Array.of_list (List.rev !out)

(* |A ∩ B| of two sorted deduplicated arrays. *)
let intersection_size a b =
  let i = ref 0 and j = ref 0 and count = ref 0 in
  while !i < Array.length a && !j < Array.length b do
    let c = compare a.(!i) b.(!j) in
    if c = 0 then begin
      incr count;
      incr i;
      incr j
    end
    else if c < 0 then incr i
    else incr j
  done;
  !count

let sizes a b =
  let a = dedup_sorted a and b = dedup_sorted b in
  let inter = intersection_size a b in
  (Array.length a, Array.length b, inter)

let jaccard a b =
  let na, nb, inter = sizes a b in
  let union = na + nb - inter in
  if union = 0 then 0. else 1. -. (float_of_int inter /. float_of_int union)
