let levenshtein a b =
  (* Keep the shorter string in the inner dimension for O(min) space. *)
  let a, b = if String.length a < String.length b then (a, b) else (b, a) in
  let n = String.length a in
  let m = String.length b in
  let prev = Array.init (n + 1) float_of_int in
  let cur = Array.make (n + 1) 0. in
  for j = 1 to m do
    cur.(0) <- float_of_int j;
    for i = 1 to n do
      let subst = if a.[i - 1] = b.[j - 1] then prev.(i - 1) else prev.(i - 1) +. 1. in
      let del = prev.(i) +. 1. in
      let ins = cur.(i - 1) +. 1. in
      cur.(i) <- Float.min subst (Float.min del ins)
    done;
    Array.blit cur 0 prev 0 (n + 1)
  done;
  prev.(n)

(* O(|a|*|b|) dynamic program: cost scales with the string length. *)
let space =
  Dbh_space.Space.make ~item_cost:String.length ~name:"levenshtein" levenshtein
