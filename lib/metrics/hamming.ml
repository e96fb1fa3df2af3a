let bools a b =
  if Array.length a <> Array.length b then invalid_arg "Hamming.bools: length mismatch";
  let acc = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then incr acc
  done;
  float_of_int !acc

let bool_space = Dbh_space.Space.make ~name:"hamming-bool" bools
