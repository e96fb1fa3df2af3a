type t = int

let max_bits = 62

let check_width k =
  if k < 1 || k > max_bits then
    invalid_arg (Printf.sprintf "Key: width must be in [1, %d], got %d" max_bits k)

let zero = 0
let push_bit key b = (key lsl 1) lor (if b then 1 else 0)

let of_bits bits =
  let k = Array.length bits in
  check_width k;
  Array.fold_left push_bit zero bits

(* [push_bit] over [cells.[positions.(j)]], spelled out so the fold stays
   one loop of loads and shifts: a known cell's byte is its bit. *)
let of_row cells positions =
  let key = ref zero in
  for j = 0 to Array.length positions - 1 do
    key := (!key lsl 1) lor Char.code (Bytes.get cells (Array.unsafe_get positions j))
  done;
  !key

let to_bits ~width key =
  check_width width;
  if key < 0 || (width < max_bits && key lsr width <> 0) then
    invalid_arg "Key.to_bits: key does not fit in width";
  Array.init width (fun j -> (key lsr (width - 1 - j)) land 1 = 1)

let to_int key = key
let of_int ~width key =
  check_width width;
  if key < 0 || (width < max_bits && key lsr width <> 0) then
    invalid_arg "Key.of_int: key does not fit in width";
  key

let compare : t -> t -> int = Int.compare
let equal : t -> t -> bool = Int.equal

let popcount key =
  let n = ref 0 and x = ref key in
  while !x <> 0 do
    incr n;
    x := !x land (!x - 1)
  done;
  !n

let hamming a b = popcount (a lxor b)

let max_radius = 2

let check_radius radius =
  if radius < 0 || radius > max_radius then
    invalid_arg
      (Printf.sprintf "Key: Hamming radius must be in [0, %d], got %d" max_radius radius)

let ball_size ~width ~radius =
  check_width width;
  check_radius radius;
  match radius with
  | 0 -> 0
  | 1 -> width
  | _ -> width + (width * (width - 1) / 2)
