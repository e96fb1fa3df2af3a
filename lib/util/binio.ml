exception Corrupt of string

(* Every fixed-width value is one little-endian 64-bit word, moved
   whole through the Buffer/String word accessors. *)
let write_int64 buf v = Buffer.add_int64_le buf v
let write_int buf v = Buffer.add_int64_le buf (Int64.of_int v)
let write_float buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let write_string buf s =
  write_int buf (String.length s);
  Buffer.add_string buf s

let write_int_array buf arr =
  write_int buf (Array.length arr);
  Array.iter (write_int buf) arr

let write_float_array buf arr =
  write_int buf (Array.length arr);
  Array.iter (write_float buf) arr

type reader = {
  data : string;
  mutable offset : int;
}

let reader data = { data; offset = 0 }
let pos r = r.offset
let at_end r = r.offset >= String.length r.data
let remaining r = max 0 (String.length r.data - r.offset)

(* [offset] never passes the end, so the subtraction cannot wrap; a
   sum [offset + n] would for [n] near [max_int]. *)
let need r n =
  if n > String.length r.data - r.offset then
    raise (Corrupt (Printf.sprintf "truncated input at offset %d (need %d bytes)" r.offset n))

let read_int64 r =
  need r 8;
  let v = String.get_int64_le r.data r.offset in
  r.offset <- r.offset + 8;
  v

let read_int r =
  need r 8;
  let v = Int64.to_int (String.get_int64_le r.data r.offset) in
  r.offset <- r.offset + 8;
  v

let read_float r = Int64.float_of_bits (read_int64 r)

let read_string r =
  let len = read_int r in
  if len < 0 then raise (Corrupt "negative string length");
  need r len;
  let s = String.sub r.data r.offset len in
  r.offset <- r.offset + len;
  s

let read_array read_elem r =
  let len = read_int r in
  if len < 0 then raise (Corrupt "negative array length");
  (* Guard absurd lengths before allocating. *)
  if len > String.length r.data - r.offset then raise (Corrupt "array length exceeds input");
  Array.init len (fun _ -> read_elem r)

let read_int_array r = read_array read_int r
let read_float_array r = read_array read_float r

(* User-supplied codecs can raise anything on malformed payloads; from
   the persistence layer's point of view that is just another corruption
   mode, so it must surface as [Corrupt] rather than escape arbitrarily. *)
let guard_decode decode s =
  try decode s with
  | Corrupt _ as e -> raise e
  | exn -> raise (Corrupt (Printf.sprintf "object decode failed: %s" (Printexc.to_string exn)))
