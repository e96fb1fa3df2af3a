(* One hash table frozen into CSR (compressed sparse row) form, plus a
   small mutable delta for post-freeze inserts.

   The frozen part is three flat int arrays: a sorted key directory,
   offsets into the id array (offsets.(i) .. offsets.(i+1) is the
   bucket of keys.(i)), and the concatenated bucket ids.  No hashing, no
   boxing, no cons cells, and the whole structure is a few contiguous
   allocations however many buckets exist.  [of_keys] builds it straight
   from one key per object; each bucket lists its ids newest (highest
   position) first.

   Lookup goes through a derived prefix table: the directory is cut into
   cells by each key's top bits ([key lsr shift]), about one cell per
   eight keys, and [prefix.(c)] is the first directory index in cell
   [c].  A lookup reads one cell and binary-searches only that cell's
   short run of keys instead of the whole directory.  The table is
   rebuilt from the keys in one pass by [make_base], the one constructor
   every frozen base goes through, and is never persisted.

   Inserts after the freeze go to [delta], newest first.  A bucket's
   query-iteration order is delta first (newest first), then the frozen
   segment in frozen order — so a table built over ids 0..n-1 iterates
   exactly like one built over a prefix with the rest inserted, which
   the bit-identity tests rely on.  [compacted] folds the delta into a
   fresh table's frozen base and drops dead ids.

   Concurrent reads: the frozen base never changes and the delta is a
   persistent map in a mutable field, so a reader that loads the delta
   once sees an internally consistent table whatever a concurrent
   single writer does — an insert swaps the delta pointer (old map =
   before, new map = after, both valid).  The delta key filter only
   ever gains bits, and an insert sets its key's bit before the swap: a
   reader that misses the bit skips the map and sees that key's
   before-bucket, never a torn one.  A reader on another domain sees a
   given insert only through a happens-before edge from it; [Online]
   gives one with its release/acquire visibility bound, which covers
   every id a query admits.  The bookkeeping counters ([delta_size]
   etc.) are diagnostics and are not read on the query path. *)

module Intmap = Map.Make (Int)

type base = {
  keys : int array;  (* sorted ascending, distinct *)
  offsets : int array;  (* |keys| + 1, offsets.(0) = 0 *)
  ids : int array;  (* concatenated bucket segments *)
  shift : int;  (* a key's prefix cell is [key lsr shift] *)
  cells : int;  (* prefix cells: Array.length prefix - 1, kept beside [shift] *)
  prefix : int array;
      (* cells + 1: prefix.(c) is the first directory index whose cell
         is >= c, so cell c spans prefix.(c) .. prefix.(c+1) - 1 *)
}

type t = {
  base : base;
  mutable delta : int list Intmap.t;  (* key -> ids, newest first *)
  mutable filter_lo : int;  (* delta key filter, bits 0..62 (see [slot]) *)
  mutable filter_hi : int;  (* ... bits 63..125 *)
  mutable delta_size : int;  (* total ids across delta buckets *)
  mutable extra_keys : int;  (* delta keys absent from the directory *)
  mutable largest : int;  (* max combined bucket size (incl. dead) *)
}

(* Bits needed to write [x >= 0]: 0 for 0, else floor(log2 x) + 1. *)
let bit_length x =
  let rec go x n = if x = 0 then n else go (x lsr 1) (n + 1) in
  go x 0

(* The one constructor of a frozen base: derive the prefix table from
   the sorted directory in one pass.  The cell count is the largest
   power of two at most |keys| / 8 (one cell below 16 keys), and
   [shift] keeps the top bits of the largest key that address it, so
   the last key lands in the last cell and nothing maps past it. *)
let make_base ~keys ~offsets ~ids =
  let nk = Array.length keys in
  let bits = max 0 (bit_length (nk / 8) - 1) in
  let shift = if nk = 0 then 0 else max 0 (bit_length keys.(nk - 1) - bits) in
  let cells = if nk = 0 then 0 else (keys.(nk - 1) lsr shift) + 1 in
  let prefix = Array.make (cells + 1) nk in
  let c = ref 0 in
  for i = 0 to nk - 1 do
    let cell = keys.(i) lsr shift in
    while !c <= cell do
      prefix.(!c) <- i;
      incr c
    done
  done;
  { keys; offsets; ids; shift; cells; prefix }

(* Index of [key] in the directory, or -1: one prefix cell read, then a
   binary search of that cell's run of keys. *)
let find_key base key =
  let prefix = base.prefix in
  let cell = key lsr base.shift in
  if key < 0 || cell >= base.cells then -1
  else begin
    let keys = base.keys in
    let lo = ref (Array.unsafe_get prefix cell)
    and hi = ref (Array.unsafe_get prefix (cell + 1) - 1)
    and found = ref (-1) in
    while !found < 0 && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let k = Array.unsafe_get keys mid in
      if k = key then found := mid else if k < key then lo := mid + 1 else hi := mid - 1
    done;
    !found
  end

(* Entries under [key] in the frozen base (0 when absent). *)
let frozen_size base key =
  match find_key base key with
  | -1 -> 0
  | i -> base.offsets.(i + 1) - base.offsets.(i)

let largest_of base =
  let largest = ref 0 in
  for i = 0 to Array.length base.keys - 1 do
    let len = base.offsets.(i + 1) - base.offsets.(i) in
    if len > !largest then largest := len
  done;
  !largest

let of_base base =
  {
    base;
    delta = Intmap.empty;
    filter_lo = 0;
    filter_hi = 0;
    delta_size = 0;
    extra_keys = 0;
    largest = largest_of base;
  }

(* The delta key filter: one bit per key hash over two words held in
   the record itself, so a probe of a key the delta lacks usually skips
   the persistent map's pointer walk.  A key's slot is the top 16 bits
   of a Fibonacci hash scaled onto [0, 126) by a multiply and a shift —
   no division — and slot [s] is bit [s] of [filter_lo] below 63, bit
   [s - 63] of [filter_hi] above, so no shift reaches [Sys.int_size].
   Bits are only ever set in a table's life; a fresh table (of_keys,
   compacted, read) starts with both words 0. *)
let slot key = (((key * 0x278DDE6E5FD29F05) lsr (Sys.int_size - 16)) * 126) lsr 16

let may_hold t key =
  let s = slot key in
  if s < 63 then t.filter_lo land (1 lsl s) <> 0 else t.filter_hi land (1 lsl (s - 63)) <> 0

(* Positions 0..m-1 ordered by key ascending, ties by position
   descending: an LSD radix sort over [radix_bits]-bit digits, seeded
   with the positions in descending order (each pass is stable, so ties
   keep that order).  Keys are non-negative, and a pass runs only while
   [max_key] has digits left below [Sys.int_size] ([lsr] by more is
   unspecified and wraps on common hardware).  [Array.stable_sort] over
   the positions gives the same order, but its indirect comparisons make
   it several times slower on table-sized inputs, enough to show in
   whole-index build time. *)
let radix_bits = 8

let order_by_key keys =
  let m = Array.length keys in
  let max_key = ref 0 in
  Array.iter
    (fun key ->
      if key < 0 then invalid_arg "Csr.of_keys: negative key";
      if key > !max_key then max_key := key)
    keys;
  let src = ref (Array.init m (fun i -> m - 1 - i)) in
  let dst = ref (Array.make m 0) in
  let mask = (1 lsl radix_bits) - 1 in
  let start = Array.make (mask + 2) 0 in
  let shift = ref 0 in
  while !shift < Sys.int_size && !max_key lsr !shift > 0 do
    let s = !src and d = !dst and sh = !shift in
    Array.fill start 0 (mask + 2) 0;
    for i = 0 to m - 1 do
      let digit = (keys.(s.(i)) lsr sh) land mask in
      start.(digit + 1) <- start.(digit + 1) + 1
    done;
    for digit = 1 to mask + 1 do
      start.(digit) <- start.(digit) + start.(digit - 1)
    done;
    for i = 0 to m - 1 do
      let p = s.(i) in
      let digit = (keys.(p) lsr sh) land mask in
      d.(start.(digit)) <- p;
      start.(digit) <- start.(digit) + 1
    done;
    src := d;
    dst := s;
    shift := sh + radix_bits
  done;
  !src

let of_keys ~ids ~keys =
  let m = Array.length ids in
  if Array.length keys <> m then invalid_arg "Csr.of_keys: ids and keys differ in length";
  let order = order_by_key keys in
  let nk = ref 0 in
  for i = 0 to m - 1 do
    if i = 0 || keys.(order.(i)) <> keys.(order.(i - 1)) then incr nk
  done;
  let dir = Array.make !nk 0 in
  let offsets = Array.make (!nk + 1) 0 in
  let out = Array.make m 0 in
  let b = ref (-1) in
  for i = 0 to m - 1 do
    let p = order.(i) in
    let key = keys.(p) in
    if !b < 0 || key <> dir.(!b) then begin
      incr b;
      dir.(!b) <- key;
      offsets.(!b) <- i
    end;
    out.(i) <- ids.(p)
  done;
  offsets.(!nk) <- m;
  of_base (make_base ~keys:dir ~offsets ~ids:out)

let add t key id =
  let old = try Intmap.find key t.delta with Not_found -> [] in
  (* The filter bit first, then the map swap: a reader that sees the new
     map in this domain sees the bit too.  Persistent-map update:
     readers holding the old map still see a valid (pre-insert) bucket;
     the pointer swap is the publication. *)
  let s = slot key in
  if s < 63 then t.filter_lo <- t.filter_lo lor (1 lsl s)
  else t.filter_hi <- t.filter_hi lor (1 lsl (s - 63));
  t.delta <- Intmap.add key (id :: old) t.delta;
  t.delta_size <- t.delta_size + 1;
  let frozen = frozen_size t.base key in
  let combined = frozen + 1 + List.length old in
  if old = [] && frozen = 0 then t.extra_keys <- t.extra_keys + 1;
  if combined > t.largest then t.largest <- combined

(* Combined bucket iteration: delta (newest first), then frozen.  The
   delta is loaded once (see the header note); an empty delta costs one
   check, and a key whose filter bit is clear skips the map. *)
let iter_bucket t key f =
  let delta = t.delta in
  if not (Intmap.is_empty delta) && may_hold t key then
    (match Intmap.find_opt key delta with Some l -> List.iter f l | None -> ());
  let base = t.base in
  match find_key base key with
  | -1 -> ()
  | i ->
      let ids = base.ids in
      for p = Array.unsafe_get base.offsets i to Array.unsafe_get base.offsets (i + 1) - 1 do
        f (Array.unsafe_get ids p)
      done

let bucket_size t key =
  let delta = t.delta in
  let base = t.base in
  let d =
    match Intmap.find_opt key delta with Some l -> List.length l | None -> 0
  in
  frozen_size base key + d

let bucket_count t = Array.length t.base.keys + t.extra_keys
let largest_bucket t = t.largest
let entry_count t = Array.length t.base.ids + t.delta_size
let delta_size t = t.delta_size

(* Walk the union of the directory and the delta's keys in ascending
   order, calling [f key delta_ids lo hi] with the key's delta bucket
   (newest first, [] when absent) and its frozen segment [lo, hi)
   (empty when absent). *)
let merge_buckets base delta f =
  let keys = base.keys and offsets = base.offsets in
  let nk = Array.length keys in
  let i = ref 0 in
  let emit_base () =
    f keys.(!i) [] offsets.(!i) offsets.(!i + 1);
    incr i
  in
  Intmap.iter
    (fun key dids ->
      while !i < nk && keys.(!i) < key do
        emit_base ()
      done;
      if !i < nk && keys.(!i) = key then begin
        f key dids offsets.(!i) offsets.(!i + 1);
        incr i
      end
      else f key dids 0 0)
    delta;
  while !i < nk do
    emit_base ()
  done

(* Every combined bucket in ascending key order (allocates the lists;
   cold paths only: persistence, diagnostics, rebuilds). *)
let iter_buckets t f =
  let base = t.base in
  merge_buckets base t.delta (fun key dids lo hi ->
      let b = ref [] in
      for i = hi - 1 downto lo do
        b := base.ids.(i) :: !b
      done;
      f key (dids @ !b))

(* The live frozen view: delta folded in, dead ids dropped, empty
   buckets removed.  Bucket-internal order is the combined iteration
   order, so compaction never changes what a query sees (dead ids were
   already skipped before any cost was charged).  One counting pass
   sizes the arrays and a second fills them; a table with no delta and
   no dead id is its own live view.  Writers are serialized, so
   [is_alive] holds still between the passes. *)
let live_view ~is_alive t =
  let base = t.base and delta = t.delta in
  let bids = base.ids in
  let nk = ref 0 and total = ref 0 in
  merge_buckets base delta (fun _ dids lo hi ->
      let live = ref 0 in
      List.iter (fun id -> if is_alive id then incr live) dids;
      for i = lo to hi - 1 do
        if is_alive bids.(i) then incr live
      done;
      if !live > 0 then begin
        incr nk;
        total := !total + !live
      end);
  if Intmap.is_empty delta && !total = Array.length bids then base
  else begin
    let keys = Array.make !nk 0 in
    let offsets = Array.make (!nk + 1) 0 in
    let ids = Array.make !total 0 in
    let b = ref 0 and pos = ref 0 in
    let push id =
      if is_alive id then begin
        ids.(!pos) <- id;
        incr pos
      end
    in
    merge_buckets base delta (fun key dids lo hi ->
        let first = !pos in
        List.iter push dids;
        for i = lo to hi - 1 do
          push bids.(i)
        done;
        if !pos > first then begin
          keys.(!b) <- key;
          incr b;
          offsets.(!b) <- !pos
        end);
    make_base ~keys ~offsets ~ids
  end

(* A fresh table the caller can publish atomically while readers keep
   using [t]. *)
let compacted ~is_alive t = of_base (live_view ~is_alive t)

(* Rough resident size in words: the four arrays (prefix cells
   included) with their headers and the two records (8 and 7 words with
   headers, filter words included), plus ~5 words per delta entry (cons
   cell + amortised map node share). *)
let approx_words t =
  let base = t.base in
  Array.length base.keys + Array.length base.offsets + Array.length base.ids
  + Array.length base.prefix + 19
  + (5 * t.delta_size)

(* ------------------------------------------------------------- binary io *)

module Binio = Dbh_util.Binio

let write buf ~is_alive t =
  let base = live_view ~is_alive t in
  Binio.write_int_array buf base.keys;
  Binio.write_int_array buf base.offsets;
  Binio.write_int_array buf base.ids

(* [validate_key] checks directory entries (packed-key range); [max_id]
   bounds bucket ids; [seen] (caller-provided, store-length, reset here)
   catches duplicate ids within one table. *)
let read r ~validate_key ~max_id ~seen =
  let keys = Binio.read_int_array r in
  let offsets = Binio.read_int_array r in
  let ids = Binio.read_int_array r in
  let nk = Array.length keys in
  if Array.length offsets <> nk + 1 then raise (Binio.Corrupt "csr: offsets/keys mismatch");
  if nk > 0 && offsets.(0) <> 0 then raise (Binio.Corrupt "csr: offsets must start at 0");
  if (nk = 0) <> (Array.length ids = 0) then
    raise (Binio.Corrupt "csr: ids without keys");
  for i = 0 to nk - 1 do
    validate_key keys.(i);
    if i > 0 && keys.(i) <= keys.(i - 1) then
      raise (Binio.Corrupt "csr: key directory not strictly sorted");
    if offsets.(i + 1) <= offsets.(i) then raise (Binio.Corrupt "csr: empty or negative segment")
  done;
  if nk > 0 && offsets.(nk) <> Array.length ids then
    raise (Binio.Corrupt "csr: offsets do not cover ids");
  Bytes.fill seen 0 (Bytes.length seen) '\000';
  Array.iter
    (fun id ->
      if id < 0 || id >= max_id then raise (Binio.Corrupt "csr: object id out of range");
      if Bytes.get seen id <> '\000' then raise (Binio.Corrupt "csr: duplicate id in table");
      Bytes.set seen id '\001')
    ids;
  of_base (make_base ~keys ~offsets ~ids)
