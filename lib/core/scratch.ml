(* Reusable per-query workspace.  The pieces the query hot path used to
   allocate fresh every time — the seen mask, the candidate accumulator,
   the pivot-distance cache array, the family row of hash bits and the
   key row — live here and are recycled: [reset] clears only the bytes
   actually touched, so a query over a million-object store that saw
   forty candidates pays for forty, not a million, and one that
   evaluated two hundred functions of a large family clears two hundred
   cells.  Each domain keeps one for its queries (Index.run). *)

type t = {
  mutable seen : Bytes.t;  (* one byte per store id; '\000' = unseen *)
  mutable buf : int array;  (* ids marked seen, in discovery order *)
  mutable len : int;
  mutable dists : float array;  (* pivot-distance workspace *)
  mutable fns : Hash_family.row;  (* the query's bits, one cell per family fn *)
  mutable keys : int array;  (* one level's table keys *)
  mutable margins : float array;  (* flip margins, one per family fn *)
  probe : Probe_seq.t;  (* reusable multi-probe heap *)
}

let create () =
  {
    seen = Bytes.empty;
    buf = Array.make 64 0;
    len = 0;
    dists = [||];
    fns = Hash_family.row 0;
    keys = [||];
    margins = [||];
    probe = Probe_seq.create ();
  }

(* Invariant: every non-'\000' byte of [seen] is listed in [buf.(0..len)],
   so growth can discard the old mask — it is all zeroes after reset, and
   [ensure] is only called at query start, when the scratch is clean.
   Growth at least doubles, so a workspace reused while its store grows
   one insert at a time reallocates O(log n) times, not per insert. *)
let ensure t n =
  let cap = Bytes.length t.seen in
  if cap < n then t.seen <- Bytes.make (max n (2 * cap)) '\000'

let capacity t = Bytes.length t.seen

let mem t id = Bytes.unsafe_get t.seen id <> '\000'

let mark t id =
  if Bytes.unsafe_get t.seen id <> '\000' then false
  else begin
    Bytes.unsafe_set t.seen id '\001';
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (2 * t.len) 0 in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    t.buf.(t.len) <- id;
    t.len <- t.len + 1;
    true
  end

let count t = t.len
let get t i = t.buf.(i)

let reset t =
  for i = 0 to t.len - 1 do
    Bytes.unsafe_set t.seen t.buf.(i) '\000'
  done;
  t.len <- 0;
  Hash_family.clear_row t.fns

let to_list t = List.init t.len (fun i -> t.buf.(i))

(* Pivot-distance rows are nan-initialised by the cache constructor
   (Hash_family.cache_in), so handing out a dirty array is fine. *)
let pivot_dists t m =
  if Array.length t.dists < m then t.dists <- Array.make m nan;
  t.dists

(* The family row is clean between queries ([reset] clears what a query
   set), so growth can discard it, as [ensure] does the seen mask. *)
let fn_row t m =
  if Hash_family.row_length t.fns < m then t.fns <- Hash_family.row m;
  t.fns

(* Key rows are filled table by table before the walk reads them
   (Index.walk), so a dirty buffer is fine. *)
let key_row t m =
  if Array.length t.keys < m then t.keys <- Array.make m 0;
  t.keys

(* Margin rows are read only where the multi-probe path just wrote them
   (Index.eval_margins), so a dirty buffer is fine. *)
let margin_row t m =
  if Array.length t.margins < m then t.margins <- Array.make m 0.;
  t.margins

let probe_seq t = t.probe
