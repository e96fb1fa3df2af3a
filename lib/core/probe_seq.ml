(* Multi-probe sequence generation over packed keys (in the spirit of
   Lv et al.'s multi-probe LSH, cited as [11] in the paper).

   A table key is k bits; each bit j carries a flip penalty — the margin
   by which its projection cleared the [t1, t2] thresholds.  The probe
   sequence enumerates the non-empty subsets of bit positions (up to
   [radius] bits per subset) in non-decreasing order of summed penalty,
   so the buckets most likely to hold the missed neighbor are probed
   first.

   Enumeration is the classic shift/expand walk: sort positions by
   penalty, seed a min-heap with the singleton {0} (cheapest bit), and
   on every pop of a subset whose largest sorted position is [last]
   push its two successors —

     shift   {.., last} -> {.., last+1}          (same size)
     expand  {.., last} -> {.., last, last+1}    (one bit more)

   Every subset of consecutive-or-not sorted positions is reached
   exactly once, both successors cost at least their parent (positions
   are penalty-sorted), so pops come out in non-decreasing total
   penalty.  The walk touches only the subsets it emits plus at most two
   pending successors each — O(probes log probes) for any k.

   The workspace (sort rows + heap arrays) is owned by the caller and
   reused across queries; [generate] allocates nothing beyond growing
   those arrays the first time a larger k or probe count shows up.
   Penalties go straight from the margin row into the workspace's float
   arrays, and a heap key is stored before the int-only sift: a float
   passed to or returned from a call that is not inlined would be
   boxed. *)

type t = {
  mutable order : int array;  (* bit positions sorted by (penalty, position) *)
  mutable pens : float array;  (* pens.(i) = penalty of position order.(i) *)
  (* Min-heap on hpen; parallel payload arrays. *)
  mutable hpen : float array;
  mutable hmask : int array;  (* key-space XOR mask of the subset *)
  mutable hlast : int array;  (* largest sorted position in the subset *)
  mutable hsize : int array;  (* subset cardinality *)
  mutable hn : int;
}

let create () =
  {
    order = [||];
    pens = [||];
    hpen = [||];
    hmask = [||];
    hlast = [||];
    hsize = [||];
    hn = 0;
  }

let ensure_width t w =
  if Array.length t.order < w then begin
    t.order <- Array.make w 0;
    t.pens <- Array.make w 0.
  end

let ensure_heap t n =
  if Array.length t.hpen < n then begin
    let m = max 8 (2 * n) in
    let grow_f a = Array.append a (Array.make (m - Array.length a) 0.) in
    let grow_i a = Array.append a (Array.make (m - Array.length a) 0) in
    t.hpen <- grow_f t.hpen;
    t.hmask <- grow_i t.hmask;
    t.hlast <- grow_i t.hlast;
    t.hsize <- grow_i t.hsize
  end

let swap t i j =
  let fp = t.hpen.(i) in
  t.hpen.(i) <- t.hpen.(j);
  t.hpen.(j) <- fp;
  let im = t.hmask.(i) in
  t.hmask.(i) <- t.hmask.(j);
  t.hmask.(j) <- im;
  let il = t.hlast.(i) in
  t.hlast.(i) <- t.hlast.(j);
  t.hlast.(j) <- il;
  let is = t.hsize.(i) in
  t.hsize.(i) <- t.hsize.(j);
  t.hsize.(j) <- is

(* Push the subset (mask, last, size) whose key the caller has already
   written to [t.hpen.(t.hn)], inside a heap [ensure_heap] has grown:
   every argument is an int, so nothing is boxed. *)
let push t mask last size =
  let i = ref t.hn in
  t.hmask.(!i) <- mask;
  t.hlast.(!i) <- last;
  t.hsize.(!i) <- size;
  t.hn <- t.hn + 1;
  while !i > 0 && t.hpen.((!i - 1) / 2) > t.hpen.(!i) do
    swap t ((!i - 1) / 2) !i;
    i := (!i - 1) / 2
  done

(* Pop the minimum into the caller's view; the payload is read out of
   slot [t.hn] (one past the live heap) right after. *)
let pop t =
  t.hn <- t.hn - 1;
  swap t 0 t.hn;
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
    let m = ref !i in
    if l < t.hn && t.hpen.(l) < t.hpen.(!m) then m := l;
    if r < t.hn && t.hpen.(r) < t.hpen.(!m) then m := r;
    if !m = !i then continue := false
    else begin
      swap t !i !m;
      i := !m
    end
  done

(* Bit j of the code sits at int bit (width - 1 - j). *)
let mask_of t ~width i = 1 lsl (width - 1 - t.order.(i))

let generate t ~base ~width ~radius ~max_probes ~margins ~fns ~emit =
  Key.check_width width;
  if radius < 0 || radius > Key.max_radius then
    invalid_arg
      (Printf.sprintf "Probe_seq.generate: radius must be in [0, %d]" Key.max_radius);
  if Array.length fns < width then invalid_arg "Probe_seq.generate: fewer functions than bits";
  if max_probes > 0 && radius > 0 then begin
    ensure_width t width;
    let order = t.order and pens = t.pens in
    (* Insertion sort by (penalty, position): stable, so equal margins
       keep bit order and the sequence is deterministic. *)
    for j = 0 to width - 1 do
      let p = margins.(fns.(j)) in
      let i = ref j in
      while !i > 0 && pens.(!i - 1) > p do
        order.(!i) <- order.(!i - 1);
        pens.(!i) <- pens.(!i - 1);
        decr i
      done;
      order.(!i) <- j;
      pens.(!i) <- p
    done;
    t.hn <- 0;
    ensure_heap t 1;
    t.hpen.(0) <- pens.(0);
    push t (mask_of t ~width 0) 0 1;
    let base = (base : Key.t :> int) in
    let emitted = ref 0 in
    while !emitted < max_probes && t.hn > 0 do
      pop t;
      let pen = t.hpen.(t.hn)
      and mask = t.hmask.(t.hn)
      and last = t.hlast.(t.hn)
      and size = t.hsize.(t.hn) in
      emit (Key.of_int ~width (base lxor mask));
      incr emitted;
      if last + 1 < width then begin
        let next = mask_of t ~width (last + 1) in
        ensure_heap t (t.hn + 2);
        t.hpen.(t.hn) <- pen -. pens.(last) +. pens.(last + 1);
        push t (mask lxor mask_of t ~width last lxor next) (last + 1) size;
        if size < radius then begin
          t.hpen.(t.hn) <- pen +. pens.(last + 1);
          push t (mask lor next) (last + 1) (size + 1)
        end
      end
    done
  end
