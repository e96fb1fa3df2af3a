(* Timing wrapper for a distance function, used to build the [Space.t]
   handed to the library.  Every call bumps running totals; spans read
   the totals at open and close, so a span's distance children are the
   totals' delta.  Calls are split into hash-side calls (one argument is
   [==] to a pivot of the index's hash family) and the rest (candidate
   refinement, build-time scans).  With [enabled] false the wrapper only
   forwards, so one built index serves traced and untraced blocks. *)

type totals = {
  mutable calls : int;
  mutable ns : int;
  mutable pivot_calls : int;
  mutable pivot_ns : int;
  mutable cells : int;  (* Σ |a|·|b| over sequence-distance calls *)
}

type 'a t = {
  totals : totals;
  mutable enabled : bool;
  mutable pivots : 'a array;
  cells : ('a -> 'a -> int) option;
}

let create ?cells () =
  {
    totals = { calls = 0; ns = 0; pivot_calls = 0; pivot_ns = 0; cells = 0 };
    enabled = false;
    pivots = [||];
    cells;
  }

let is_pivot m x =
  let p = m.pivots in
  let rec go i = i < Array.length p && (p.(i) == x || go (i + 1)) in
  go 0

let wrap m distance a b =
  if not m.enabled then distance a b
  else begin
    let t0 = Clock.now_ns () in
    let d = distance a b in
    let dt = Clock.now_ns () - t0 in
    let s = m.totals in
    s.calls <- s.calls + 1;
    s.ns <- s.ns + dt;
    (match m.cells with Some f -> s.cells <- s.cells + f a b | None -> ());
    if is_pivot m a || is_pivot m b then begin
      s.pivot_calls <- s.pivot_calls + 1;
      s.pivot_ns <- s.pivot_ns + dt
    end;
    d
  end

let snapshot m =
  let s = m.totals in
  { calls = s.calls; ns = s.ns; pivot_calls = s.pivot_calls; pivot_ns = s.pivot_ns;
    cells = s.cells }

let diff (a : totals) (b : totals) =
  {
    calls = a.calls - b.calls;
    ns = a.ns - b.ns;
    pivot_calls = a.pivot_calls - b.pivot_calls;
    pivot_ns = a.pivot_ns - b.pivot_ns;
    cells = a.cells - b.cells;
  }
