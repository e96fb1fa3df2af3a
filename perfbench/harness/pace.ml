(* Machine speed, measured beside the work it corrects.

   On a shared host a vCPU's speed moves by up to half from one second to
   the next and can stay off for a minute, with the load of other
   tenants, so no run of tens of seconds averages it out: raw latencies
   of the same code spread by a third between runs.  The benchmark
   therefore times a fixed reference unit in the thread that does the
   work, between the operations it times (in l2-serve, between two
   distance calls of the batcher's searches), and states each timing at
   a nominal speed: the raw time multiplied by [nominal_us] over the
   median reference time around it.  A change to the program moves the
   operation and not the reference, so the corrected timing moves with
   the code and not with the host.

   The unit allocates short-lived blocks and fills a small hash table,
   the mix that tracked both the DTW and the L2 searches best on a
   2-vCPU host (ratio spread within a run: ±5% against ±25% raw).  Its
   cost depends on no library code. *)

let nominal_us = 30.

let reference () =
  let l = ref [] in
  for i = 1 to 400 do
    l := Array.make 4 (float_of_int i) :: !l
  done;
  let tbl = Hashtbl.create 64 in
  List.iteri (fun i a -> Hashtbl.replace tbl (i land 127) a) !l;
  ignore (Sys.opaque_identity tbl)

type t = { mutable n : int; mutable at : float array; mutable us : float array }

let create () = { n = 0; at = Array.make 4096 0.; us = Array.make 4096 0. }

(* Times one reference unit, recorded at its start (seconds on
   [Clock]). *)
let tick (t : t) =
  let a = Clock.now_ns () in
  reference ();
  let b = Clock.now_ns () in
  if t.n = Array.length t.at then begin
    t.at <- Array.append t.at (Array.make t.n 0.);
    t.us <- Array.append t.us (Array.make t.n 0.)
  end;
  t.at.(t.n) <- float_of_int a *. 1e-9;
  t.us.(t.n) <- float_of_int (b - a) *. 1e-3;
  t.n <- t.n + 1

(* The recorded units, ascending in time; plain arrays, so they can
   cross a pipe. *)
type samples = { at : float array; us : float array }

let samples (t : t) = { at = Array.sub t.at 0 t.n; us = Array.sub t.us 0 t.n }

let count s = Array.length s.at

let median = Dbh_util.Stats.median

(* The machine's speed over time: the median unit of each [bin_s]
   slice of the run.  Slices with fewer than [min_units] units borrow the
   nearest slice that has enough. *)
let bin_s = 0.2
let min_units = 9

type speed = { t0 : float; us : float array (* per slice; nan when too few *) }

let speed (s : samples) =
  let n = count s in
  if n = 0 then invalid_arg "Pace.speed: no samples";
  let t0 = s.at.(0) in
  let slice t = int_of_float ((t -. t0) /. bin_s) in
  let parts = Array.make (slice s.at.(n - 1) + 1) [] in
  Array.iteri (fun i t -> parts.(slice t) <- s.us.(i) :: parts.(slice t)) s.at;
  let us = Array.map (fun l -> if List.length l < min_units then Float.nan else median (Array.of_list l)) parts in
  if Array.for_all Float.is_nan us then { t0; us = [| median s.us |] } else { t0; us }

(* Median unit time of the slice nearest [at] that has enough units. *)
let local_us sp ~at =
  let n = Array.length sp.us in
  let k = max 0 (min (n - 1) (int_of_float (Float.floor ((at -. sp.t0) /. bin_s)))) in
  let rec look d =
    let ok i = i >= 0 && i < n && not (Float.is_nan sp.us.(i)) in
    if ok (k - d) then sp.us.(k - d) else if ok (k + d) then sp.us.(k + d) else look (d + 1)
  in
  look 0

(* Multiplier that states a time taken at [at] at the nominal speed. *)
let factor sp ~at = nominal_us /. local_us sp ~at

(* The same over the whole of [s]. *)
let overall (s : samples) = nominal_us /. median s.us
