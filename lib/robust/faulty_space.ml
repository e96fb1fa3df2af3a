module Rng = Dbh_util.Rng
module Space = Dbh_space.Space

type config = {
  nan_prob : float;
  exn_prob : float;
  negative_prob : float;
  perturb_prob : float;
  perturb_scale : float;
}

let quiet =
  {
    nan_prob = 0.;
    exn_prob = 0.;
    negative_prob = 0.;
    perturb_prob = 0.;
    perturb_scale = 0.25;
  }

let faults ?(nan = 0.) ?(exn_ = 0.) ?(negative = 0.) ?(perturb = 0.) () =
  { quiet with nan_prob = nan; exn_prob = exn_; negative_prob = negative; perturb_prob = perturb }

exception Injected of string

(* [lock] serializes the occurrence table and counters, so tallies stay
   exact even when the wrapped space is called from several domains (the
   underlying distance itself runs outside the lock). *)
type t = {
  base : int64;
  lock : Mutex.t;
  seen : (int * int, int) Hashtbl.t;
  mutable config : config;
  mutable calls : int;
  mutable nan : int;
  mutable exn : int;
  mutable negative : int;
  mutable perturbed : int;
}

let check_prob name p =
  if Float.is_nan p || p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Faulty_space: %s must be in [0,1]" name)

let validate c =
  check_prob "nan_prob" c.nan_prob;
  check_prob "exn_prob" c.exn_prob;
  check_prob "negative_prob" c.negative_prob;
  check_prob "perturb_prob" c.perturb_prob

let config t = t.config

let set_config t c =
  validate c;
  t.config <- c

let disable t = t.config <- quiet
let calls t = t.calls
let injected t = t.nan + t.exn + t.negative + t.perturbed
let injected_nan t = t.nan
let injected_exn t = t.exn
let injected_negative t = t.negative
let perturbed t = t.perturbed

(* splitmix64 finalizer: full-avalanche scramble of one 64-bit word. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

(* Uniform in [0,1) as a pure function of (seed, argument pair, how many
   times that pair has been evaluated, stream).  Because no shared rng
   stream is consumed, the fault assigned to a given call does not depend
   on how calls from concurrent domains interleave: parallel and
   sequential runs of the same workload fault the same evaluations. *)
let uniform t ~hx ~hy ~occurrence ~stream =
  let open Int64 in
  let z = t.base in
  let z = mix64 (add z (mul (of_int hx) 0x9E3779B97F4A7C15L)) in
  let z = mix64 (add z (mul (of_int hy) 0xBF58476D1CE4E5B9L)) in
  let z = mix64 (add z (mul (of_int occurrence) 0x94D049BB133111EBL)) in
  let z = mix64 (add z (of_int stream)) in
  to_float (shift_right_logical z 11) *. 0x1p-53

(* What one call should do, decided under the lock so the occurrence
   table and counters stay serialized; the actual distance work happens
   outside. *)
type outcome = Pass | Return_nan | Raise_exn | Negate | Perturb of float

let wrap ~rng ?(config = quiet) space =
  validate config;
  let t =
    {
      base = Rng.bits64 rng;
      lock = Mutex.create ();
      seen = Hashtbl.create 1024;
      config;
      calls = 0;
      nan = 0;
      exn = 0;
      negative = 0;
      perturbed = 0;
    }
  in
  let distance x y =
    let hx = Hashtbl.hash x and hy = Hashtbl.hash y in
    Mutex.lock t.lock;
    t.calls <- t.calls + 1;
    let occurrence =
      match Hashtbl.find_opt t.seen (hx, hy) with None -> 0 | Some n -> n
    in
    Hashtbl.replace t.seen (hx, hy) (occurrence + 1);
    let c = t.config in
    (* The draws depend only on (pair, occurrence), never on the live
       configuration, so the fault pattern stays aligned with the call
       sequence even when the config changes mid-run.  Stream 1 picks
       the fault and stream 2 its perturbation factor; the stream numbers
       are part of the seeded pattern, so renumbering them would move
       every fault. *)
    let u = uniform t ~hx ~hy ~occurrence ~stream:1 in
    let outcome =
      if u < c.nan_prob then begin
        t.nan <- t.nan + 1;
        Return_nan
      end
      else if u < c.nan_prob +. c.exn_prob then begin
        t.exn <- t.exn + 1;
        Raise_exn
      end
      else if u < c.nan_prob +. c.exn_prob +. c.negative_prob then begin
        t.negative <- t.negative + 1;
        Negate
      end
      else if u < c.nan_prob +. c.exn_prob +. c.negative_prob +. c.perturb_prob then begin
        t.perturbed <- t.perturbed + 1;
        let u_p = uniform t ~hx ~hy ~occurrence ~stream:2 in
        Perturb (1. +. (c.perturb_scale *. ((2. *. u_p) -. 1.)))
      end
      else Pass
    in
    Mutex.unlock t.lock;
    match outcome with
    | Return_nan -> Float.nan
    | Raise_exn -> raise (Injected (Printf.sprintf "injected failure in %s" space.Space.name))
    | Negate -> -.Float.abs (space.Space.distance x y) -. 1.
    | Perturb factor -> space.Space.distance x y *. Float.abs factor
    | Pass -> space.Space.distance x y
  in
  ({ Space.name = "faulty:" ^ space.Space.name; distance; item_cost = space.Space.item_cost }, t)
