(* Jittered exponential backoff as a pure computation: the policy maps
   an attempt number to a delay, and the caller decides what a delay
   unit means (seconds, for the WAL tailer and the client).  Keeping
   the module clock- and sleep-free makes every consumer deterministic
   under test. *)

type policy = {
  initial : float;
  multiplier : float;
  max_delay : float;
  jitter : float;
}

let default = { initial = 0.05; multiplier = 2.0; max_delay = 5.0; jitter = 0.25 }

let make ?(initial = default.initial) ?(multiplier = default.multiplier)
    ?(max_delay = default.max_delay) ?(jitter = default.jitter) () =
  if initial <= 0. || Float.is_nan initial then
    invalid_arg "Retry.make: initial must be positive";
  if multiplier < 1. || Float.is_nan multiplier then
    invalid_arg "Retry.make: multiplier must be >= 1";
  if max_delay < initial || Float.is_nan max_delay then
    invalid_arg "Retry.make: max_delay must be >= initial";
  if jitter < 0. || jitter >= 1. || Float.is_nan jitter then
    invalid_arg "Retry.make: jitter must be in [0, 1)";
  { initial; multiplier; max_delay; jitter }

let raw_backoff policy ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff: attempt must be >= 1";
  (* Grow multiplicatively but stop exponentiating once the cap is
     passed, so huge attempt counts cannot overflow to infinity. *)
  let d = ref policy.initial in
  let i = ref 1 in
  while !i < attempt && !d < policy.max_delay do
    d := !d *. policy.multiplier;
    incr i
  done;
  Float.min !d policy.max_delay

let backoff ?rng policy ~attempt =
  let base = raw_backoff policy ~attempt in
  match rng with
  | None -> base
  | Some rng when policy.jitter > 0. ->
      (* Symmetric jitter: uniform in [base·(1-j), base·(1+j)]. *)
      base *. (1. -. policy.jitter +. Rng.float rng (2. *. policy.jitter))
  | Some _ -> base

(* The same ladder under an overall time budget: jitter is drawn first
   (same rng consumption as the uncapped ladder, so adding a generous
   deadline never perturbs a deterministic test), then the delay is
   clamped to whatever budget remains, and a spent budget stops the
   ladder outright. *)
let backoff_within ?rng ~deadline ~elapsed policy ~attempt =
  if deadline <= 0. || Float.is_nan deadline then
    invalid_arg "Retry.backoff_within: deadline must be positive";
  if elapsed < 0. || Float.is_nan elapsed then
    invalid_arg "Retry.backoff_within: elapsed must be non-negative";
  let d = backoff ?rng policy ~attempt in
  let remaining = deadline -. elapsed in
  if remaining <= 0. then None else Some (Float.min d remaining)
