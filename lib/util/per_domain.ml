type 'a t = {
  create : unit -> 'a;
  vacant : 'a;
  slot : 'a Atomic.t Domain.DLS.key;
}

(* The slot is an [Atomic] so that taking it is one exchange: a
   systhread switch cannot fall between reading the value and leaving
   [vacant] in its place. *)
let make create =
  { create; vacant = create (); slot = Domain.DLS.new_key (fun () -> Atomic.make (create ())) }

let take t =
  match Atomic.exchange (Domain.DLS.get t.slot) t.vacant with
  | v when v == t.vacant -> t.create ()
  | v -> v

let give t v = Atomic.set (Domain.DLS.get t.slot) v
