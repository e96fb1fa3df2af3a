module Vec = Dbh_util.Vec

(* Tombstones live in a growable byte map rather than a hash table:
   query-time [is_alive] probes race with writer-side [delete]s under
   concurrent readers, and single-byte monotone 0->1 flips are benign
   where a hash-table resize is not.  A reader observing the stale
   value linearizes its query before the delete. *)
type 'a t = {
  objects : 'a Vec.t;
  mutable tombs : Bytes.t;
  mutable n_dead : int;
}

let of_array arr = { objects = Vec.of_array arr; tombs = Bytes.empty; n_dead = 0 }
let length t = Vec.length t.objects
let alive_count t = Vec.length t.objects - t.n_dead
let get t i = Vec.get t.objects i

let dead t i = i < Bytes.length t.tombs && Bytes.get t.tombs i = '\001'
let is_alive t i = i >= 0 && i < Vec.length t.objects && not (dead t i)
let add t obj = Vec.push t.objects obj

let delete t i =
  if i < 0 || i >= Vec.length t.objects then invalid_arg "Store.delete: id out of range";
  if not (dead t i) then begin
    if i >= Bytes.length t.tombs then begin
      let grown = Bytes.make (max 16 (max (i + 1) (2 * Bytes.length t.tombs))) '\000' in
      Bytes.blit t.tombs 0 grown 0 (Bytes.length t.tombs);
      t.tombs <- grown
    end;
    Bytes.set t.tombs i '\001';
    t.n_dead <- t.n_dead + 1
  end

let to_alive_array t =
  let out = ref [] in
  Vec.iteri (fun i obj -> if not (dead t i) then out := (i, obj) :: !out) t.objects;
  Array.of_list (List.rev !out)
