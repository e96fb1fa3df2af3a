(* Pen digits under DTW behind int handles, for the allocation tests:
   handles [0, n) are the database and [n, n + m) the queries.  Each
   distance is memoized on first use.  After [freeze] the memo answers
   every pair a warm-up sweep met by a lookup that allocates nothing,
   and computes (without keeping) any pair it never met, so the words a
   warmed sweep allocates are the query engine's, not DTW's matrices. *)

module Space = Dbh_space.Space
module Pen = Dbh_datasets.Pen_digits

type t = { space : int Space.t; db : int array; queries : int array; freeze : unit -> unit }

let make ~n ~m =
  let objects =
    Array.append
      (Pen.generate_set ~rng:(Dbh_util.Rng.create 95) n)
      (Pen.generate_set ~rng:(Dbh_util.Rng.create 96) m)
  in
  let memo : (int, float) Hashtbl.t = Hashtbl.create (1 lsl 16) in
  let frozen = ref false in
  let space =
    Space.make ~name:"pen-dtw-memo" (fun a b ->
        let key = (a * (n + m)) + b in
        (* [find], not [find_opt]: a [Some] per call would allocate. *)
        try Hashtbl.find memo key
        with Not_found ->
          let d = Pen.space.Space.distance objects.(a) objects.(b) in
          if not !frozen then Hashtbl.add memo key d;
          d)
  in
  {
    space;
    db = Array.init n Fun.id;
    queries = Array.init m (fun i -> n + i);
    freeze = (fun () -> frozen := true);
  }

(* [f] mapped over [queries], and the words that allocated per query.
   Both readings follow a minor collection: OCaml 5.1's
   [Gc.allocated_bytes] undercounts what still sits in the minor heap. *)
let words_per_query f queries =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let results = Array.map f queries in
  Gc.minor ();
  let bytes = Gc.allocated_bytes () -. before in
  (results, bytes /. float_of_int (Sys.word_size / 8) /. float_of_int (Array.length queries))
