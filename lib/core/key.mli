(** Packed bucket keys: a k-bit hash code in one tagged OCaml int.

    The concatenated codes h1..hk of a table row (paper Section III) are
    folded MSB-first into a single non-negative int — bit j of the code
    lands at position [width - 1 - j] — so keys sort like the
    lexicographic order of their bit strings and need no boxing, no
    hashing and no structural comparison.  Width is capped at
    {!max_bits} (= 62, one bit lost to the int tag, one to the sign);
    wider codes are an explicit [Invalid_argument], never a silent
    wrap. *)

type t = private int
(** A packed key.  The [private] row makes provenance explicit — keys
    enter through {!push_bit}/{!of_bits}/{!of_int} only — while letting
    consumers compare, hash and store them as plain ints for free. *)

val max_bits : int
(** 62: the widest code a tagged 63-bit int can hold without touching
    the sign bit. *)

val check_width : int -> unit
(** Raises [Invalid_argument] unless the width lies in [1, max_bits]. *)

val zero : t
(** The empty code — the fold seed for {!push_bit}. *)

val push_bit : t -> bool -> t
(** [push_bit key b] appends one code bit at the low end:
    [(key lsl 1) lor b].  Folding a row's bits MSB-first through this is
    the canonical (and historical) key construction; the caller is
    responsible for pushing at most {!max_bits} bits. *)

val of_bits : bool array -> t
(** Pack a full code at once.  Raises [Invalid_argument] when the code
    is empty or wider than {!max_bits}. *)

val of_row : Bytes.t -> int array -> t
(** [of_row cells positions] folds the bits [cells.[positions.(j)]]
    through {!push_bit}, [j] ascending — a table's key read off a
    family row ({!Hash_family.row_cells}), where each cell the table
    draws holds ['\000'] or ['\001'].  Like {!push_bit}, the caller
    passes at most {!max_bits} positions and only known cells. *)

val to_bits : width:int -> t -> bool array
(** Unpack to [width] bits, MSB first.  Raises [Invalid_argument] on a
    bad width or a key that does not fit in it. *)

val to_int : t -> int
(** The identity, made explicit — e.g. for serialization. *)

val of_int : width:int -> int -> t
(** Revalidate an external int (e.g. from disk) as a [width]-bit key.
    Raises [Invalid_argument] when negative or out of range. *)

val compare : t -> t -> int
(** Plain int compare — by construction also the lexicographic order of
    the underlying bit strings. *)

val equal : t -> t -> bool

(** {1 Hamming geometry}

    Codes are points of the k-bit Hamming cube; the multi-probe query
    path perturbs them one key at a time ({!Probe_seq} flips bits of a
    base key in penalty order), and these values size and measure its
    balls.  All of them are pure bit arithmetic and allocate nothing. *)

val popcount : t -> int
(** Number of set bits. *)

val hamming : t -> t -> int
(** Hamming distance between two codes (callers are responsible for
    comparing codes of the same width, as with {!compare}). *)

val max_radius : int
(** 2: the largest supported Hamming-ball radius.  Balls grow as
    [O(width^radius)]; radius 2 already covers every probe budget the
    multi-probe model optimises over. *)

val ball_size : width:int -> radius:int -> int
(** Number of distinct codes at Hamming distance in [\[1, radius\]] of
    any [width]-bit code: [0], [width], or [width + width(width-1)/2].
    Raises [Invalid_argument] on a bad width or a radius outside
    [\[0, max_radius\]]. *)
