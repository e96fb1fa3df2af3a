(** Append-only write-ahead log with per-record checksums.

    Each record carries a sequence number, its length and a CRC-32 over
    sequence plus payload.  Scanning stops at the first record that
    fails any check — a torn tail from a crash mid-append loses at most
    the record being written, and {!open_append} truncates it away so
    the log returns to a valid prefix.  A log that ends exactly at a
    record boundary scans as not torn. *)

type t

type scan_result = {
  records : string array;  (** Payloads of all valid records, in order. *)
  valid_bytes : int;  (** Length of the valid prefix of the file. *)
  torn : bool;  (** Whether bytes after the valid prefix were discarded. *)
  torn_reason : string option;  (** Why scanning stopped, when [torn]. *)
}

val scan : path:string -> scan_result
(** Read and validate a log.  A missing file scans as empty and intact;
    garbage never raises — it only marks the log torn at that point. *)

val scan_string : string -> scan_result
(** {!scan} over in-memory bytes (for tests and verification tools). *)

type prefix = {
  payloads : string array;  (** newly validated records, in order *)
  next_offset : int;  (** where the next read should resume *)
  next_seq : int;  (** sequence the next record must carry *)
  file_bytes : int;  (** file size observed by this read *)
  prefix_torn : bool;
      (** bytes past [next_offset] failed validation — possibly just a
          record the writer is mid-append on *)
  prefix_torn_reason : string option;
}

val read_valid_prefix : ?from:int * int -> path:string -> unit -> prefix
(** Incrementally read the valid records of a log that another process
    may still be appending to.  [from] is the [(next_offset, next_seq)]
    cursor of a previous call (default [(0, 1)] — the whole file).

    Strictly read-only: unlike {!open_append} this never truncates a
    torn tail — a follower tailing a leader's live log must not modify
    it, and an incomplete record at EOF is usually just an append in
    flight, valid on the next read.  A missing file reads as empty and
    intact; a file shorter than [from]'s offset reads as torn with no
    payloads (the log was truncated or replaced — restart from scratch).
    Raises [Invalid_argument] on a negative offset or a sequence below
    1. *)

val create : ?fsync:bool -> path:string -> unit -> t
(** Create or truncate a log for appending.  [fsync] (default [true])
    makes every {!append} durable before returning; turn it off only
    for benchmarks. *)

val open_append : ?fsync:bool -> path:string -> unit -> t * scan_result
(** Open an existing log (creating it if missing) for appending,
    truncating any torn tail first.  Returns the scan of the valid
    prefix so the caller can replay it. *)

val append : t -> string -> int
(** Append one record and (when [fsync]) force it to disk.  Returns the
    record's sequence number, starting at 1. *)

val sync : t -> unit
(** Flush (and fsync when enabled) without appending. *)

val path : t -> string

val close : t -> unit
(** Flush, sync and close.  Idempotent. *)
