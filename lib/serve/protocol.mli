(** Wire protocol of [dbh-serve]: length-prefixed, CRC'd binary frames.

    Every message travels as one frame:

    {v
    offset 0   magic "DBHS"                      (4 bytes)
    offset 4   kind                              (1 byte)
    offset 5   correlation id, little endian     (8 bytes)
    offset 13  payload length, u32 little endian (4 bytes)
    offset 17  payload                           (length bytes)
    then       CRC-32 of bytes [4, 17+length)    (4 bytes little endian)
    v}

    The CRC covers kind, id, length and payload ({!Dbh_util.Crc32}, the
    same polynomial as the persistence layer), so a flipped bit anywhere
    past the magic fails verification before anything is decoded.  The
    correlation id is chosen by the client and echoed verbatim in the
    response, which lets clients pipeline requests and match replies out
    of order.

    Decoding distinguishes three outcomes with different blast radii:

    - [`Need_more]: the buffer holds a valid frame prefix — keep
      reading.  Every strict prefix of a valid frame decodes to this,
      never to an error and never to a bogus message.
    - [`Corrupt]: framing is unrecoverable (bad magic, CRC mismatch,
      declared length over the limit) — the server replies
      [Bad_request] best-effort and closes the connection, because the
      stream can no longer be resynchronized.
    - A complete frame whose {e payload} fails to parse ({!request_of_frame}
      returns [Error]) — framing is intact, so the server replies
      [Bad_request] and keeps the connection. *)

(** {1 Messages} *)

type request =
  | Ping
  | Search of {
      tenant : string;
      deadline_ms : int;  (** 0 = server default; relative to receipt *)
      budget : int;  (** requested distance budget; 0 = derive from deadline *)
      probes : int;  (** probes per table; 0 = server default *)
      radius : int;  (** Hamming radius; 0 = single-probe *)
      payload : string;  (** object bytes for the server's codec *)
    }
  | Insert of { tenant : string; deadline_ms : int; payload : string }
  | Delete of { tenant : string; deadline_ms : int; handle : int }
  | Stats  (** JSON snapshot of server/shard state *)

type response =
  | Pong
  | Result of {
      found : bool;
      handle : int;  (** global (shard-routed) stable handle *)
      dist : float;
      cost : int;  (** distance computations spent, all shards *)
      truncated : bool;  (** a budget ran out mid-query *)
    }
  | Inserted of { handle : int }
  | Deleted
  | Stats_reply of string
  | Overloaded of { retry_after_ms : int }
      (** Shed by admission control (token bucket, full queue, drain) —
          the request was {e not} executed. *)
  | Bad_request of string
  | Timed_out  (** deadline expired before execution *)
  | Server_error of string

val equal_request : request -> request -> bool
val equal_response : response -> response -> bool
val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit

(** {1 Limits} *)

val header_bytes : int  (** bytes before the payload (17) *)

val default_max_payload : int  (** 1 MiB *)

(** {1 Encoding} *)

val encode_request : id:int64 -> request -> string
val encode_response : id:int64 -> response -> string

(** {1 Decoding} *)

type frame = { kind : int; id : int64; payload : string }

val decode_frame :
  ?max_payload:int ->
  Bytes.t ->
  off:int ->
  len:int ->
  [ `Frame of frame * int  (** consumed bytes *) | `Need_more | `Corrupt of string ]
(** Decode one frame from [bytes[off .. off+len)].  Never raises on any
    input; never reads outside the given window.  [`Frame (f, n)]
    consumed [n] bytes.  A declared payload length above [max_payload]
    is [`Corrupt] immediately — the oversized payload is never
    buffered. *)

val request_of_frame : frame -> (request, string) result
val response_of_frame : frame -> (response, string) result
