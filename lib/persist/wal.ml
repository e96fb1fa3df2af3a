module Crc32 = Dbh_util.Crc32

(* Record layout: seq (8 bytes LE) | payload length (8 bytes LE) |
   crc (8 bytes LE) | payload.  The CRC covers the seq bytes chained
   with the payload bytes, so a record cannot be replayed under the
   wrong sequence number.  Sequence numbers start at 1 and increase by
   one per record; a gap or repeat marks the log invalid from that
   point on. *)

let header_bytes = 24

type scan_result = {
  records : string array;
  valid_bytes : int;
  torn : bool;
  torn_reason : string option;
}

let le64_to_bytes v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Bytes.unsafe_to_string b

let bytes_to_le64 s off = Bytes.get_int64_le (Bytes.unsafe_of_string s) off

let encode_record ~seq payload =
  let seq_bytes = le64_to_bytes (Int64.of_int seq) in
  let crc = Crc32.string ~crc:(Crc32.string seq_bytes) payload in
  let buf = Buffer.create (header_bytes + String.length payload) in
  Buffer.add_string buf seq_bytes;
  Buffer.add_string buf (le64_to_bytes (Int64.of_int (String.length payload)));
  Buffer.add_string buf (le64_to_bytes (Int64.of_int crc));
  Buffer.add_string buf payload;
  Buffer.contents buf

(* Validate records in [data] starting at [off] (absolute offsets are
   [base] + relative position, for resumable reads), expecting sequence
   numbers from [seq] on.  Returns the payloads in order plus where and
   why scanning stopped. *)
let scan_chunk data ~base ~seq0 =
  let total = String.length data in
  let records = ref [] in
  let rec loop off seq =
    let remaining = total - off in
    if remaining = 0 then (off, false, None)
    else if remaining < header_bytes then
      (off, true, Some (Printf.sprintf "torn record header at offset %d" (base + off)))
    else
      let rseq = Int64.to_int (bytes_to_le64 data off) in
      let len = Int64.to_int (bytes_to_le64 data (off + 8)) in
      let crc = Int64.to_int (bytes_to_le64 data (off + 16)) in
      if rseq <> seq then
        (off, true, Some (Printf.sprintf "sequence gap at offset %d: expected %d, found %d" (base + off) seq rseq))
      else if len < 0 || len > remaining - header_bytes then
        (off, true, Some (Printf.sprintf "torn or invalid record length %d at offset %d" len (base + off)))
      else
        let seq_crc = Crc32.sub data ~pos:off ~len:8 in
        let actual = Crc32.sub data ~crc:seq_crc ~pos:(off + header_bytes) ~len in
        if actual <> crc then
          (off, true, Some (Printf.sprintf "checksum mismatch in record %d at offset %d" seq (base + off)))
        else begin
          records := String.sub data (off + header_bytes) len :: !records;
          loop (off + header_bytes + len) (seq + 1)
        end
  in
  let valid_rel, torn, torn_reason = loop 0 seq0 in
  (Array.of_list (List.rev !records), valid_rel, torn, torn_reason)

let scan_string data =
  let records, valid_bytes, torn, torn_reason = scan_chunk data ~base:0 ~seq0:1 in
  { records; valid_bytes; torn; torn_reason }

let scan ~path =
  if not (Sys.file_exists path) then
    { records = [||]; valid_bytes = 0; torn = false; torn_reason = None }
  else
    let ic = open_in_bin path in
    let data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    scan_string data

(* ------------------------------------------------- read-only tailing *)

type prefix = {
  payloads : string array;
  next_offset : int;
  next_seq : int;
  file_bytes : int;
  prefix_torn : bool;
  prefix_torn_reason : string option;
}

let read_valid_prefix ?(from = (0, 1)) ~path () =
  let offset, seq0 = from in
  if offset < 0 then invalid_arg "Wal.read_valid_prefix: negative offset";
  if seq0 < 1 then invalid_arg "Wal.read_valid_prefix: next_seq must be >= 1";
  if not (Sys.file_exists path) then
    {
      payloads = [||];
      next_offset = offset;
      next_seq = seq0;
      file_bytes = 0;
      prefix_torn = false;
      prefix_torn_reason = None;
    }
  else begin
    (* Strictly read-only: the file may belong to a live leader still
       appending to it, so — unlike [open_append] — a torn tail is
       reported, never truncated, and the caller resumes from
       [next_offset] once more bytes land. *)
    let ic = open_in_bin path in
    let file_bytes, data =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          if offset >= total then (total, "")
          else begin
            seek_in ic offset;
            (total, really_input_string ic (total - offset))
          end)
    in
    if offset > file_bytes then
      (* The file shrank below our cursor: a new writer truncated or
         replaced it.  Nothing here can be applied incrementally. *)
      {
        payloads = [||];
        next_offset = offset;
        next_seq = seq0;
        file_bytes;
        prefix_torn = true;
        prefix_torn_reason =
          Some (Printf.sprintf "file shrank to %d bytes below read offset %d" file_bytes offset);
      }
    else
      let payloads, valid_rel, torn, torn_reason = scan_chunk data ~base:offset ~seq0 in
      {
        payloads;
        next_offset = offset + valid_rel;
        next_seq = seq0 + Array.length payloads;
        file_bytes;
        prefix_torn = torn;
        prefix_torn_reason = torn_reason;
      }
  end

type t = {
  path : string;
  oc : out_channel;
  fsync : bool;
  mutable next_seq : int;
  mutable closed : bool;
}

let sync t =
  flush t.oc;
  if t.fsync then begin
    match Dbh_obs.Metrics.get () with
    | None -> Unix.fsync (Unix.descr_of_out_channel t.oc)
    | Some m ->
        let t0 = Dbh_obs.Metrics.now () in
        Unix.fsync (Unix.descr_of_out_channel t.oc);
        Dbh_obs.Registry.observe m.Dbh_obs.Metrics.fsync_seconds
          (Dbh_obs.Metrics.now () -. t0)
  end

let create ?(fsync = true) ~path () =
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o644 path in
  let t = { path; oc; fsync; next_seq = 1; closed = false } in
  sync t;
  t

let open_append ?(fsync = true) ~path () =
  let result = scan ~path in
  if result.torn then
    (* Drop the torn tail so new records extend a valid prefix instead of
       being buried behind garbage that every future scan stops at. *)
    Unix.truncate path result.valid_bytes;
  let oc = open_out_gen [ Open_wronly; Open_append; Open_creat; Open_binary ] 0o644 path in
  ({ path; oc; fsync; next_seq = Array.length result.records + 1; closed = false }, result)

let append t payload =
  if t.closed then invalid_arg "Wal.append: log is closed";
  let seq = t.next_seq in
  output_string t.oc (encode_record ~seq payload);
  t.next_seq <- seq + 1;
  sync t;
  (match Dbh_obs.Metrics.get () with
  | None -> ()
  | Some m -> Dbh_obs.Registry.inc m.Dbh_obs.Metrics.wal_appends_total);
  seq

let path t = t.path

let close t =
  if not t.closed then begin
    sync t;
    t.closed <- true;
    close_out_noerr t.oc
  end
