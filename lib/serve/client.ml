module Retry = Dbh_util.Retry

type t = {
  mutable fd : Unix.file_descr option;
  mutable id : int64;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable parked : (int64 * Protocol.response) list;  (* out-of-order replies *)
}

let connect ?(timeout = 10.) ?(retry = Retry.default) ?deadline ~host ~port () =
  let addr = Unix.ADDR_INET (Unix.inet_addr_of_string host, port) in
  let attempt_connect () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    try
      Unix.connect fd addr;
      (try Unix.setsockopt fd TCP_NODELAY true with Unix.Unix_error _ -> ());
      Unix.setsockopt_float fd SO_RCVTIMEO timeout;
      fd
    with e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  let fd =
    match deadline with
    | None -> attempt_connect ()
    | Some deadline ->
        let started = Unix.gettimeofday () in
        let rec go attempt =
          try attempt_connect ()
          with Unix.Unix_error ((ECONNREFUSED | ENETUNREACH | ETIMEDOUT), _, _) as e
          -> (
            let elapsed = Unix.gettimeofday () -. started in
            match
              Retry.backoff_within ~deadline ~elapsed:(Float.max 0. elapsed)
                retry ~attempt
            with
            | None -> raise e
            | Some d ->
                Unix.sleepf d;
                go (attempt + 1))
        in
        go 1
  in
  { fd = Some fd; id = 1L; buf = Bytes.create 16384; len = 0; parked = [] }

let the_fd t =
  match t.fd with Some fd -> fd | None -> invalid_arg "Client: closed"

let write_all fd s =
  let len = String.length s in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring fd s !off (len - !off)
  done

let send t req =
  let id = t.id in
  t.id <- Int64.add t.id 1L;
  write_all (the_fd t) (Protocol.encode_request ~id req);
  id

let recv t =
  let fd = the_fd t in
  match t.parked with
  | (id, resp) :: rest ->
      t.parked <- rest;
      (id, resp)
  | [] ->
      let rec read_frame () =
        match
          Protocol.decode_frame t.buf ~off:0 ~len:t.len
        with
        | `Frame (frame, consumed) ->
            Bytes.blit t.buf consumed t.buf 0 (t.len - consumed);
            t.len <- t.len - consumed;
            (match Protocol.response_of_frame frame with
            | Ok resp -> (frame.id, resp)
            | Error msg -> failwith ("Client: bad response: " ^ msg))
        | `Corrupt msg -> failwith ("Client: corrupt stream: " ^ msg)
        | `Need_more ->
            if t.len = Bytes.length t.buf then begin
              let nbuf = Bytes.create (2 * Bytes.length t.buf) in
              Bytes.blit t.buf 0 nbuf 0 t.len;
              t.buf <- nbuf
            end;
            let n = Unix.read fd t.buf t.len (Bytes.length t.buf - t.len) in
            if n = 0 then raise End_of_file;
            t.len <- t.len + n;
            read_frame ()
      in
      read_frame ()

let readable ?(timeout = 0.) t =
  match t.parked with
  | _ :: _ -> true
  | [] -> (
      match Protocol.decode_frame t.buf ~off:0 ~len:t.len with
      | `Frame _ | `Corrupt _ -> true  (* recv returns (or raises) at once *)
      | `Need_more -> (
          match Unix.select [ the_fd t ] [] [] timeout with
          | [], _, _ -> false
          | _ -> true
          | exception Unix.Unix_error (EINTR, _, _) -> false))

let request t req =
  let id = send t req in
  let rec await () =
    let rid, resp = recv t in
    if Int64.equal rid id then resp
    else begin
      t.parked <- t.parked @ [ (rid, resp) ];
      await ()
    end
  in
  await ()

let ping t =
  match request t Protocol.Ping with
  | Protocol.Pong -> true
  | _ -> false
  | exception _ -> false

let search ?(tenant = "") ?(deadline_ms = 0) ?(budget = 0) ?(probes = 0)
    ?(radius = 0) t ~payload =
  request t (Protocol.Search { tenant; deadline_ms; budget; probes; radius; payload })

let insert ?(tenant = "") ?(deadline_ms = 0) t ~payload =
  request t (Protocol.Insert { tenant; deadline_ms; payload })

let delete ?(tenant = "") ?(deadline_ms = 0) t ~handle =
  request t (Protocol.Delete { tenant; deadline_ms; handle })

let stats t = request t Protocol.Stats

let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
      t.fd <- None;
      (try Unix.close fd with Unix.Unix_error _ -> ())
