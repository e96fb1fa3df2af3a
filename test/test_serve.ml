(* The serving tier's chaos harness.

   Three layers of attack, mirroring the persistence suites' "kill at
   every offset" discipline:

   - codec: QCheck round-trips for every message kind, plus exhaustive
     adversarial inputs — every strict prefix of a valid frame must ask
     for more bytes, every single-bit corruption must be detected (CRC
     or magic), declared lengths beyond the cap must die before any
     buffering.
   - admission: deterministic token-bucket and queue arithmetic under a
     fake clock — no sleeps, no flakes.
   - server: a live TCP server hammered with torn frames at every cut
     point, bit flips at every position, slow loris, half-open sockets,
     oversize declarations, overload floods, and concurrent well-formed
     clients whose answers must stay bit-identical to a direct
     [Shards.search_many] on a twin directory throughout.

   Parallel fan-out honors DBH_TEST_DOMAINS (default 2). *)

module Rng = Dbh_util.Rng
module Binio = Dbh_util.Binio
module Pool = Dbh_util.Pool
module Space = Dbh_space.Space
module Minkowski = Dbh_metrics.Minkowski
module Registry = Dbh_obs.Registry
module Durable = Dbh.Online.Durable
module Protocol = Dbh_serve.Protocol
module Bucket = Dbh_serve.Bucket
module Admission = Dbh_serve.Admission
module Shards = Dbh_serve.Shards
module Server = Dbh_serve.Server
module Client = Dbh_serve.Client
module Loadgen = Dbh_serve.Loadgen
module Serve_metrics = Dbh_serve.Serve_metrics

(* Chaos sockets die under us mid-write; that must fail the write, not
   the test binary. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let domains =
  match Sys.getenv_opt "DBH_TEST_DOMAINS" with
  | None -> 2
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> n
      | _ -> invalid_arg "DBH_TEST_DOMAINS must be a positive integer")

let l2 = Minkowski.l2_space

let small_config =
  { Dbh.Builder.default_config with num_pivots = 20; num_sample_queries = 60; db_sample = 150 }

let test_db seed n =
  let rng = Rng.create seed in
  let db, _ = Dbh_datasets.Vectors.gaussian_mixture ~rng ~num_clusters:6 ~dim:4 n in
  db

let encode (v : float array) =
  let buf = Buffer.create 64 in
  Binio.write_float_array buf v;
  Buffer.contents buf

let decode s =
  let r = Binio.reader s in
  let v = Binio.read_float_array r in
  if not (Binio.at_end r) then raise (Binio.Corrupt "trailing bytes in vector");
  v

let with_dir f = Temp_dir.with_dir "serve" f

(* ----------------------------------------------------------- protocol *)

let sample_requests =
  [
    Protocol.Ping;
    Protocol.Search
      {
        tenant = "gold";
        deadline_ms = 250;
        budget = 4096;
        probes = 3;
        radius = 2;
        payload = "\x00\x01binary\xffpayload";
      };
    Protocol.Search
      { tenant = ""; deadline_ms = 0; budget = 0; probes = 0; radius = 0; payload = "" };
    Protocol.Insert { tenant = "t"; deadline_ms = 42; payload = String.make 300 '\x7f' };
    Protocol.Delete { tenant = ""; deadline_ms = 0; handle = 123456789 };
    Protocol.Stats;
  ]

let sample_responses =
  [
    Protocol.Pong;
    Protocol.Result
      { found = true; handle = 17; dist = 0.125; cost = 4242; truncated = true };
    Protocol.Result
      { found = false; handle = 0; dist = Float.infinity; cost = 0; truncated = false };
    Protocol.Inserted { handle = 99 };
    Protocol.Deleted;
    Protocol.Stats_reply "{\"shards\":[]}";
    Protocol.Overloaded { retry_after_ms = 350 };
    Protocol.Bad_request "no thanks";
    Protocol.Timed_out;
    Protocol.Server_error "boom";
  ]

let decode_all s =
  Protocol.decode_frame (Bytes.of_string s) ~off:0 ~len:(String.length s)

let test_request_roundtrip_samples () =
  List.iteri
    (fun i req ->
      let id = Int64.of_int (i + 1) in
      let wire = Protocol.encode_request ~id req in
      match decode_all wire with
      | `Frame (f, consumed) ->
          Alcotest.(check int) "consumed everything" (String.length wire) consumed;
          Alcotest.(check int64) "id echoed" id f.Protocol.id;
          (match Protocol.request_of_frame f with
          | Ok req' ->
              Alcotest.(check bool)
                (Format.asprintf "%a round-trips" Protocol.pp_request req)
                true
                (Protocol.equal_request req req')
          | Error e -> Alcotest.failf "parse failed: %s" e)
      | `Need_more -> Alcotest.fail "complete frame asked for more"
      | `Corrupt e -> Alcotest.failf "complete frame corrupt: %s" e)
    sample_requests

let test_response_roundtrip_samples () =
  List.iteri
    (fun i resp ->
      let id = Int64.of_int ((i * 7) + 3) in
      let wire = Protocol.encode_response ~id resp in
      match decode_all wire with
      | `Frame (f, consumed) ->
          Alcotest.(check int) "consumed everything" (String.length wire) consumed;
          Alcotest.(check int64) "id echoed" id f.Protocol.id;
          (match Protocol.response_of_frame f with
          | Ok resp' ->
              Alcotest.(check bool)
                (Format.asprintf "%a round-trips" Protocol.pp_response resp)
                true
                (Protocol.equal_response resp resp')
          | Error e -> Alcotest.failf "parse failed: %s" e)
      | `Need_more -> Alcotest.fail "complete frame asked for more"
      | `Corrupt e -> Alcotest.failf "complete frame corrupt: %s" e)
    sample_responses

(* QCheck: arbitrary requests round-trip through the wire codec. *)
let gen_request =
  let open QCheck.Gen in
  let tenant = string_size ~gen:printable (int_bound 32) in
  let payload = string_size (int_bound 600) in
  let small = int_bound 1_000_000 in
  oneof
    [
      return Protocol.Ping;
      return Protocol.Stats;
      (tenant >>= fun tenant ->
       small >>= fun deadline_ms ->
       small >>= fun budget ->
       int_bound 20 >>= fun probes ->
       int_bound 8 >>= fun radius ->
       payload >>= fun payload ->
       return
         (Protocol.Search { tenant; deadline_ms; budget; probes; radius; payload }));
      (tenant >>= fun tenant ->
       small >>= fun deadline_ms ->
       payload >>= fun payload ->
       return (Protocol.Insert { tenant; deadline_ms; payload }));
      (tenant >>= fun tenant ->
       small >>= fun deadline_ms ->
       small >>= fun handle ->
       return (Protocol.Delete { tenant; deadline_ms; handle }));
    ]

let arb_request =
  QCheck.make ~print:(Format.asprintf "%a" Protocol.pp_request) gen_request

let prop_request_roundtrip =
  QCheck.Test.make ~count:300 ~name:"request wire round-trip" arb_request (fun req ->
      let wire = Protocol.encode_request ~id:77L req in
      match decode_all wire with
      | `Frame (f, n) when n = String.length wire -> (
          match Protocol.request_of_frame f with
          | Ok req' -> Protocol.equal_request req req'
          | Error _ -> false)
      | _ -> false)

(* Every strict prefix of a valid frame is [`Need_more] — never an
   error, never a phantom frame. *)
let prop_truncation_needs_more =
  QCheck.Test.make ~count:120 ~name:"every strict prefix asks for more" arb_request
    (fun req ->
      let wire = Protocol.encode_request ~id:5L req in
      let ok = ref true in
      for cut = 0 to String.length wire - 1 do
        (match
           Protocol.decode_frame
             (Bytes.of_string (String.sub wire 0 cut))
             ~off:0 ~len:cut
         with
        | `Need_more -> ()
        | `Frame _ | `Corrupt _ -> ok := false);
        (* Same window inside a larger dirty buffer: must not peek past
           [len]. *)
        let padded = Bytes.make (cut + 64) '\xAA' in
        Bytes.blit_string wire 0 padded 0 cut;
        match Protocol.decode_frame padded ~off:0 ~len:cut with
        | `Need_more -> ()
        | `Frame _ | `Corrupt _ -> ok := false
      done;
      !ok)

(* Exhaustive single-bit corruption: no flipped frame may decode to the
   original message, and nothing may raise.  CRC-32 catches every 1-bit
   error in the covered span; flips in the magic die on the prefix
   check; flips in the length field either ask for more bytes or fail
   the CRC at the shifted trailer position. *)
let test_single_bit_flips_detected () =
  List.iteri
    (fun i req ->
      let id = Int64.of_int (i + 1) in
      let wire = Protocol.encode_request ~id req in
      for bit = 0 to (String.length wire * 8) - 1 do
        let b = Bytes.of_string wire in
        let byte = bit / 8 in
        Bytes.set b byte
          (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl (bit mod 8))));
        match Protocol.decode_frame b ~off:0 ~len:(Bytes.length b) with
        | `Corrupt _ | `Need_more -> ()
        | `Frame (f, _) -> (
            (* A length-field flip to a smaller frame could in principle
               re-frame; it must still never reconstruct the original. *)
            match Protocol.request_of_frame f with
            | Ok req' when Int64.equal f.Protocol.id id && Protocol.equal_request req req'
              ->
                Alcotest.failf "bit %d of %a survived corruption" bit
                  Protocol.pp_request req
            | _ -> ())
      done)
    sample_requests

let test_oversize_length_is_corrupt () =
  let wire =
    Protocol.encode_request ~id:1L
      (Protocol.Search
         {
           tenant = "";
           deadline_ms = 0;
           budget = 0;
           probes = 0;
           radius = 0;
           payload = String.make 4096 'x';
         })
  in
  (* The real frame passes under the default cap... *)
  (match decode_all wire with
  | `Frame _ -> ()
  | _ -> Alcotest.fail "4 KiB frame should decode");
  (* ...and dies instantly under a smaller one, even though the buffer
     holds only the header so far (never buffer what you won't parse). *)
  let header_only = String.sub wire 0 Protocol.header_bytes in
  match
    Protocol.decode_frame ~max_payload:1024
      (Bytes.of_string header_only)
      ~off:0 ~len:(String.length header_only)
  with
  | `Corrupt _ -> ()
  | `Need_more -> Alcotest.fail "oversize declaration must not wait for bytes"
  | `Frame _ -> Alcotest.fail "oversize declaration decoded"

let test_garbage_is_corrupt () =
  (match decode_all "GET /metrics HTTP/1.0\r\n\r\n" with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "HTTP to the data port must be corrupt");
  match decode_all "XXXX\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" with
  | `Corrupt _ -> ()
  | _ -> Alcotest.fail "bad magic must be corrupt"

let test_well_framed_garbage_keeps_framing () =
  (* A perfectly framed message of the wrong kind is a parse error, not
     a framing error: the server replies Bad_request and keeps the
     connection. *)
  let wire = Protocol.encode_request ~id:9L Protocol.Ping in
  let resp_wire = Protocol.encode_response ~id:9L Protocol.Deleted in
  (match decode_all resp_wire with
  | `Frame (f, _) -> (
      match Protocol.request_of_frame f with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "response kind parsed as request")
  | _ -> Alcotest.fail "frame should decode");
  match decode_all wire with
  | `Frame (f, _) -> (
      match Protocol.response_of_frame f with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "request kind parsed as response")
  | _ -> Alcotest.fail "frame should decode"

let test_pipelined_frames_decode_in_sequence () =
  let reqs = sample_requests in
  let wire =
    String.concat ""
      (List.mapi (fun i r -> Protocol.encode_request ~id:(Int64.of_int i) r) reqs)
  in
  let buf = Bytes.of_string wire in
  let off = ref 0 in
  List.iteri
    (fun i req ->
      match Protocol.decode_frame buf ~off:!off ~len:(String.length wire - !off) with
      | `Frame (f, n) ->
          Alcotest.(check int64) "id in sequence" (Int64.of_int i) f.Protocol.id;
          (match Protocol.request_of_frame f with
          | Ok req' ->
              Alcotest.(check bool) "payload in sequence" true
                (Protocol.equal_request req req')
          | Error e -> Alcotest.failf "parse failed: %s" e);
          off := !off + n
      | `Need_more -> Alcotest.fail "ran out mid-stream"
      | `Corrupt e -> Alcotest.failf "corrupt mid-stream: %s" e)
    reqs;
  Alcotest.(check int) "stream fully consumed" (String.length wire) !off

(* ------------------------------------------------------------- bucket *)

let test_bucket_arithmetic () =
  let b = Bucket.create ~rate:10. ~burst:5. ~now:100. in
  Alcotest.(check (float 1e-9)) "starts full" 5. (Bucket.tokens b ~now:100.);
  for _ = 1 to 5 do
    Alcotest.(check bool) "burst admits" true (Bucket.try_take b ~now:100.)
  done;
  Alcotest.(check bool) "empty sheds" false (Bucket.try_take b ~now:100.);
  Alcotest.(check (float 1e-6)) "honest retry-after" 0.1
    (Bucket.seconds_until b ~now:100.);
  (* 0.25 s at 10/s refills 2.5 tokens. *)
  Alcotest.(check bool) "refilled" true (Bucket.try_take b ~now:100.25);
  Alcotest.(check bool) "refilled twice" true (Bucket.try_take b ~now:100.25);
  Alcotest.(check bool) "but not thrice" false (Bucket.try_take b ~now:100.25);
  (* A long quiet period clamps at burst, not beyond. *)
  Alcotest.(check (float 1e-9)) "clamped at burst" 5. (Bucket.tokens b ~now:1000.);
  (* Clock going backwards must not mint tokens. *)
  let before = Bucket.tokens b ~now:1000. in
  Alcotest.(check (float 1e-9)) "backwards clock is a no-op" before
    (Bucket.tokens b ~now:999.);
  (match Bucket.create ~rate:0. ~burst:1. ~now:0. with
  | _ -> Alcotest.fail "rate 0 accepted"
  | exception Invalid_argument _ -> ());
  match Bucket.create ~rate:1. ~burst:0.5 ~now:0. with
  | _ -> Alcotest.fail "burst < 1 accepted"
  | exception Invalid_argument _ -> ()

(* ---------------------------------------------------------- admission *)

let dummy_item ?(tenant = "") ?(deadline = 1e9) t ~now =
  {
    Admission.request = Protocol.Ping;
    id = 1L;
    tenant;
    deadline;
    budget = Admission.budget_for t ~tenant ~remaining:(deadline -. now) ~requested:0;
    enqueued_at = now;
    reply = ignore;
  }

let test_admission_deadline_and_budget () =
  let cfg =
    {
      Admission.default_config with
      default_deadline = 2.0;
      max_deadline = 10.0;
      default_class = { Admission.rate = 100.; burst = 50.; max_budget = 10_000 };
    }
  in
  let t = Admission.create ~now:1000. cfg in
  Alcotest.(check (float 1e-9)) "no deadline -> default" 1002.
    (Admission.resolve_deadline t ~now:1000. ~deadline_ms:0);
  Alcotest.(check (float 1e-9)) "client deadline honored" 1000.25
    (Admission.resolve_deadline t ~now:1000. ~deadline_ms:250);
  Alcotest.(check (float 1e-9)) "clamped to max" 1010.
    (Admission.resolve_deadline t ~now:1000. ~deadline_ms:3_600_000);
  Admission.set_distances_per_second t 1000.;
  Alcotest.(check int) "requested budget wins" 123
    (Admission.budget_for t ~tenant:"" ~remaining:5. ~requested:123);
  Alcotest.(check int) "requested clamped to class cap" 10_000
    (Admission.budget_for t ~tenant:"" ~remaining:5. ~requested:1_000_000);
  Alcotest.(check int) "deadline-derived = remaining x dps" 500
    (Admission.budget_for t ~tenant:"" ~remaining:0.5 ~requested:0);
  Alcotest.(check int) "derived clamped to class cap" 10_000
    (Admission.budget_for t ~tenant:"" ~remaining:1e6 ~requested:0);
  Alcotest.(check int) "never below 1" 1
    (Admission.budget_for t ~tenant:"" ~remaining:(-3.) ~requested:0);
  Admission.set_distances_per_second t Float.nan;
  Admission.set_distances_per_second t (-5.);
  Alcotest.(check (float 1e-9)) "bogus rates ignored" 1000.
    (Admission.distances_per_second t)

let test_admission_sheds_dont_collapse () =
  let cfg =
    {
      Admission.default_config with
      queue_capacity = 2;
      default_class = { Admission.rate = 1.; burst = 10.; max_budget = 100 };
      classes = [ ("gold", { Admission.rate = 100.; burst = 100.; max_budget = 100 }) ];
    }
  in
  let t = Admission.create ~now:0. cfg in
  let admit ?tenant now = Admission.admit t ~now (dummy_item ?tenant t ~now) in
  (match admit 0. with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "first admit");
  (match admit 0. with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "second admit");
  Alcotest.(check int) "queue depth" 2 (Admission.depth t);
  (* Tokens remain (burst 10), so the refusal is the queue's — and a
     queue shed must not burn a token. *)
  (match admit 0. with
  | Admission.Shed_queue -> ()
  | _ -> Alcotest.fail "third admit must shed on queue");
  (* Pop frees capacity in arrival order. *)
  let batch = Admission.pop_batch t ~max:10 in
  Alcotest.(check int) "popped both" 2 (List.length batch);
  Alcotest.(check int) "drained" 0 (Admission.depth t);
  (* Burn the default bucket: burst 10, minus the two admits — the
     queue-shed above consumed nothing (capacity is checked before the
     bucket), so exactly 8 tokens remain. *)
  for _ = 1 to 8 do
    match admit 0. with
    | Admission.Admitted -> ignore (Admission.pop_batch t ~max:1)
    | v ->
        Alcotest.failf "unexpected verdict %s"
          (match v with
          | Admission.Shed_rate _ -> "rate"
          | Admission.Shed_queue -> "queue"
          | Admission.Shed_draining -> "drain"
          | Admission.Admitted -> "admitted")
  done;
  (match admit 0. with
  | Admission.Shed_rate retry ->
      Alcotest.(check bool) "positive retry-after" true (retry > 0.)
  | _ -> Alcotest.fail "empty bucket must shed on rate");
  (* An unconfigured tenant shares the same default bucket... *)
  (match admit ~tenant:"anonymous" 0. with
  | Admission.Shed_rate _ -> ()
  | _ -> Alcotest.fail "unknown tenants share the default bucket");
  (* ...while the configured class rides its own. *)
  (match admit ~tenant:"gold" 0. with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "gold must still be admitted");
  ignore (Admission.pop_batch t ~max:1);
  (* Time refills the default bucket. *)
  (match admit 3. with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "refilled bucket must admit");
  ignore (Admission.pop_batch t ~max:1);
  (* Draining sheds everything new, drains what is queued. *)
  (match admit ~tenant:"gold" 3. with
  | Admission.Admitted -> ()
  | _ -> Alcotest.fail "pre-drain admit");
  Admission.start_draining t;
  (match admit ~tenant:"gold" 3. with
  | Admission.Shed_draining -> ()
  | _ -> Alcotest.fail "draining must shed");
  Alcotest.(check int) "drain_remaining takes the queue" 1
    (List.length (Admission.drain_remaining t));
  Admission.close t;
  Alcotest.(check int) "closed pop returns []" 0
    (List.length (Admission.pop_batch t ~max:4))

let test_admission_tenant_tokens () =
  let cfg =
    {
      Admission.default_config with
      classes = [ ("gold", { Admission.rate = 10.; burst = 5.; max_budget = 10 }) ];
    }
  in
  let t = Admission.create ~now:0. cfg in
  let toks = Admission.tenant_tokens t ~now:0. in
  Alcotest.(check bool) "gold gauge present" true (List.mem_assoc "gold" toks);
  Alcotest.(check bool) "default gauge present" true (List.mem_assoc "default" toks);
  Alcotest.(check (float 1e-9)) "gold starts at burst" 5. (List.assoc "gold" toks)

(* ------------------------------------------------------------- server *)

let seed_data = test_db 31 150
let queries = test_db 77 25

type harness = {
  server : float array Server.t;
  shards : float array Shards.t;
  dir : string;
}

let with_server ?(shards = 2) ?(space = l2) ?admission ?(batch_max = 32)
    ?(idle_timeout = 10.) ?(metrics_port = None) ?(so_sndbuf = None)
    ?(data = seed_data) ?(payload_decode = decode) f =
  with_dir @@ fun dir ->
  let sh, _ =
    Shards.open_or_create ~fsync:false ~build:small_config ~seed:42 ~shards
      ~target_accuracy:0.9 ~space ~encode ~decode ~dir ~data ()
  in
  let config =
    {
      Server.default_config with
      admission = Option.value admission ~default:Admission.default_config;
      batch_max;
      idle_timeout;
      metrics_port;
      so_sndbuf;
      drain_timeout = 2.0;
    }
  in
  let run pool =
    let server = Server.start ?pool ~decode:payload_decode config sh in
    Fun.protect
      ~finally:(fun () -> Server.stop server)
      (fun () -> f { server; shards = sh; dir })
  in
  if domains > 1 then Pool.with_pool ~domains (fun p -> run (Some p))
  else run None

(* The oracle for bit-identity: every query searched directly on a twin
   sharded index in another directory. *)
let direct_answers ~shards ~budget =
  with_dir @@ fun dir ->
  let twin, _ =
    Shards.open_or_create ~fsync:false ~build:small_config ~seed:42 ~shards
      ~target_accuracy:0.9 ~space:l2 ~encode ~decode ~dir ~data:seed_data ()
  in
  let specs = Array.map (fun q -> (q, { Shards.budget; probes = 0; radius = 0 })) queries in
  let direct = Shards.search_many twin specs in
  (* The server fans out only where the machine has a core for each pool
     domain, so the pooled fan-out is held to the sequential one here. *)
  if domains > 1 then
    Pool.with_pool ~domains (fun pool ->
        Alcotest.(check bool) "pooled fan-out = sequential" true
          (Shards.search_many ~pool twin specs = direct));
  Shards.close twin;
  direct

let connect h = Client.connect ~host:"127.0.0.1" ~port:(Server.port h.server) ()

let check_result_matches msg (a : Shards.answer) (resp : Protocol.response) =
  match (resp, a.Shards.nn) with
  | Protocol.Result r, Some (handle, dist) ->
      Alcotest.(check bool) (msg ^ ": found") true r.found;
      Alcotest.(check int) (msg ^ ": handle") handle r.handle;
      Alcotest.(check (float 0.)) (msg ^ ": dist") dist r.dist;
      Alcotest.(check int) (msg ^ ": cost") a.Shards.cost r.cost;
      Alcotest.(check bool) (msg ^ ": truncated") a.Shards.truncated r.truncated
  | Protocol.Result r, None ->
      Alcotest.(check bool) (msg ^ ": not found") false r.found
  | other, _ ->
      Alcotest.failf "%s: expected Result, got %a" msg Protocol.pp_response other

let test_ping_and_stats () =
  with_server (fun h ->
      let c = connect h in
      Alcotest.(check bool) "pong" true (Client.ping c);
      (match Client.stats c with
      | Protocol.Stats_reply s ->
          Alcotest.(check bool) "stats mention shards" true
            (contains ~needle:"shard" s && String.index_opt s '{' <> None)
      | other -> Alcotest.failf "expected stats, got %a" Protocol.pp_response other);
      Client.close c)

let test_search_bit_identical_to_direct () =
  let shards = 3 in
  let budget = 100_000 in
  let direct = direct_answers ~shards ~budget in
  with_server ~shards (fun h ->
      let c = connect h in
      Array.iteri
        (fun i q ->
          let resp =
            Client.search ~deadline_ms:30_000 ~budget c ~payload:(encode q)
          in
          check_result_matches (Printf.sprintf "query %d" i) direct.(i) resp)
        queries;
      Client.close c)

(* The acceptance bar: several well-formed clients in parallel, while
   chaos connections spray torn and corrupt bytes at the same port —
   every well-formed answer must still be bit-identical to the direct
   search. *)
let test_concurrent_clients_with_chaos () =
  let shards = 2 in
  let budget = 100_000 in
  let direct = direct_answers ~shards ~budget in
  with_server ~shards ~idle_timeout:0.5 (fun h ->
      let port = Server.port h.server in
      let failures = Atomic.make 0 in
      let stop_chaos = Atomic.make false in
      let chaos_thread seed =
        Thread.create
          (fun () ->
            let rng = Rng.create seed in
            let wire =
              Protocol.encode_request ~id:3L
                (Protocol.Search
                   {
                     tenant = "";
                     deadline_ms = 50;
                     budget = 10;
                     probes = 0;
                     radius = 0;
                     payload = encode queries.(0);
                   })
            in
            while not (Atomic.get stop_chaos) do
              (try
                 let fd = Unix.socket PF_INET SOCK_STREAM 0 in
                 Fun.protect
                   ~finally:(fun () -> try Unix.close fd with _ -> ())
                   (fun () ->
                     Unix.connect fd
                       (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
                     match Rng.int rng 3 with
                     | 0 ->
                         (* Torn prefix. *)
                         let cut = Rng.int rng (String.length wire) in
                         ignore (Unix.write_substring fd wire 0 cut)
                     | 1 ->
                         (* Bit flip. *)
                         let b = Bytes.of_string wire in
                         let bit = Rng.int rng (Bytes.length b * 8) in
                         Bytes.set b (bit / 8)
                           (Char.chr
                              (Char.code (Bytes.get b (bit / 8))
                              lxor (1 lsl (bit mod 8))));
                         ignore (Unix.write fd b 0 (Bytes.length b))
                     | _ ->
                         (* Pure garbage. *)
                         ignore
                           (Unix.write_substring fd "\xde\xad\xbe\xef garbage" 0 16))
               with Unix.Unix_error _ -> ());
              Thread.yield ()
            done)
          ()
      in
      let client_thread k =
        Thread.create
          (fun () ->
            try
              let c = connect h in
              Array.iteri
                (fun i q ->
                  let resp =
                    Client.search ~deadline_ms:30_000 ~budget c
                      ~payload:(encode q)
                  in
                  try
                    check_result_matches
                      (Printf.sprintf "client %d query %d" k i)
                      direct.(i) resp
                  with _ -> Atomic.incr failures)
                queries;
              Client.close c
            with _ -> Atomic.incr failures)
          ()
      in
      let chaos = List.init 2 (fun i -> chaos_thread (1000 + i)) in
      let clients = List.init 3 client_thread in
      List.iter Thread.join clients;
      Atomic.set stop_chaos true;
      List.iter Thread.join chaos;
      Alcotest.(check int) "no divergent or failed well-formed request" 0
        (Atomic.get failures);
      (* The server survived it all. *)
      let c = connect h in
      Alcotest.(check bool) "still serving" true (Client.ping c);
      Client.close c)

let test_insert_delete_roundtrip () =
  with_server (fun h ->
      let c = connect h in
      let v = Array.init 4 (fun i -> 9000. +. float_of_int i) in
      let handle =
        match Client.insert c ~payload:(encode v) with
        | Protocol.Inserted { handle } -> handle
        | other -> Alcotest.failf "expected Inserted, got %a" Protocol.pp_response other
      in
      (match Client.search ~budget:1_000_000 c ~payload:(encode v) with
      | Protocol.Result { found = true; handle = h'; dist; _ } ->
          Alcotest.(check int) "finds its own insert" handle h';
          Alcotest.(check (float 1e-9)) "at distance zero" 0. dist
      | other -> Alcotest.failf "expected Result, got %a" Protocol.pp_response other);
      (match Client.delete c ~handle with
      | Protocol.Deleted -> ()
      | other -> Alcotest.failf "expected Deleted, got %a" Protocol.pp_response other);
      (match Client.delete c ~handle with
      | Protocol.Deleted -> ()  (* idempotent *)
      | other -> Alcotest.failf "expected Deleted, got %a" Protocol.pp_response other);
      (match Client.search ~budget:1_000_000 c ~payload:(encode v) with
      | Protocol.Result { handle = h'; _ } ->
          Alcotest.(check bool) "deleted handle gone" true (h' <> handle)
      | other -> Alcotest.failf "expected Result, got %a" Protocol.pp_response other);
      (* A handle that routes outside any shard is a Bad_request, not a
         dead connection. *)
      (match Client.delete c ~handle:max_int with
      | Protocol.Bad_request _ -> ()
      | other ->
          Alcotest.failf "expected Bad_request, got %a" Protocol.pp_response other);
      Alcotest.(check bool) "connection survives bad request" true (Client.ping c);
      Client.close c)

let test_pipelined_requests_all_answered () =
  with_server (fun h ->
      let c = connect h in
      let n = 20 in
      let ids =
        List.init n (fun i ->
            Client.send c
              (Protocol.Search
                 {
                   tenant = "";
                   deadline_ms = 30_000;
                   budget = 10_000;
                   probes = 0;
                   radius = 0;
                   payload = encode queries.(i mod Array.length queries);
                 }))
      in
      let replies = List.init n (fun _ -> Client.recv c) in
      let got = List.sort compare (List.map fst replies) in
      Alcotest.(check (list int64)) "every id answered exactly once"
        (List.sort compare ids) got;
      List.iter
        (fun (_, resp) ->
          match resp with
          | Protocol.Result _ -> ()
          | other ->
              Alcotest.failf "expected Result, got %a" Protocol.pp_response other)
        replies;
      Client.close c)

let test_bad_payload_gets_bad_request () =
  with_server (fun h ->
      let c = connect h in
      (match Client.search ~budget:100 c ~payload:"not a float array" with
      | Protocol.Bad_request _ -> ()
      | other ->
          Alcotest.failf "expected Bad_request, got %a" Protocol.pp_response other);
      (* Radius beyond the key width is validation, not a crash. *)
      (match
         Client.search ~budget:100 ~radius:10_000 c ~payload:(encode queries.(0))
       with
      | Protocol.Bad_request _ -> ()
      | other ->
          Alcotest.failf "expected Bad_request, got %a" Protocol.pp_response other);
      Alcotest.(check bool) "connection survives" true (Client.ping c);
      Client.close c)

(* A search or insert decodes its payload once: the admission thread
   validates it by decoding it, and the batcher runs the decoded
   object. *)
let test_each_payload_decoded_once () =
  let decodes = Atomic.make 0 in
  let counting s =
    Atomic.incr decodes;
    decode s
  in
  with_server ~payload_decode:counting (fun h ->
      let c = connect h in
      let searches = 12 and inserts = 5 in
      for i = 0 to searches - 1 do
        match
          Client.search ~deadline_ms:30_000 ~budget:1_000 c ~payload:(encode queries.(i))
        with
        | Protocol.Result _ -> ()
        | other -> Alcotest.failf "expected Result, got %a" Protocol.pp_response other
      done;
      for i = 0 to inserts - 1 do
        let v = Array.init 4 (fun j -> 500. +. float_of_int ((4 * i) + j)) in
        match Client.insert c ~payload:(encode v) with
        | Protocol.Inserted _ -> ()
        | other -> Alcotest.failf "expected Inserted, got %a" Protocol.pp_response other
      done;
      Alcotest.(check int) "one decode per search or insert" (searches + inserts)
        (Atomic.get decodes);
      Client.close c)

(* The process's thread count, where /proc tells it. *)
let threads_now () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "Threads"; n ] -> int_of_string_opt (String.trim n)
          | _ -> None)
        (String.split_on_char '\n' status)

(* One admission thread serves every connection: opening 32 starts no
   thread. *)
let test_connections_cost_no_threads () =
  with_server (fun h ->
      match threads_now () with
      | None -> ()
      | Some before ->
          let clients = List.init 32 (fun _ -> connect h) in
          List.iteri
            (fun i c ->
              Alcotest.(check bool) (Printf.sprintf "connection %d pongs" i) true
                (Client.ping c))
            clients;
          let after = Option.value (threads_now ()) ~default:before in
          List.iter Client.close clients;
          if after - before > 2 then
            Alcotest.failf "32 connections took %d threads (%d before, %d after)"
              (after - before) before after)

(* ------------------------------------------------------------- chaos *)

let raw_connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let test_torn_frames_at_every_offset () =
  with_server ~idle_timeout:0.4 (fun h ->
      let port = Server.port h.server in
      let wire =
        Protocol.encode_request ~id:1L
          (Protocol.Search
             {
               tenant = "tn";
               deadline_ms = 100;
               budget = 50;
               probes = 0;
               radius = 0;
               payload = encode queries.(0);
             })
      in
      for cut = 0 to String.length wire - 1 do
        let fd = raw_connect port in
        (try ignore (Unix.write_substring fd wire 0 cut)
         with Unix.Unix_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ())
      done;
      let c = connect h in
      Alcotest.(check bool) "alive after every torn offset" true (Client.ping c);
      Client.close c)

let test_bit_flips_never_produce_results () =
  with_server ~idle_timeout:0.4 (fun h ->
      let port = Server.port h.server in
      let wire = Protocol.encode_request ~id:7L Protocol.Ping in
      let saw_result = ref false in
      for bit = 0 to (String.length wire * 8) - 1 do
        let b = Bytes.of_string wire in
        Bytes.set b (bit / 8)
          (Char.chr (Char.code (Bytes.get b (bit / 8)) lxor (1 lsl (bit mod 8))));
        let fd = raw_connect port in
        (try
           ignore (Unix.write fd b 0 (Bytes.length b));
           Unix.setsockopt_float fd SO_RCVTIMEO 1.0;
           (* Whatever comes back, it must never be a well-formed Pong
              for our id: the corruption was detected server-side. *)
           let rbuf = Bytes.create 256 in
           let n = try Unix.read fd rbuf 0 256 with Unix.Unix_error _ -> 0 in
           if n > 0 then
             match Protocol.decode_frame rbuf ~off:0 ~len:n with
             | `Frame (f, _) -> (
                 match Protocol.response_of_frame f with
                 | Ok Protocol.Pong when Int64.equal f.Protocol.id 7L ->
                     saw_result := true
                 | _ -> ())
             | _ -> ()
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done;
      Alcotest.(check bool) "no corrupted frame was ever served" false !saw_result;
      let m = Server.metrics h.server in
      Alcotest.(check bool) "corruption was counted" true
        (Registry.counter_value m.Serve_metrics.bad_frames_total > 0);
      let c = connect h in
      Alcotest.(check bool) "alive after every bit flip" true (Client.ping c);
      Client.close c)

let test_slow_loris_is_killed () =
  with_server ~idle_timeout:0.3 (fun h ->
      let fd = raw_connect (Server.port h.server) in
      let wire = Protocol.encode_request ~id:1L Protocol.Ping in
      (* Half a frame, then silence: the partial-frame deadline must
         reap us, not wait forever. *)
      ignore (Unix.write_substring fd wire 0 (String.length wire / 2));
      Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
      let eof =
        try Unix.read fd (Bytes.create 64) 0 64 = 0 with Unix.Unix_error _ -> true
      in
      Alcotest.(check bool) "loris connection closed by server" true eof;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let m = Server.metrics h.server in
      Alcotest.(check bool) "kill was counted" true
        (Registry.counter_value m.Serve_metrics.connections_killed_total
        > 0);
      let c = connect h in
      Alcotest.(check bool) "alive after loris" true (Client.ping c);
      Client.close c)

let test_half_open_sockets_are_reaped () =
  with_server ~idle_timeout:0.3 (fun h ->
      let port = Server.port h.server in
      (* Open a pile of connections that never send a byte, and some
         that die abruptly (RST via SO_LINGER 0). *)
      let silent = List.init 8 (fun _ -> raw_connect port) in
      List.iter
        (fun _ ->
          let fd = raw_connect port in
          Unix.setsockopt_optint fd SO_LINGER (Some 0);
          Unix.close fd)
        (List.init 8 Fun.id);
      Unix.sleepf 0.6;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) silent;
      let c = connect h in
      Alcotest.(check bool) "alive after half-open flood" true (Client.ping c);
      Client.close c)

let test_oversize_declaration_kills_connection () =
  with_server (fun h ->
      let fd = raw_connect (Server.port h.server) in
      (* A header declaring a payload far over the cap: the server must
         refuse to buffer it and drop us. *)
      let b = Bytes.make Protocol.header_bytes '\x00' in
      Bytes.blit_string "DBHS" 0 b 0 4;
      Bytes.set b 4 '\x02';
      Bytes.set_int32_le b 13 0x7fff_ffffl;
      ignore (Unix.write fd b 0 (Bytes.length b));
      Unix.setsockopt_float fd SO_RCVTIMEO 5.0;
      let rbuf = Bytes.create 256 in
      (* Either an immediate close, or a best-effort Bad_request then
         close — never a hang, never a served request. *)
      let rec drain () =
        match Unix.read fd rbuf 0 256 with
        | 0 -> true
        | _ -> drain ()
        | exception Unix.Unix_error _ -> true
      in
      Alcotest.(check bool) "connection dropped" true (drain ());
      (try Unix.close fd with Unix.Unix_error _ -> ());
      let c = connect h in
      Alcotest.(check bool) "alive after oversize" true (Client.ping c);
      Client.close c)

(* A slow *reader*: pipelines a torrent of admitted work but never
   drains a single reply, so its socket buffers fill and every reply
   to it queues in its connection's outbox.  The outbox deadline must
   convert the jam into a shed (the connection is killed once its
   outbox has stayed non-empty for the idle timeout) instead of letting
   the replies pile up for good, no write may wedge the batcher, i.e.
   the entire serving plane, and [Server.stop] in the harness finally
   must complete rather than wait on the jammed peer.

   The test drives the real jam (replies queued until the outbox
   deadline sheds the connection) and asserts full recovery. *)
let test_slow_reader_never_stalls_serving () =
  let admission =
    {
      Admission.default_config with
      queue_capacity = 512;
      default_class =
        { Admission.rate = 1_000_000.; burst = 100_000.; max_budget = 500 };
    }
  in
  (* idle_timeout is also the outbox deadline, so the slow reader's
     jammed replies shed it after at most 2 s, inside the good client's
     pipelined send phase, which lasts until the slow reader is gone. *)
  (* A small server-side send buffer plus the tiny client receive window
     below make the jam deterministic: a few hundred replies fill both,
     regardless of kernel buffer autotuning defaults. *)
  with_server ~admission ~idle_timeout:2.0 ~so_sndbuf:(Some 4096) (fun h ->
      let port = Server.port h.server in
      let fd = Unix.socket PF_INET SOCK_STREAM 0 in
      (* Tiny receive window: the reply path jams after a few KB. *)
      Unix.setsockopt_int fd SO_RCVBUF 1024;
      Unix.setsockopt_float fd SO_SNDTIMEO 5.0;
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let payload = encode queries.(0) in
      let wire i =
        Protocol.encode_request ~id:(Int64.of_int i)
          (Protocol.Search
             {
               tenant = "";
               deadline_ms = 10_000;
               budget = 50;
               probes = 0;
               radius = 0;
               payload;
             })
      in
      (* Keep the pipeline saturated until the server sheds us: enough
         bytes that the replies (results and queue sheds alike) cannot
         fit in any default socket buffer.  The writes themselves start
         failing once the server shuts our socket down — that ends the
         thread. *)
      let writer =
        Thread.create
          (fun () ->
            let t0 = Unix.gettimeofday () in
            let i = ref 0 in
            try
              while !i < 50_000 && Unix.gettimeofday () -. t0 < 1.5 do
                incr i;
                let w = wire !i in
                ignore (Unix.write_substring fd w 0 (String.length w))
              done
            with Unix.Unix_error _ | Sys_error _ -> ())
          ()
      in
      (* Meanwhile a well-formed client keeps *pipelining* — sending
         without waiting, so its connection is never idle while a jammed
         write times out — until the slow reader has provably been shed
         (the connections_open gauge drops back to just us); only then
         does it stop and drain.  It takes whatever replies are already
         there as it goes, noting the results that arrive while the
         slow reader is still connected.  Every id must come back, a
         result or an honest shed, never silence or an error. *)
      let m = Server.metrics h.server in
      let jammed () = Registry.gauge_value m.Serve_metrics.connections_open > 1 in
      let c = connect h in
      let pending = Hashtbl.create 256 in
      let served = ref 0 and sent_jammed = ref 0 and served_jammed = ref 0 in
      let take () =
        let id, resp = Client.recv c in
        if Hashtbl.mem pending id then begin
          Hashtbl.remove pending id;
          match resp with
          | Protocol.Result _ ->
              incr served;
              if jammed () then incr served_jammed
          | Protocol.Overloaded _ | Protocol.Timed_out -> ()
          | other ->
              Alcotest.failf "unexpected reply under slow-reader jam: %a"
                Protocol.pp_response other
        end
      in
      let t0 = Unix.gettimeofday () in
      let elapsed () = Unix.gettimeofday () -. t0 in
      while (jammed () || elapsed () < 2.0) && elapsed () < 30. do
        if jammed () then incr sent_jammed;
        Hashtbl.replace pending
          (Client.send c
             (Protocol.Search
                {
                  tenant = "";
                  deadline_ms = 30_000;
                  budget = 500;
                  probes = 0;
                  radius = 0;
                  payload;
                }))
          ();
        Unix.sleepf 0.02;
        while Client.readable c do
          take ()
        done
      done;
      Alcotest.(check bool) "slow reader was shed, not tolerated" true
        (Registry.gauge_value m.Serve_metrics.connections_open <= 1);
      (* Drain with keep-alive pings: pending searches may still be
         queued, and a silent connection would be idle-killed before
         they complete.  Ping only when no reply is ready — a ping per
         loop turn would flood the server with pong-writes into the
         deliberately tiny send buffer and collapse reply throughput to
         the TCP ack clock. *)
      let give_up = Unix.gettimeofday () +. 60. in
      while Hashtbl.length pending > 0 && Unix.gettimeofday () < give_up do
        if Client.readable ~timeout:0.25 c then take ()
        else
          (* Idle quarter-second: refresh the server's receive clock. *)
          ignore (Client.send c Protocol.Ping)
      done;
      Alcotest.(check int) "every search answered exactly once" 0
        (Hashtbl.length pending);
      (* The server has closed the slow reader, but our writer can still
         sit in a write that the kernel fails only at its next
         zero-window probe, a second or more later.  Joining it first
         would leave the good client silent past the 2 s idle timeout,
         and the server would rightly kill it.  Shutting our end down
         fails that write at once. *)
      (try Unix.shutdown fd SHUTDOWN_ALL with Unix.Unix_error _ -> ());
      Thread.join writer;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Alcotest.(check bool) "good client served" true (!served > 0);
      (* No write waits on the jammed socket, so the batcher answers the
         good client while the slow reader is still connected, not after
         the outbox deadline has shed it.  Searches sent just before the
         shed, or shed while the flood held the queue, may come later. *)
      if !served_jammed = 0 || 2 * !served_jammed < !sent_jammed then
        Alcotest.failf
          "good client got %d results while the slow reader was connected, for %d \
           searches sent meanwhile"
          !served_jammed !sent_jammed;
      (* After the slow reader is gone the plane must be fully healthy. *)
      (match Client.search ~deadline_ms:10_000 ~budget:500 c ~payload with
      | Protocol.Result _ -> ()
      | other ->
          Alcotest.failf "expected Result after jam cleared, got %a"
            Protocol.pp_response other);
      Alcotest.(check bool) "alive after slow reader" true (Client.ping c);
      Client.close c)

let test_overload_flood_sheds_explicitly () =
  let admission =
    {
      Admission.default_config with
      queue_capacity = 4;
      default_class = { Admission.rate = 10.; burst = 4.; max_budget = 2_000 };
    }
  in
  with_server ~admission ~batch_max:2 (fun h ->
      let c = connect h in
      let n = 40 in
      let ids =
        List.init n (fun i ->
            Client.send c
              (Protocol.Search
                 {
                   tenant = "";
                   deadline_ms = 30_000;
                   budget = 500;
                   probes = 0;
                   radius = 0;
                   payload = encode queries.(i mod Array.length queries);
                 }))
      in
      let replies = List.init n (fun _ -> Client.recv c) in
      Alcotest.(check (list int64)) "every id answered exactly once"
        (List.sort compare ids)
        (List.sort compare (List.map fst replies));
      let served, shed, other =
        List.fold_left
          (fun (r, o, x) (_, resp) ->
            match resp with
            | Protocol.Result _ -> (r + 1, o, x)
            | Protocol.Overloaded { retry_after_ms } ->
                Alcotest.(check bool) "retry-after non-negative" true
                  (retry_after_ms >= 0);
                (r, o + 1, x)
            | Protocol.Timed_out -> (r, o, x)
            | _ -> (r, o, x + 1))
          (0, 0, 0) replies
      in
      Alcotest.(check int) "no error replies under flood" 0 other;
      Alcotest.(check bool) "some were served" true (served > 0);
      Alcotest.(check bool) "some were shed, explicitly" true (shed > 0);
      let m = Server.metrics h.server in
      Alcotest.(check bool) "sheds counted" true
        (Registry.counter_value m.Serve_metrics.shed_rate_total
         + Registry.counter_value m.Serve_metrics.shed_queue_total
        > 0);
      Alcotest.(check bool) "still serving after flood" true (Client.ping c);
      Client.close c)

let test_tenant_isolation_under_flood () =
  let admission =
    {
      Admission.default_config with
      queue_capacity = 512;
      default_class = { Admission.rate = 0.1; burst = 2.; max_budget = 2_000 };
      classes =
        [ ("gold", { Admission.rate = 10_000.; burst = 5_000.; max_budget = 2_000 }) ];
    }
  in
  with_server ~admission (fun h ->
      let c = connect h in
      let n = 20 in
      let send tenant =
        List.init n (fun i ->
            Client.send c
              (Protocol.Search
                 {
                   tenant;
                   deadline_ms = 30_000;
                   budget = 200;
                   probes = 0;
                   radius = 0;
                   payload = encode queries.(i mod Array.length queries);
                 }))
      in
      (* Interleave: free tenant floods, gold keeps its SLO. *)
      let free_ids = send "" and gold_ids = send "gold" in
      let replies = List.init (2 * n) (fun _ -> Client.recv c) in
      let count ids =
        List.fold_left
          (fun (ok, shed) (id, resp) ->
            if List.mem id ids then
              match resp with
              | Protocol.Result _ -> (ok + 1, shed)
              | Protocol.Overloaded _ -> (ok, shed + 1)
              | _ -> (ok, shed)
            else (ok, shed))
          (0, 0) replies
      in
      let gold_ok, gold_shed = count gold_ids in
      let free_ok, free_shed = count free_ids in
      Alcotest.(check int) "gold never shed" 0 gold_shed;
      Alcotest.(check int) "gold fully served" n gold_ok;
      Alcotest.(check bool) "free tenant was shed" true (free_shed > n / 2);
      Alcotest.(check bool) "free tenant not starved outright" true (free_ok >= 1);
      Client.close c)

(* Deadline propagation: a request whose deadline expires while an
   earlier slow batch holds the executor must come back [Timed_out]
   without costing a single distance computation.  The space sleeps per
   distance call once [slow] flips, making the first search occupy the
   batcher deterministically. *)
let test_expired_deadline_times_out () =
  let slow = Atomic.make false in
  let slow_space =
    Space.make ~name:"slow-l2" (fun a b ->
        if Atomic.get slow then Thread.delay 0.002;
        l2.Space.distance a b)
  in
  with_server ~space:slow_space ~batch_max:1 (fun h ->
      let c = connect h in
      Atomic.set slow true;
      let slow_id =
        Client.send c
          (Protocol.Search
             {
               tenant = "";
               deadline_ms = 30_000;
               budget = 100_000;
               probes = 0;
               radius = 0;
               payload = encode queries.(0);
             })
      in
      let doomed_id =
        Client.send c
          (Protocol.Search
             {
               tenant = "";
               deadline_ms = 1;
               budget = 100_000;
               probes = 0;
               radius = 0;
               payload = encode queries.(1);
             })
      in
      let r1 = Client.recv c and r2 = Client.recv c in
      Atomic.set slow false;
      let find id = List.assoc id [ r1; r2 ] in
      (match find slow_id with
      | Protocol.Result _ -> ()
      | other ->
          Alcotest.failf "slow search: expected Result, got %a" Protocol.pp_response
            other);
      (match find doomed_id with
      | Protocol.Timed_out -> ()
      | other ->
          Alcotest.failf "expired deadline: expected Timed_out, got %a"
            Protocol.pp_response other);
      let m = Server.metrics h.server in
      Alcotest.(check bool) "timeout counted" true
        (Registry.counter_value m.Serve_metrics.timed_out_total > 0);
      Client.close c)

(* ---------------------------------------------------- drain and crash *)

let test_graceful_drain_checkpoints_shards () =
  with_dir @@ fun dir ->
  let sh, _ =
    Shards.open_or_create ~fsync:false ~build:small_config ~seed:42 ~shards:2
      ~target_accuracy:0.9 ~space:l2 ~encode ~decode ~dir ~data:seed_data ()
  in
  let server = Server.start ~decode Server.default_config sh in
  let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
  let v = Array.init 4 (fun i -> 70. +. float_of_int i) in
  (match Client.insert c ~payload:(encode v) with
  | Protocol.Inserted _ -> ()
  | other -> Alcotest.failf "expected Inserted, got %a" Protocol.pp_response other);
  let size_before = Shards.size sh in
  Client.close c;
  Server.stop server;
  Server.stop server;  (* idempotent *)
  Server.wait server;
  (* Reopen: the drain checkpointed, so recovery replays nothing. *)
  let sh2, recoveries =
    Shards.open_or_create ~fsync:false ~build:small_config ~seed:42 ~shards:2
      ~target_accuracy:0.9 ~space:l2 ~encode ~decode ~dir ()
  in
  Array.iteri
    (fun i (r : Durable.recovery) ->
      Alcotest.(check int)
        (Printf.sprintf "shard %d: no replay debt after drain" i)
        0 r.Durable.replayed_ops;
      match r.Durable.source with
      | `Snapshot _ -> ()
      | _ -> Alcotest.failf "shard %d: expected snapshot recovery" i)
    recoveries;
  Alcotest.(check int) "state survived the drain" size_before (Shards.size sh2);
  Shards.close sh2

let test_kill_during_drain_checkpoint_recovers () =
  with_dir @@ fun dir ->
  let sh, _ =
    Shards.open_or_create ~fsync:false ~build:small_config ~seed:42 ~shards:2
      ~target_accuracy:0.9 ~space:l2 ~encode ~decode ~dir ~data:seed_data ()
  in
  let server = Server.start ~decode Server.default_config sh in
  let c = Client.connect ~host:"127.0.0.1" ~port:(Server.port server) () in
  let v = Array.init 4 (fun i -> 80. +. float_of_int i) in
  (match Client.insert c ~payload:(encode v) with
  | Protocol.Inserted _ -> ()
  | other -> Alcotest.failf "expected Inserted, got %a" Protocol.pp_response other);
  let size_before = Shards.size sh in
  Client.close c;
  (* Crash injected inside the drain's checkpoint: the stop must still
     tear the server down, and the directory must recover to the exact
     pre- or post-checkpoint state. *)
  (match Server.stop ~kill:Durable.After_snapshot server with
  | () -> Alcotest.fail "expected the injected crash to surface"
  | exception Durable.Killed _ -> ());
  let sh2, _ =
    Shards.open_or_create ~fsync:false ~build:small_config ~seed:42 ~shards:2
      ~target_accuracy:0.9 ~space:l2 ~encode ~decode ~dir ()
  in
  Alcotest.(check int) "no operation lost to the crash" size_before
    (Shards.size sh2);
  Shards.close sh2

let test_draining_server_sheds_with_drain_verdict () =
  with_server (fun h ->
      (* stop in another thread while we watch the draining flag. *)
      Alcotest.(check bool) "not draining yet" false (Server.draining h.server))
(* with_server's finally runs the stop; the drain path itself is
   asserted by the metrics scrape and the graceful-drain test above. *)

(* ------------------------------------------------------------ metrics *)

let test_metrics_endpoint_scrapes () =
  with_server ~metrics_port:(Some 0) (fun h ->
      let c = connect h in
      for _ = 1 to 3 do
        ignore (Client.ping c)
      done;
      ignore (Client.search ~budget:1_000 c ~payload:(encode queries.(0)));
      Client.close c;
      let mport =
        match Server.metrics_port h.server with
        | Some p -> p
        | None -> Alcotest.fail "metrics listener missing"
      in
      let fd = raw_connect mport in
      ignore
        (Unix.write_substring fd "GET /metrics HTTP/1.0\r\n\r\n" 0
           (String.length "GET /metrics HTTP/1.0\r\n\r\n"));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec slurp () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            slurp ()
      in
      slurp ();
      Unix.close fd;
      let body = Buffer.contents buf in
      Alcotest.(check bool) "HTTP 200" true
        (String.length body > 12 && String.sub body 0 12 = "HTTP/1.0 200");
      let payload =
        let sep = "\r\n\r\n" in
        let rec find i =
          if i + 4 > String.length body then
            Alcotest.fail "no body in metrics response"
          else if String.sub body i 4 = sep then
            String.sub body (i + 4) (String.length body - i - 4)
          else find (i + 1)
        in
        find 0
      in
      let samples = Registry.parse_exposition payload in
      let value name =
        match List.assoc_opt name samples with
        | Some v -> v
        | None -> Alcotest.failf "missing sample %s" name
      in
      Alcotest.(check bool) "requests counted" true
        (value "dbh_serve_requests_total" >= 4.);
      Alcotest.(check bool) "batches ran" true (value "dbh_serve_batches_total" >= 1.);
      Alcotest.(check bool) "not draining" true (value "dbh_serve_draining" = 0.))

(* ------------------------------------------------------------ loadgen *)

let test_loadgen_reports () =
  with_server (fun h ->
      let payloads = Array.map encode (test_db 99 16) in
      let report =
        Loadgen.run
          {
            Loadgen.host = "127.0.0.1";
            port = Server.port h.server;
            connections = 2;
            duration = 0.5;
            rate = None;
            tenants = [];
            deadline_ms = 5_000;
            budget = 2_000;
            probes = 0;
            radius = 0;
            payloads;
            seed = 7;
          }
      in
      Alcotest.(check bool) "sent some" true (report.Loadgen.sent > 0);
      Alcotest.(check bool) "served some" true (report.Loadgen.ok > 0);
      Alcotest.(check int) "no transport errors" 0 report.Loadgen.errors;
      Alcotest.(check bool) "accounting adds up" true
        (report.Loadgen.ok + report.Loadgen.shed + report.Loadgen.timed_out
         + report.Loadgen.errors
        <= report.Loadgen.sent);
      Alcotest.(check bool) "latency percentiles ordered" true
        (report.Loadgen.p50_ms <= report.Loadgen.p99_ms
        && report.Loadgen.p99_ms <= report.Loadgen.max_ms);
      let json = Loadgen.report_json report in
      Alcotest.(check bool) "json has goodput" true
        (contains ~needle:"goodput_qps" json))

let test_loadgen_open_loop_paces () =
  with_server (fun h ->
      let payloads = Array.map encode (test_db 98 8) in
      let report =
        Loadgen.run
          {
            Loadgen.host = "127.0.0.1";
            port = Server.port h.server;
            connections = 2;
            duration = 0.6;
            rate = Some 40.;
            tenants = [ ("gold", 3.); ("free", 1.) ];
            deadline_ms = 5_000;
            budget = 1_000;
            probes = 0;
            radius = 0;
            payloads;
            seed = 11;
          }
      in
      (* 40 rps for 0.6 s is 24 requests; the open loop must not send
         wildly more than the schedule allows. *)
      Alcotest.(check bool) "open loop holds the schedule" true
        (report.Loadgen.sent <= 40);
      Alcotest.(check bool) "both tenants exercised" true
        (List.length report.Loadgen.per_tenant = 2))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        qsuite [ prop_request_roundtrip; prop_truncation_needs_more ]
        @ [
            Alcotest.test_case "request samples round-trip" `Quick
              test_request_roundtrip_samples;
            Alcotest.test_case "response samples round-trip" `Quick
              test_response_roundtrip_samples;
            Alcotest.test_case "single-bit flips detected" `Quick
              test_single_bit_flips_detected;
            Alcotest.test_case "oversize length dies before buffering" `Quick
              test_oversize_length_is_corrupt;
            Alcotest.test_case "garbage is corrupt" `Quick test_garbage_is_corrupt;
            Alcotest.test_case "well-framed garbage keeps framing" `Quick
              test_well_framed_garbage_keeps_framing;
            Alcotest.test_case "pipelined frames decode in sequence" `Quick
              test_pipelined_frames_decode_in_sequence;
          ] );
      ("bucket", [ Alcotest.test_case "token arithmetic" `Quick test_bucket_arithmetic ]);
      ( "admission",
        [
          Alcotest.test_case "deadline and budget derivation" `Quick
            test_admission_deadline_and_budget;
          Alcotest.test_case "sheds, never collapses" `Quick
            test_admission_sheds_dont_collapse;
          Alcotest.test_case "tenant token gauges" `Quick test_admission_tenant_tokens;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and stats" `Quick test_ping_and_stats;
          Alcotest.test_case "bit-identical to direct search" `Quick
            test_search_bit_identical_to_direct;
          Alcotest.test_case "insert/delete round-trip" `Quick
            test_insert_delete_roundtrip;
          Alcotest.test_case "pipelined requests all answered" `Quick
            test_pipelined_requests_all_answered;
          Alcotest.test_case "bad payloads get Bad_request" `Quick
            test_bad_payload_gets_bad_request;
          Alcotest.test_case "expired deadlines time out" `Quick
            test_expired_deadline_times_out;
          Alcotest.test_case "not draining while serving" `Quick
            test_draining_server_sheds_with_drain_verdict;
          Alcotest.test_case "each payload decoded once" `Quick
            test_each_payload_decoded_once;
          Alcotest.test_case "connections cost no threads" `Quick
            test_connections_cost_no_threads;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "torn frames at every offset" `Quick
            test_torn_frames_at_every_offset;
          Alcotest.test_case "bit flips never produce results" `Quick
            test_bit_flips_never_produce_results;
          Alcotest.test_case "slow loris is killed" `Quick test_slow_loris_is_killed;
          Alcotest.test_case "half-open sockets are reaped" `Quick
            test_half_open_sockets_are_reaped;
          Alcotest.test_case "oversize declaration kills the connection" `Quick
            test_oversize_declaration_kills_connection;
          Alcotest.test_case "slow reader never stalls serving" `Quick
            test_slow_reader_never_stalls_serving;
          Alcotest.test_case "overload flood sheds explicitly" `Quick
            test_overload_flood_sheds_explicitly;
          Alcotest.test_case "tenant isolation under flood" `Quick
            test_tenant_isolation_under_flood;
          Alcotest.test_case "concurrent clients with chaos" `Quick
            test_concurrent_clients_with_chaos;
        ] );
      ( "drain",
        [
          Alcotest.test_case "graceful drain checkpoints shards" `Quick
            test_graceful_drain_checkpoints_shards;
          Alcotest.test_case "kill during drain checkpoint recovers" `Quick
            test_kill_during_drain_checkpoint_recovers;
        ] );
      ( "metrics",
        [ Alcotest.test_case "endpoint scrapes" `Quick test_metrics_endpoint_scrapes ] );
      ( "loadgen",
        [
          Alcotest.test_case "reports a load run" `Quick test_loadgen_reports;
          Alcotest.test_case "open loop paces" `Quick test_loadgen_open_loop_paces;
        ] );
    ]
