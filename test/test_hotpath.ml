(* Hot-path suite: the single-pass encode->seal pipeline and its wire
   guarantees.

   - Golden byte-equality: the arena encoder and the ESP in-place
     seal must emit exactly the bytes the old Buffer/concat pipeline
     did, for every procedure in the call corpus — the refactor is an
     allocation change, never a wire change.
   - XDR canonicality: RFC 4506 pad bytes must be zero on the way in;
     decode->encode round-trips are byte-identical.
   - ESP shape guards: per-cipher length validation runs before any
     slicing, and every such drop lands under [esp.drop.malformed].
   - Decode discipline: byte mutations of valid wire data raise only
     the documented typed errors.
   - The compound procedures (READDIRPLUS, MULTI_READ) round-trip
     over plain NFS and through the cluster's redirect path. *)

module Proto = Nfs.Proto
module Rpc = Oncrpc.Rpc
module Clock = Simnet.Clock
module Stats = Simnet.Stats

(* The reference is the pre-arena pipeline in test/oracle
   (Wire_oracle): nested Buffer for the credential body, a Buffer for
   the message, string concatenation for the ESP packet. *)

let mk_sa ?cipher () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  ( Ipsec.Sa.create ~clock ~cost:Simnet.Cost.default ~stats ~spi:7 ?cipher
      ~key:(String.make 32 'k') (),
    stats )

(* Representative pre-marshalled args for every NFS procedure plus
   the mount and compound extensions: the corpus the byte-equality
   tests sweep. Contents only need to be plausible bytes — the frame
   around them is what is under test. *)
let call_corpus =
  let e = Xdr.Enc.create () in
  Proto.fh_encode e { Proto.ino = 2; gen = 7 };
  let fh_bytes = Xdr.Enc.to_string e in
  let str s =
    let e = Xdr.Enc.create () in
    Xdr.Enc.string e s;
    Xdr.Enc.to_string e
  in
  List.concat
    [
      [ (Proto.nfs_prog, Proto.nfs_vers, 0, 0, "") (* NULL *) ];
      List.map
        (fun proc -> (Proto.nfs_prog, Proto.nfs_vers, proc, 1000, fh_bytes))
        [ 1; 4; 5; 6; 16; 17; 18; Proto.nfsproc_readdirplus; Proto.nfsproc_multi_read ];
      List.map
        (fun proc -> (Proto.nfs_prog, Proto.nfs_vers, proc, 1000, fh_bytes ^ str "name"))
        [ 2; 9; 10; 14 ];
      [ (Proto.mount_prog, Proto.mount_vers, 1, 0, str "/export") ];
    ]

let test_call_bytes_golden () =
  List.iteri
    (fun i (prog, vers, proc, uid, args) ->
      let xid = 0x1000 + i in
      let want = Wire_oracle.encode_call ~xid ~prog ~vers ~proc ~uid args in
      Alcotest.(check string)
        (Printf.sprintf "encode_call prog=%d proc=%d" prog proc)
        want
        (Rpc.encode_call ~xid ~prog ~vers ~proc ~uid args);
      let e = Xdr.Enc.create () in
      Rpc.encode_call_into e ~xid ~prog ~vers ~proc ~uid args;
      Alcotest.(check string)
        (Printf.sprintf "encode_call_into prog=%d proc=%d" prog proc)
        want (Xdr.Enc.to_string e))
    call_corpus

let test_reply_bytes_golden () =
  let cases =
    [
      (Ok "some results", 0);
      (Ok "", 0);
      (Error Rpc.Prog_unavail, 1);
      (Error Rpc.Proc_unavail, 3);
      (Error Rpc.Garbage_args, 4);
      (Error (Rpc.System_err "boom"), 5);
    ]
  in
  List.iteri
    (fun i (outcome, stat) ->
      let xid = 0x2000 + i in
      let want =
        Wire_oracle.encode_reply ~xid
          (match outcome with Ok r -> Ok r | Error _ -> Error stat)
      in
      let e = Xdr.Enc.create () in
      Rpc.encode_reply_into e ~xid outcome;
      Alcotest.(check string)
        (Printf.sprintf "encode_reply_into stat=%d" stat)
        want (Xdr.Enc.to_string e);
      (* And the receiver parses the frame back to the outcome. *)
      match (Rpc.decode_reply want, outcome) with
      | (xid', Ok got), Ok sent ->
        Alcotest.(check int) "reply xid" xid xid';
        Alcotest.(check string) "reply body" sent got
      | (xid', Error _), Error _ -> Alcotest.(check int) "fault xid" xid xid'
      | _ -> Alcotest.fail "reply outcome flipped")
    cases

let test_seal_bytes_golden () =
  (* Same key, same SPI, two fresh SAs: the sequence streams align,
     so packet k from the reference pipeline must equal packet k from
     the arena pipeline — including the sealed RPC frame the fused
     client path emits. *)
  let reference, _ = mk_sa () in
  let arena, _ = mk_sa () in
  let payloads =
    [ ""; "x"; "abc"; String.make 64 'p'; String.make 8192 'q'; String.make 8193 'r' ]
  in
  List.iter
    (fun payload ->
      Alcotest.(check string)
        (Printf.sprintf "sealed %d-byte payload" (String.length payload))
        (Wire_oracle.seal reference payload)
        (Ipsec.Esp.seal arena payload))
    payloads;
  List.iteri
    (fun i (prog, vers, proc, uid, args) ->
      let xid = 0x3000 + i in
      let want =
        Wire_oracle.seal reference (Wire_oracle.encode_call ~xid ~prog ~vers ~proc ~uid args)
      in
      let a = Ipsec.Esp.arena () in
      Rpc.encode_call_into (Ipsec.Esp.arena_enc a) ~xid ~prog ~vers ~proc ~uid args;
      Alcotest.(check string)
        (Printf.sprintf "sealed call prog=%d proc=%d" prog proc)
        want
        (Ipsec.Esp.seal_arena arena a))
    call_corpus;
  (* And the receiver opens what either pipeline sealed. *)
  let tx, _ = mk_sa () in
  let rx, _ = mk_sa () in
  Alcotest.(check string) "opens" "round trip"
    (Ipsec.Esp.open_ rx (Ipsec.Esp.seal tx "round trip"))

(* --- XDR canonicality -------------------------------------------------- *)

let corrupt_pad encoded ~at =
  let b = Bytes.of_string encoded in
  Bytes.set b at '\xff';
  Bytes.to_string b

let expect_decode_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Decode_error" name
  | exception Xdr.Decode_error _ -> ()

let test_nonzero_padding_rejected () =
  (* "abcde" as opaque: 4-byte length + 5 bytes + 3 pad bytes. *)
  let e = Xdr.Enc.create () in
  Xdr.Enc.opaque e "abcde";
  let good = Xdr.Enc.to_string e in
  Alcotest.(check int) "padded length" 12 (String.length good);
  Alcotest.(check string) "zero padding decodes" "abcde"
    (Xdr.Dec.opaque (Xdr.Dec.of_string good));
  for at = 9 to 11 do
    expect_decode_error
      (Printf.sprintf "opaque pad byte %d" at)
      (fun () -> Xdr.Dec.opaque (Xdr.Dec.of_string (corrupt_pad good ~at)))
  done;
  (* Same discipline for string and fixed-length opaque decoding. *)
  let e = Xdr.Enc.create () in
  Xdr.Enc.string e "hi";
  let s = Xdr.Enc.to_string e in
  expect_decode_error "string pad byte" (fun () ->
      Xdr.Dec.string (Xdr.Dec.of_string (corrupt_pad s ~at:7)));
  let e = Xdr.Enc.create () in
  Xdr.Enc.opaque_fixed e 6 "fixedA";
  let f = Xdr.Enc.to_string e in
  expect_decode_error "opaque_fixed pad byte" (fun () ->
      Xdr.Dec.opaque_fixed (Xdr.Dec.of_string (corrupt_pad f ~at:7)) 6);
  (* The payload bytes themselves are not the pad: corrupting them
     changes the value but must still decode. *)
  Alcotest.(check string) "payload corruption still decodes" "abcd\xff"
    (Xdr.Dec.opaque (Xdr.Dec.of_string (corrupt_pad good ~at:8)))

let prop_canonical_roundtrip =
  (* decode(encode(v)) = v, and re-encoding the decoded value
     reproduces the input bytes exactly: with zero-padding enforced on
     both sides there is one wire form per value. *)
  QCheck.Test.make ~name:"xdr round-trips are canonical" ~count:300
    (QCheck.make
       QCheck.Gen.(
         quad (int_bound 0xffffff) string_printable (string_size (int_bound 40)) bool))
    (fun (n, s, o, b) ->
      let encode (n, s, o, b) =
        let e = Xdr.Enc.create () in
        Xdr.Enc.uint32 e n;
        Xdr.Enc.string e s;
        Xdr.Enc.opaque e o;
        Xdr.Enc.bool e b;
        Xdr.Enc.to_string e
      in
      let wire = encode (n, s, o, b) in
      let d = Xdr.Dec.of_string wire in
      let n' = Xdr.Dec.uint32 d in
      let s' = Xdr.Dec.string d in
      let o' = Xdr.Dec.opaque d in
      let b' = Xdr.Dec.bool d in
      let v' = (n', s', o', b') in
      Xdr.Dec.expect_end d;
      v' = (n, s, o, b) && String.equal (encode v') wire)

let prop_mutated_xdr_typed_errors =
  (* Flipping any byte of a valid stream decodes to something, or
     fails with Decode_error — pad positions included; nothing else
     may escape. *)
  QCheck.Test.make ~name:"xdr decoders: byte mutations raise only Decode_error"
    ~count:500
    (QCheck.make QCheck.Gen.(triple (int_bound 10_000) (int_bound 255) small_string))
    (fun (pos, byte, s) ->
      let e = Xdr.Enc.create () in
      Xdr.Enc.string e s;
      Xdr.Enc.opaque e "pad me";
      Xdr.Enc.uint32 e 5;
      let wire = Xdr.Enc.to_string e in
      let b = Bytes.of_string wire in
      Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
      let d = Xdr.Dec.of_string (Bytes.to_string b) in
      match
        let _ = Xdr.Dec.string d in
        let _ = Xdr.Dec.opaque d in
        let _ = Xdr.Dec.uint32 d in
        Xdr.Dec.expect_end d
      with
      | () -> true
      | exception Xdr.Decode_error _ -> true)

(* --- allocation guards --------------------------------------------------- *)

(* Bytes one call allocates, measured the way the hotpath bench does:
   [Gc.full_major] before each single-op sample (so no collection
   lands inside it), median of 15. [f i] is the i-th op. *)
let alloc_median f =
  ignore (Sys.opaque_identity (f 0));
  let samples =
    Array.init 15 (fun i ->
        Gc.full_major ();
        let before = Gc.allocated_bytes () in
        ignore (Sys.opaque_identity (f (i + 1)));
        Gc.allocated_bytes () -. before)
  in
  Array.sort compare samples;
  samples.(7)

let test_alloc_guards () =
  let page = String.make 8192 'p' in
  let budget = float_of_int (String.length page + 1024) in
  let fill_budget = 1024.0 in
  let tx, _ = mk_sa () in
  let sealer, _ = mk_sa () and rx, _ = mk_sa () in
  let packets = Array.init 16 (fun _ -> Ipsec.Esp.seal sealer page) in
  (* The in-place open writes the plaintext over the ciphertext of a
     packet the receiver owns: its only allocations are the one-time
     key, nonce, tag and the view, not a payload. *)
  let owner_tx, _ = mk_sa () and owner_rx, _ = mk_sa () in
  let owned = Array.init 16 (fun _ -> Bytes.of_string (Ipsec.Esp.seal owner_tx page)) in
  let buf = Bytes.of_string page in
  let key = String.make 32 'k' and nonce = String.make 12 'n' in
  let cache = Ffs.Bcache.create ~capacity:4 in
  let block = Bytes.of_string page in
  let over =
    List.filter_map
      (fun (name, got, limit) ->
        if got > limit then Some (Printf.sprintf "%s allocates %.0f B (limit %.0f B)" name got limit)
        else None)
      [
        ("Esp.seal 8 KB", alloc_median (fun _ -> Ipsec.Esp.seal tx page), budget);
        ("Esp.open_ 8 KB", alloc_median (fun i -> Ipsec.Esp.open_ rx packets.(i)), budget);
        ( "Esp.open_in_place 8 KB",
          alloc_median (fun i -> Ipsec.Esp.open_in_place owner_rx owned.(i)),
          1024.0 );
        ( "Chacha20.xor_into 8 KB",
          alloc_median (fun _ -> Dcrypto.Chacha20.xor_into ~key ~nonce buf ~off:0 ~len:8192),
          1024.0 );
        (* Under Race.null a fill stores the block it is handed: no copy. *)
        ( "Bcache.insert 8 KB",
          alloc_median (fun i -> Ffs.Bcache.insert cache (i mod 8) block),
          fill_budget );
      ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* --- the gather arena ----------------------------------------------- *)

(* A random encoding program. [Patched] reserves a word, runs its body,
   optionally cuts the body back (never past the reserved word, as a
   failed RPC handler does) and patches the word; [Truncate] cuts the
   whole message at a fraction of its length and only occurs at top
   level, where no reserved word is still waiting for its patch. *)
type arena_op =
  | U32 of int
  | Opaque of string
  | Raw of string
  | Borrow of string * int * int
  | Patched of int * arena_op list * float option
  | Sub of arena_op list
  | Truncate of float

let rec run_ops ~borrow e ops = List.iter (run_op ~borrow e) ops

and run_op ~borrow e = function
  | U32 v -> Xdr.Enc.uint32 e v
  | Opaque s -> Xdr.Enc.opaque e s
  | Raw s -> Xdr.Enc.raw e s
  | Borrow (s, off, len) -> borrow e s ~off ~len
  | Patched (v, body, cut) ->
    let p = Xdr.Enc.reserve_uint32 e in
    let mark = Xdr.Enc.length e in
    run_ops ~borrow e body;
    Option.iter
      (fun f ->
        let n = mark + int_of_float (f *. float_of_int (Xdr.Enc.length e - mark)) in
        Xdr.Enc.truncate e n)
      cut;
    Xdr.Enc.patch_uint32 e p v
  | Sub body -> Xdr.Enc.sub_writer e (fun e -> run_ops ~borrow e body)
  | Truncate f -> Xdr.Enc.truncate e (int_of_float (f *. float_of_int (Xdr.Enc.length e)))

let gen_arena_ops =
  let open QCheck.Gen in
  let str = string_size ~gen:printable (int_range 0 40) in
  let borrowed =
    str >>= fun s ->
    int_range 0 (String.length s) >>= fun off ->
    int_range 0 (String.length s - off) >|= fun len -> Borrow (s, off, len)
  in
  let frac = float_range 0.0 1.0 in
  let rec body depth =
    let leaf =
      [
        (2, map (fun v -> U32 v) (int_range 0 0xffff));
        (1, map (fun s -> Opaque s) str);
        (1, map (fun s -> Raw s) str);
        (4, borrowed);
      ]
    in
    let nested =
      if depth = 0 then []
      else
        [
          ( 1,
            triple (int_range 0 0xffff) (list_size (int_range 0 5) (body (depth - 1)))
              (opt frac)
            >|= fun (v, ops, cut) -> Patched (v, ops, cut) );
          (1, map (fun ops -> Sub ops) (list_size (int_range 0 5) (body (depth - 1))));
        ]
    in
    frequency (leaf @ nested)
  in
  list_size (int_range 0 12) (frequency [ (6, body 2); (1, map (fun f -> Truncate f) frac) ])

let rec show_op = function
  | U32 v -> Printf.sprintf "u32 %d" v
  | Opaque s -> Printf.sprintf "opaque %S" s
  | Raw s -> Printf.sprintf "raw %S" s
  | Borrow (s, off, len) -> Printf.sprintf "borrow %S %d %d" s off len
  | Patched (v, ops, cut) ->
    Printf.sprintf "patched %d [%s]%s" v (show_ops ops)
      (match cut with Some f -> Printf.sprintf " cut %.3f" f | None -> "")
  | Sub ops -> Printf.sprintf "sub [%s]" (show_ops ops)
  | Truncate f -> Printf.sprintf "truncate %.3f" f

and show_ops ops = String.concat "; " (List.map show_op ops)

(* A gathered arena (borrowed ranges stay where they are) and a
   copying one (each borrow appended with [raw]) run the same program;
   they must agree on the logical length, on the bytes, and on what a
   peer opens after the seal, under either ESP transform. *)
let prop_gather_arena =
  QCheck.Test.make ~name:"gather arena agrees with a copying arena" ~count:300
    (QCheck.make ~print:(fun (ops, _) -> show_ops ops) QCheck.Gen.(pair gen_arena_ops bool))
    (fun (ops, tdes) ->
      let cipher = if tdes then Ipsec.Sa.Tdes_hmac_sha1 else Ipsec.Sa.Chacha20_poly1305 in
      let gathered = Xdr.Enc.create () and copied = Xdr.Enc.create () in
      run_ops ~borrow:Xdr.Enc.borrow gathered ops;
      run_ops
        ~borrow:(fun e s ~off ~len -> Xdr.Enc.raw e (String.sub s off len))
        copied ops;
      let bytes = Xdr.Enc.to_string copied in
      let opened a =
        let tx, _ = mk_sa ~cipher () and rx, _ = mk_sa ~cipher () in
        Ipsec.Esp.open_ rx (Ipsec.Esp.seal_arena tx a)
      in
      Xdr.Enc.length gathered = Xdr.Enc.length copied
      && String.length bytes = Xdr.Enc.length copied
      && String.equal (Xdr.Enc.to_string gathered) bytes
      && String.equal (opened gathered) bytes
      && String.equal (opened copied) bytes)

(* --- the borrowed-block data path ------------------------------------ *)

(* One file of four 8 KB pages on a cached volume (every read a hit),
   served by the NFS handler straight into a reply arena. *)
let data_path () =
  let clock = Clock.create () and stats = Stats.create () in
  let cost = Simnet.Cost.default in
  let dev =
    Ffs.Blockdev.create ~cache_blocks:64 ~clock ~cost ~stats ~nblocks:256 ~block_size:8192 ()
  in
  let fs = Ffs.Fs.create ~dev ~ninodes:64 in
  let ino = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o644 ~uid:0 in
  Ffs.Fs.write fs ino ~off:0 (String.init (4 * 8192) (fun i -> Char.chr (i mod 251)));
  ignore (Ffs.Fs.read fs ino ~off:0 ~len:(4 * 8192));
  let fh = { Proto.ino; gen = Ffs.Fs.generation fs ino } in
  (Nfs.Server.handler (Nfs.Server.create ~fs ()), fh)

let args_of f =
  let e = Xdr.Enc.create () in
  f e;
  Xdr.Enc.to_string e

let test_data_path_alloc () =
  let handler, fh = data_path () in
  let conn = { Rpc.peer = ""; uid = 0 } in
  let serve proc args reply =
    Xdr.Enc.truncate reply 0;
    match handler ~conn ~proc ~args:(Xdr.Dec.of_string args) reply with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "handler faulted"
  in
  let read_args =
    args_of (fun e ->
        Proto.fh_encode e fh;
        List.iter (Xdr.Enc.uint32 e) [ 8192; 8192; 8192 ])
  in
  let multi_args =
    args_of (fun e ->
        Proto.fh_encode e fh;
        Proto.read_segments_encode e (List.init 4 (fun i -> (i * 8192, 8192))))
  in
  let page = String.make 8192 'w' in
  let write_args =
    args_of (fun e ->
        Proto.fh_encode e fh;
        List.iter (Xdr.Enc.uint32 e) [ 8192; 8192; 8192 ];
        Xdr.Enc.opaque e page)
  in
  let reply = Xdr.Enc.create () in
  (* A reply header and an 8 KB page borrowed from a shared block. *)
  let gathered = Xdr.Enc.create () in
  Xdr.Enc.raw gathered (String.make 100 'h');
  Xdr.Enc.sub_writer gathered (fun e -> Xdr.Enc.borrow e page ~off:0 ~len:8192);
  let tx, _ = mk_sa () in
  let packet = 12 + Xdr.Enc.length gathered + 16 in
  serve Proto.nfsproc_read read_args reply;
  Alcotest.(check int) "READ reply: status, attributes, the page" (4 + 68 + 4 + 8192)
    (Xdr.Enc.length reply);
  let over =
    List.filter_map
      (fun (name, got, limit) ->
        if got > limit then Some (Printf.sprintf "%s allocates %.0f B (limit %.0f B)" name got limit)
        else None)
      [
        ( "serve an 8 KB READ",
          alloc_median (fun _ -> serve Proto.nfsproc_read read_args reply),
          1024.0 );
        ( "serve a 4-page MULTI_READ",
          alloc_median (fun _ -> serve Proto.nfsproc_multi_read multi_args reply),
          1024.0 );
        ( "seal a gathered 8 KB reply",
          alloc_median (fun _ -> Ipsec.Esp.seal_arena tx gathered),
          float_of_int (packet + 1024) );
        ( "take an 8 KB WRITE to its stored block",
          alloc_median (fun _ -> serve Proto.nfsproc_write write_args reply),
          float_of_int (8192 + 1024) );
      ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* Work done per call must not grow with the requester's principal
   (a DSA principal is 448 characters; 4,000 stands in for a larger
   key): a race key rendered under Race.null, or a memo key embedding
   the principal's text, would. Each pair runs identical sequences on
   identical deployments, so the medians must match to the byte. *)
let principal_448 = String.make 448 'p'
let principal_4000 = String.make 4000 'p'

let pooled_null_alloc peer =
  let d = Cfs.Cfs_ne.deploy () in
  let sched = Simnet.Sched.create ~clock:d.Cfs.Cfs_ne.clock in
  Simnet.Sched.attach_clock sched;
  Rpc.set_pool d.Cfs.Cfs_ne.rpc ~sched ~workers:2 ~queue_depth:8;
  let nfs = Nfs.Client.create (Rpc.connect ~link:d.Cfs.Cfs_ne.link ~peer d.Cfs.Cfs_ne.rpc) in
  alloc_median (fun _ ->
      (* discfs-lint: allow races "one call at a time: each sample spawns one process and runs the scheduler dry" *)
      Simnet.Sched.spawn sched (fun () -> Nfs.Client.null nfs);
      Simnet.Sched.run sched;
      Alcotest.(check bool) "the NULL call went through the pool" true
        (Rpc.queue_peak d.Cfs.Cfs_ne.rpc > 0))

let memo_hit_alloc peer =
  let c = Discfs.Cluster.make () in
  let server = Discfs.Cluster.node_server c 0 in
  let ino = Ffs.Fs.root (Discfs.Cluster.fs c) in
  ignore (Discfs.Server.query_level server ~peer ~ino) (* the miss that fills the memo *);
  let cache = Discfs.Server.cache server in
  let hits = Discfs.Policy_cache.hits cache in
  let bytes = alloc_median (fun _ -> Discfs.Server.query_level server ~peer ~ino) in
  Alcotest.(check int) "every measured query was a memo hit" (hits + 16)
    (Discfs.Policy_cache.hits cache);
  bytes

let test_alloc_independent_of_principal () =
  Alcotest.(check (float 0.0)) "pooled NFS NULL under Race.null"
    (pooled_null_alloc principal_448) (pooled_null_alloc principal_4000);
  Alcotest.(check (float 0.0)) "Server.query_level memo hit"
    (memo_hit_alloc principal_448) (memo_hit_alloc principal_4000)

(* Untraced, [Rpc.call] and the server's dispatch open no span, so they
   must not build the closure a span would run: each such closure
   captures the whole call, at least five words. The budgets are what
   the two paths measure on OCaml 5.1 plus two: 221 for a fresh inline
   NULL call (mostly the request and reply frames and the link's
   delivery list) and 44 for a NULL call replayed from the DRC (its
   decode view, the decoded call, its DRC key, the options around the
   cached reply and the reply string). *)
let test_untraced_rpc_alloc () =
  let clock = Clock.create () and stats = Stats.create () in
  let cost = Simnet.Cost.default in
  let link = Simnet.Link.create ~clock ~cost ~stats in
  let srv = Rpc.server ~clock ~cost ~stats in
  Rpc.register srv ~prog:77 ~vers:1 (fun ~conn:_ ~proc:_ ~args:_ _ -> Ok ());
  let client = Rpc.connect ~link srv in
  let null _ = Rpc.call client ~prog:77 ~vers:1 ~proc:0 ignore in
  let msg = Rpc.encode_call ~xid:5 ~prog:77 ~vers:1 ~proc:0 ~uid:0 "" in
  let replay _ = Rpc.dispatch srv ~conn:{ Rpc.peer = ""; uid = 0 } msg in
  let over =
    List.filter_map
      (fun (name, got, limit) ->
        if got > limit then Some (Printf.sprintf "%s allocates %.0f B (limit %.0f B)" name got limit)
        else None)
      [ ("Rpc.call NULL", alloc_median null, 223.0);
        ("Rpc.dispatch DRC replay", alloc_median replay, 46.0) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over);
  Alcotest.(check int) "every measured replay was a DRC hit" 15 (Stats.get stats "rpc.drc_hits")

(* --- policy checks ------------------------------------------------------ *)

module Server = Discfs.Server

let principal (k : Dcrypto.Dsa.private_key) = Keynote.Assertion.principal_of_pub k.Dcrypto.Dsa.pub
(* Words one policy check allocates: median of 15 single-check samples
   after [prep], counted with [Gc.minor_words], which is exact on
   OCaml 5 (the other counters lag until a collection). *)
let words_median ?(prep = ignore) f =
  ignore (Sys.opaque_identity (f ()));
  let samples =
    Array.init 15 (fun _ ->
        prep ();
        let before = Gc.minor_words () in
        ignore (Sys.opaque_identity (f ()));
        Gc.minor_words () -. before)
  in
  Array.sort Float.compare samples;
  samples.(7)
let flush_memo server () = Discfs.Policy_cache.flush (Server.cache server)

(* The walk workload's chain on one node: the administrator licenses a
   group key for R, the group licenses a reader, and the reader asks
   about a file three directories down. *)
let walk_chain () =
  let c = Discfs.Cluster.make () in
  let server = Discfs.Cluster.node_server c 0 in
  let group = Discfs.Cluster.new_identity c and reader = Discfs.Cluster.new_identity c in
  let grant = "app_domain == \"DisCFS\" -> \"R\";" in
  let licensee k = Printf.sprintf "\"%s\"" (principal k) in
  List.iter
    (fun a ->
      match Keynote.Session.add_credential (Server.session server) a with
      | Ok () -> ()
      | Error e -> Alcotest.fail e)
    [ Discfs.Cluster.admin_issue c ~licensees:(licensee group) ~conditions:grant ();
      Keynote.Assertion.issue ~key:group ~drbg:(Dcrypto.Drbg.create ~seed:"walk-chain")
        ~licensees:(licensee reader) ~conditions:grant () ];
  Server.credentials_changed server;
  let fs = Discfs.Cluster.fs c in
  let dir = Ffs.Fs.mkdir fs (Ffs.Fs.mkdir fs (Ffs.Fs.root fs) "src" ~perms:0o755 ~uid:0) "d03"
      ~perms:0o755 ~uid:0 in
  let ino = Ffs.Fs.create_file fs dir "f17.c" ~perms:0o644 ~uid:0 in
  (server, principal reader, ino)

(* A memo hit writes the key and looks it up; a miss also builds the
   attribute list and runs the stamped evaluator over the three
   assertions of the chain. The budgets are what the two measure on
   OCaml 5.1 plus two words: 25 and 242. *)
let test_policy_check_alloc () =
  let server, reader, ino = walk_chain () in
  let check () = Server.query_level server ~peer:reader ~ino in
  Alcotest.(check int) "the chain grants R" 4 (check ());
  let cache = Server.cache server in
  let hits = Discfs.Policy_cache.hits cache and misses = Discfs.Policy_cache.misses cache in
  let hit = words_median check in
  Alcotest.(check int) "every hit sample was a memo hit" (hits + 16) (Discfs.Policy_cache.hits cache);
  let miss = words_median ~prep:(flush_memo server) check in
  Alcotest.(check int) "every miss sample was a memo miss" (misses + 15)
    (Discfs.Policy_cache.misses cache);
  let over =
    List.filter_map
      (fun (name, got, limit) ->
        if got > limit then Some (Printf.sprintf "%s allocates %.0f words (limit %.0f)" name got limit)
        else None)
      [ ("query_level memo hit", hit, 27.0); ("query_level walk-chain miss", miss, 244.0) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* A memo miss visits only the credentials its handle can use. The
   owner of 1,024 files holds 1,024 credentials, each guarded by its
   own HANDLE; a check on the root walks none of them, so it costs
   what it costs with no files at all. *)
let test_policy_miss_scale () =
  let c = Discfs.Cluster.make () in
  let server = Discfs.Cluster.node_server c 0 in
  let fs = Discfs.Cluster.fs c in
  let root = Ffs.Fs.root fs in
  let owner = principal (Discfs.Cluster.admin_identity c) in
  let miss () =
    words_median ~prep:(flush_memo server) (fun () -> Server.query_level server ~peer:owner ~ino:root)
  in
  let before = miss () in
  for i = 1 to 1024 do
    let name = Printf.sprintf "f%04d" i in
    let ino = Ffs.Fs.create_file fs root name ~perms:0o644 ~uid:0 in
    ignore (Server.issue_create_credential server ~peer:owner ~ino ~name)
  done;
  Alcotest.(check int) "the owner holds 1,024 credentials" 1024
    (Keynote.Session.size (Server.session server));
  let after = miss () in
  if after > 2.0 *. before then
    Alcotest.failf "a root miss allocates %.0f words after 1,024 CREATEs, %.0f before" after before

(* --- the event loop and keyed hashing --------------------------------- *)

module Sched = Simnet.Sched

(* Words of one event, amortised: 64 processes that sleep 32 times
   each, so 2,112 events, their starts included (the shape of the
   benchmark's [simnet.sched_event_us] probe). *)
let sleep_event_words () =
  let s = Sched.create ~clock:(Clock.create ()) in
  for _ = 1 to 64 do
    Sched.spawn s (fun () ->
        for _ = 1 to 32 do
          Sched.sleep s 0.001
        done)
  done;
  let before = Gc.minor_words () in
  Sched.run s;
  (Gc.minor_words () -. before) /. float_of_int (Sched.events_run s)

(* Words of one mailbox round trip: the producer sleeps, then pushes to
   the parked consumer, which wakes with the value; 256 of them. *)
let mailbox_round_trip_words () =
  let s = Sched.create ~clock:(Clock.create ()) in
  let mb = Sched.Mailbox.create () in
  let n = 256 in
  Sched.spawn s (fun () ->
      for _ = 1 to n do
        ignore (Sys.opaque_identity (Sched.Mailbox.take s mb ~timeout:1.0))
      done);
  Sched.spawn s (fun () ->
      for i = 1 to n do
        Sched.sleep s 0.001;
        Sched.Mailbox.push s mb i
      done);
  let before = Gc.minor_words () in
  Sched.run s;
  (Gc.minor_words () -. before) /. float_of_int n

(* The budgets are what these measure on OCaml 5.1 plus two words:
   7.5 for a sleep event (its continuation, one [Wake] entry and the
   boxed time the clock keeps), 49.8 for a mailbox round trip (the
   producer's sleep, the parked waiter, its timeout and delivery
   entries and the [Some] the take returns), 6 for an HMAC of 32
   bytes (only its tag: the hashing state is kept) and 27 for a draw
   below the 160-bit DSA [q] (one byte string and the numbers built
   from it). *)
let test_event_and_hash_alloc () =
  let key = String.make 32 'k' and msg = String.make 32 'm' in
  let drbg = Dcrypto.Drbg.create ~seed:"hotpath-nat-below" in
  let q = (Dcrypto.Dsa.default_params ()).Dcrypto.Dsa.q in
  let sleep = sleep_event_words () and mailbox = mailbox_round_trip_words () in
  let hmac = words_median (fun () -> Dcrypto.Hmac.sha256 ~key msg) in
  let nat = words_median (fun () -> Dcrypto.Drbg.nat_below drbg q) in
  let over =
    List.filter_map
      (fun (name, got, limit) ->
        if got > limit then Some (Printf.sprintf "%s allocates %.1f words (limit %.0f)" name got limit)
        else None)
      [ ("a sleep event", sleep, 9.5);
        ("a mailbox round trip", mailbox, 51.8);
        ("Hmac.sha256 of 32 bytes", hmac, 8.0);
        ("Drbg.nat_below q", nat, 29.0) ]
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

(* --- ESP length guards ------------------------------------------------- *)

let malformed_count stats = Stats.get stats "esp.drop.malformed"

let expect_esp_error name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Esp_error" name
  | exception Ipsec.Esp.Esp_error _ -> ()

let test_esp_length_guard_chacha () =
  let sa, stats = mk_sa () in
  (* Below header + tag: malformed, counted, before any slicing. *)
  for n = 0 to Ipsec.Esp.overhead - 1 do
    let before = malformed_count stats in
    expect_esp_error
      (Printf.sprintf "chacha len %d" n)
      (fun () -> Ipsec.Esp.open_ sa (String.make n 'x'));
    Alcotest.(check int) (Printf.sprintf "counted at len %d" n) (before + 1)
      (malformed_count stats)
  done;
  (* Exactly header + tag is a well-formed shape (empty payload): it
     proceeds to the SPI check and fails there, not under the
     malformed metric. *)
  let before = malformed_count stats in
  expect_esp_error "chacha minimal garbage" (fun () ->
      Ipsec.Esp.open_ sa (String.make Ipsec.Esp.overhead 'x'));
  Alcotest.(check int) "shape ok, not counted malformed" before (malformed_count stats);
  (* A genuinely sealed empty payload at that exact length opens. *)
  let tx, _ = mk_sa () in
  Alcotest.(check string) "empty payload round-trips" ""
    (Ipsec.Esp.open_ sa (Ipsec.Esp.seal tx ""))

let test_esp_length_guard_tdes () =
  let sa, stats = mk_sa ~cipher:Ipsec.Sa.Tdes_hmac_sha1 () in
  let min_len = 12 + 12 + 8 (* header + tag + one CBC block *) in
  for n = 0 to min_len - 1 do
    let before = malformed_count stats in
    expect_esp_error
      (Printf.sprintf "3des len %d" n)
      (fun () -> Ipsec.Esp.open_ sa (String.make n 'x'));
    Alcotest.(check int) (Printf.sprintf "counted at len %d" n) (before + 1)
      (malformed_count stats)
  done;
  (* Ragged cipher blocks between whole-block lengths. *)
  for extra = 1 to 7 do
    let before = malformed_count stats in
    expect_esp_error
      (Printf.sprintf "3des ragged +%d" extra)
      (fun () -> Ipsec.Esp.open_ sa (String.make (min_len + extra) 'x'));
    Alcotest.(check int) (Printf.sprintf "ragged +%d counted" extra) (before + 1)
      (malformed_count stats)
  done;
  (* Whole-block lengths pass the shape check and die later (SPI),
     leaving the malformed counter alone. *)
  List.iter
    (fun n ->
      let before = malformed_count stats in
      expect_esp_error
        (Printf.sprintf "3des shaped garbage %d" n)
        (fun () -> Ipsec.Esp.open_ sa (String.make n 'x'));
      Alcotest.(check int)
        (Printf.sprintf "len %d not counted malformed" n)
        before (malformed_count stats))
    [ min_len; min_len + 8; min_len + 64 ];
  (* And a real 3DES round trip still works under the guard. *)
  let tx, _ = mk_sa ~cipher:Ipsec.Sa.Tdes_hmac_sha1 () in
  Alcotest.(check string) "3des round-trips" "legacy transform"
    (Ipsec.Esp.open_ sa (Ipsec.Esp.seal tx "legacy transform"))

let prop_esp_tdes_mutations_typed_errors =
  (* The fuzz suite covers the ChaCha transform; same discipline for
     the legacy 3DES one — mutations and truncations of a valid
     packet raise Esp_error only. *)
  QCheck.Test.make ~name:"esp open (3des): mutations raise only Esp_error" ~count:150
    (QCheck.make QCheck.Gen.(triple (int_bound 10_000) (int_bound 255) (int_bound 10_000)))
    (fun (pos, byte, cut) ->
      let tx, _ = mk_sa ~cipher:Ipsec.Sa.Tdes_hmac_sha1 () in
      let rx, _ = mk_sa ~cipher:Ipsec.Sa.Tdes_hmac_sha1 () in
      let packet = Ipsec.Esp.seal tx "the slow venerable transform" in
      let mutated =
        let b = Bytes.of_string packet in
        Bytes.set b (pos mod Bytes.length b) (Char.chr byte);
        Bytes.to_string b
      in
      let truncated = String.sub packet 0 (cut mod String.length packet) in
      let total p =
        match Ipsec.Esp.open_ rx p with
        | _ -> p = packet
        | exception Ipsec.Esp.Esp_error _ -> true
      in
      total mutated && total truncated)

(* --- compound procedures over plain NFS -------------------------------- *)

let deploy () =
  let d = Cfs.Cfs_ne.deploy () in
  let client, root = Cfs.Cfs_ne.connect d () in
  (d, client, root)

let test_readdirplus_roundtrip () =
  let _, client, root = deploy () in
  let dir, _ = Nfs.Client.mkdir client root "plus" Proto.sattr_none in
  for i = 0 to 26 do
    let fh, _ =
      Nfs.Client.create_file client dir (Printf.sprintf "f%02d" i) Proto.sattr_none
    in
    ignore (Nfs.Client.write client fh ~off:0 (String.make (i + 1) 'x'))
  done;
  let plus = Nfs.Client.readdirplus client dir in
  let plain = Nfs.Client.readdir client dir in
  Alcotest.(check (list string)) "same names as readdir" (List.map fst plain)
    (List.map (fun de -> de.Proto.p_name) plus);
  (* Every carried handle and attribute matches what per-op LOOKUP +
     GETATTR would have fetched. *)
  List.iter
    (fun de ->
      if de.Proto.p_name <> "." && de.Proto.p_name <> ".." then begin
        let fh, attr = Nfs.Client.lookup client dir de.Proto.p_name in
        Alcotest.(check int) (de.Proto.p_name ^ ": ino") fh.Proto.ino de.Proto.p_fh.Proto.ino;
        Alcotest.(check int) (de.Proto.p_name ^ ": gen") fh.Proto.gen de.Proto.p_fh.Proto.gen;
        Alcotest.(check int) (de.Proto.p_name ^ ": size") attr.Proto.size
          de.Proto.p_attr.Proto.size
      end)
    plus

let test_multi_read_roundtrip () =
  let _, client, root = deploy () in
  let fh, _ = Nfs.Client.create_file client root "blob" Proto.sattr_none in
  let data = String.init 30_000 (fun i -> Char.chr (i mod 251)) in
  Nfs.Client.write_all client fh data;
  let segs = [ (0, 8192); (8192, 8192); (25_000, 8192); (29_990, 100) ] in
  let attr, datas = Nfs.Client.multi_read client fh segs in
  Alcotest.(check int) "attr carried" (String.length data) attr.Proto.size;
  List.iter2
    (fun (off, count) got ->
      let _, want = Nfs.Client.read client fh ~off ~count in
      Alcotest.(check string) (Printf.sprintf "segment @%d" off) want got)
    segs datas;
  (* read_whole over MULTI_READ equals the per-op page loop. *)
  Alcotest.(check bool) "read_whole equals read_all" true
    (Nfs.Client.read_whole client fh ~size:(String.length data) = Nfs.Client.read_all client fh);
  (* Client-side segment validation. *)
  (match Nfs.Client.multi_read client fh [] with
  | _ -> Alcotest.fail "empty segment list accepted"
  | exception Invalid_argument _ -> ());
  let nine = List.init 9 (fun i -> (i * 8, 8)) in
  (match Nfs.Client.multi_read client fh nine with
  | _ -> Alcotest.fail "9 segments accepted"
  | exception Invalid_argument _ -> ())

let test_multi_read_server_decode_discipline () =
  (* A hand-built MULTI_READ with a hostile segment count must bounce
     off the decode discipline as a Garbage_args reply, and the server
     must stay usable. *)
  let d, client, root = deploy () in
  let fh, _ = Nfs.Client.create_file client root "victim" Proto.sattr_none in
  ignore (Nfs.Client.write client fh ~off:0 "payload");
  let rpc = Rpc.connect ~link:d.Cfs.Cfs_ne.link d.Cfs.Cfs_ne.rpc in
  let attempt nsegs =
    let args e =
      Proto.fh_encode e fh;
      Xdr.Enc.uint32 e nsegs;
      for _ = 1 to min nsegs 64 do
        Xdr.Enc.uint32 e 0;
        Xdr.Enc.uint32 e 8
      done
    in
    match Rpc.call rpc ~prog:Proto.nfs_prog ~vers:Proto.nfs_vers ~proc:Proto.nfsproc_multi_read args with
    | _ -> Alcotest.failf "segment count %d accepted" nsegs
    | exception Rpc.Rpc_error _ -> ()
    | exception Xdr.Decode_error _ -> ()
  in
  attempt 0;
  attempt 9;
  attempt 0xffffff;
  Alcotest.(check string) "server alive" "payload"
    (snd (Nfs.Client.read client fh ~off:0 ~count:100))

(* --- compounds through the cluster redirect path ----------------------- *)

let quoted p = Printf.sprintf "\"%s\"" p

let root_conditions fh value =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino
    value

let test_cluster_compounds_redirect () =
  let module Cluster = Discfs.Cluster in
  let module CC = Discfs.Cluster_client in
  let module Shard_map = Discfs.Shard_map in
  let c = Cluster.make ~servers:3 ~seed:"hotpath-compound" () in
  let cc = CC.attach c ~identity:(Cluster.new_identity c) () in
  let cred =
    Cluster.admin_issue c
      ~licensees:(quoted (CC.principal cc))
      ~conditions:(root_conditions (CC.root cc) "RWX")
      ()
  in
  (match CC.submit_credential cc cred with Ok _ -> () | Error e -> Alcotest.fail e);
  let root = CC.root cc in
  let dir, _, _ = CC.mkdir cc ~dir:root "compound" () in
  let data = String.init 20_000 (fun i -> Char.chr ((i * 7) mod 251)) in
  let fh, _, _ = CC.create cc ~dir "big.dat" () in
  CC.write_all cc fh data;
  ignore (CC.create cc ~dir "small.dat" ());
  (* READDIRPLUS routes like metadata: any frontend serves it. *)
  let plus = CC.readdirplus cc dir in
  Alcotest.(check (list string)) "cluster readdirplus names" [ "."; ".."; "big.dat"; "small.dat" ]
    (List.map (fun de -> de.Proto.p_name) plus);
  (* MULTI_READ routes like READ. Reshard the file's shard so the
     client's cached map goes stale: the compound must be bounced
     with a signed redirect and still return the right bytes. *)
  let stats = Cluster.stats c in
  let map = Cluster.map c in
  let shard = Shard_map.shard_of map ~ino:fh.Proto.ino in
  let old_owner = Shard_map.owner map ~ino:fh.Proto.ino in
  Cluster.reshard c ~shard ~owner:((old_owner + 1) mod Cluster.nservers c);
  let followed_before = Stats.get stats "redirect.followed" in
  let _, datas = CC.multi_read cc fh [ (0, 8192); (8192, 8192); (16_384, 8192) ] in
  Alcotest.(check string) "multi_read across redirect" data (String.concat "" datas);
  Alcotest.(check bool) "redirect followed" true
    (Stats.get stats "redirect.followed" > followed_before);
  Alcotest.(check int) "no bad signatures" 0 (Stats.get stats "redirect.bad_sig");
  Alcotest.(check string) "read_whole via compound" data
    (CC.read_whole cc fh ~size:(String.length data))

let suite =
  [
    Alcotest.test_case "golden: call frames byte-identical" `Quick test_call_bytes_golden;
    Alcotest.test_case "golden: reply frames byte-identical" `Quick test_reply_bytes_golden;
    Alcotest.test_case "golden: arena seal byte-identical" `Quick test_seal_bytes_golden;
    Alcotest.test_case "xdr: non-zero padding rejected" `Quick test_nonzero_padding_rejected;
    QCheck_alcotest.to_alcotest prop_canonical_roundtrip;
    QCheck_alcotest.to_alcotest prop_mutated_xdr_typed_errors;
    Alcotest.test_case "alloc: esp seal/open, chacha20 one-copy, bcache fill" `Quick
      test_alloc_guards;
    Alcotest.test_case "alloc: per-call work independent of the principal" `Quick
      test_alloc_independent_of_principal;
    Alcotest.test_case "alloc: untraced rpc builds no span closure" `Quick
      test_untraced_rpc_alloc;
    Alcotest.test_case "alloc: policy check memo hit and walk-chain miss" `Quick
      test_policy_check_alloc;
    Alcotest.test_case "alloc: sleep event, mailbox round trip, hmac, drbg draw" `Quick
      test_event_and_hash_alloc;
    Alcotest.test_case "policy: a memo miss costs what its handle needs" `Quick
      test_policy_miss_scale;
    QCheck_alcotest.to_alcotest prop_gather_arena;
    Alcotest.test_case "alloc: borrowed-block read, gathered seal, one-copy write" `Quick
      test_data_path_alloc;
    Alcotest.test_case "esp: chacha length guard" `Quick test_esp_length_guard_chacha;
    Alcotest.test_case "esp: 3des length guard" `Quick test_esp_length_guard_tdes;
    QCheck_alcotest.to_alcotest prop_esp_tdes_mutations_typed_errors;
    Alcotest.test_case "readdirplus round trip" `Quick test_readdirplus_roundtrip;
    Alcotest.test_case "multi_read round trip" `Quick test_multi_read_roundtrip;
    Alcotest.test_case "multi_read decode discipline" `Quick
      test_multi_read_server_decode_discipline;
    Alcotest.test_case "cluster compounds follow redirects" `Quick
      test_cluster_compounds_redirect;
  ]
