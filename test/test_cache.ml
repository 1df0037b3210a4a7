(* The server-side caching stack: buffer cache + readahead (lib/ffs),
   KeyNote memo cache (lib/core), client attribute cache (lib/nfs).
   The invariants worth a regression test are the dangerous ones:
   revoked authority must never be served from the memo cache, a
   crash must never leave the buffer cache ahead of the platter, and
   caching must never change what a read returns. *)

module Proto = Nfs.Proto
module Assertion = Keynote.Assertion
module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Server = Discfs.Server
module Bcache = Ffs.Bcache
module Blockdev = Ffs.Blockdev
module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Fault = Simnet.Fault
module Attr_cache = Nfs.Cache.Make (Nfs.Client)

let expect_nfs_error status f =
  match f () with
  | exception Proto.Nfs_error s when s = status -> ()
  | exception Proto.Nfs_error s ->
    Alcotest.failf "expected %s, got %s" (Proto.status_to_string status) (Proto.status_to_string s)
  | _ -> Alcotest.failf "expected %s" (Proto.status_to_string status)

let quoted c = Printf.sprintf "\"%s\"" (CC.principal c)

let handle_conditions fh value =
  Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" fh.Proto.ino value

let make_dev ?(cache_blocks = 0) ?(readahead = 8) ?(nblocks = 64) ?(block_size = 512) () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  let dev =
    Blockdev.create ~cache_blocks ~readahead ~clock ~cost:Simnet.Cost.default ~stats ~nblocks
      ~block_size ()
  in
  (dev, clock, stats)

let block dev c = Bytes.make (Blockdev.block_size dev) c

(* --- Bcache unit behaviour ------------------------------------------- *)

(* A fill into the current incarnation; the number it evicted. *)
let insert c i s = Bcache.insert_if c ~generation:(Bcache.generation c) i (Bytes.of_string s)

let test_bcache_lru () =
  let c = Bcache.create ~capacity:3 in
  List.iter
    (fun (i, s) -> Alcotest.(check int) "a fill below capacity evicts nothing" 0 (insert c i s))
    [ (1, "a"); (2, "b"); (3, "c") ];
  (* Touch 1 so 2 becomes the LRU victim. *)
  (match Bcache.find_shared c 1 with
  | Some b -> Alcotest.(check string) "hit returns data" "a" (Bytes.to_string b)
  | None -> Alcotest.fail "expected hit");
  Alcotest.(check int) "one eviction" 1 (insert c 4 "d");
  Alcotest.(check bool) "LRU evicted" false (Bcache.mem c 2);
  Alcotest.(check (list bool)) "bounded: the other three kept" [ true; true; true ]
    (List.map (Bcache.mem c) [ 1; 3; 4 ]);
  Alcotest.(check int) "an update evicts nothing" 0 (insert c 3 "C");
  Bcache.drop c;
  Alcotest.(check (list bool)) "drop empties" [ false; false; false ]
    (List.map (Bcache.mem c) [ 1; 3; 4 ]);
  (* Capacity 0 disables caching entirely. *)
  let z = Bcache.create ~capacity:0 in
  Alcotest.(check int) "disabled cache evicts nothing" 0 (insert z 1 "x");
  Alcotest.(check (option string)) "disabled cache stores nothing" None
    (Option.map Bytes.to_string (Bcache.find_shared z 1))

(* --- buffer cache on the block device -------------------------------- *)

let test_buffer_cache_hit_is_free () =
  let dev, clock, stats = make_dev ~cache_blocks:16 ~readahead:1 () in
  Blockdev.write dev 7 (block dev 'x');
  let t0 = Clock.now clock in
  (* The write went through the cache too: this read is a hit. *)
  ignore (Blockdev.read dev 7);
  Alcotest.(check (float 0.0)) "cache hit charges no time" t0 (Clock.now clock);
  Alcotest.(check int) "no physical read" 0 (Stats.get (Blockdev.stats dev) "disk.reads");
  Alcotest.(check int) "hit counted" 1 (Stats.get stats "bcache.hits");
  (* A cold block pays the full physical cost. *)
  ignore (Blockdev.read dev 30);
  Alcotest.(check bool) "miss charges time" true (Clock.now clock > t0);
  Alcotest.(check int) "physical read" 1 (Stats.get (Blockdev.stats dev) "disk.reads");
  Alcotest.(check int) "miss counted" 1 (Stats.get stats "bcache.misses");
  (* ...and the second access is free. *)
  let t1 = Clock.now clock in
  ignore (Blockdev.read dev 30);
  Alcotest.(check (float 0.0)) "filled on miss" t1 (Clock.now clock)

let test_readahead_prefetch () =
  let dev, _clock, stats = make_dev ~cache_blocks:32 ~readahead:8 () in
  for i = 0 to 15 do
    Blockdev.write dev i (block dev (Char.chr (Char.code 'a' + i)))
  done;
  Blockdev.drop_cache dev;
  let phys0 = Stats.get (Blockdev.stats dev) "disk.reads" in
  (* A sequential pair triggers the prefetcher: blocks 2..8 ride the
     request for 1. *)
  ignore (Blockdev.read dev 0);
  ignore (Blockdev.read dev 1);
  Alcotest.(check int) "prefetch window filled" 7 (Stats.get stats "bcache.readahead_blocks");
  let phys1 = Stats.get (Blockdev.stats dev) "disk.reads" in
  for i = 2 to 8 do
    let b = Blockdev.read dev i in
    Alcotest.(check char) "prefetched content" (Char.chr (Char.code 'a' + i)) (Bytes.get b 0)
  done;
  Alcotest.(check int) "prefetched blocks hit, no demand I/O" phys1 (Stats.get (Blockdev.stats dev) "disk.reads");
  Alcotest.(check int) "two demand reads total" 2 (phys1 - phys0)

(* Regression: evictions caused by a readahead fill used to bypass the
   registry. Every demand miss and every prefetch fills a block that is
   not cached, so once the cache is full each fill evicts one. *)
let test_readahead_evictions_counted () =
  let dev, _clock, stats = make_dev ~cache_blocks:4 ~readahead:8 () in
  for i = 0 to 15 do
    ignore (Blockdev.read dev i)
  done;
  let fills = Stats.get stats "bcache.misses" + Stats.get stats "bcache.readahead_blocks" in
  Alcotest.(check bool) "readahead filled" true (Stats.get stats "bcache.readahead_blocks" > 0);
  Alcotest.(check int) "every fill past capacity counted as an eviction" (fills - 4)
    (Stats.get stats "bcache.evictions")

let test_failed_write_not_cached () =
  (* A write the controller failed must leave both the platter and the
     cache on the old value — the cache may never run ahead of the
     disk. *)
  let dev, _clock, _stats = make_dev ~cache_blocks:16 ~readahead:1 () in
  let fault = Fault.create () in
  Blockdev.set_fault dev (Some fault);
  Blockdev.write dev 3 (block dev 'o') (* disk op 0 *);
  Fault.script_disk fault [ (1, Fault.Fail_write) ];
  (match Blockdev.write dev 3 (block dev 'n') (* disk op 1: fails *) with
  | exception Blockdev.Io_error _ -> ()
  | () -> Alcotest.fail "scripted write fault did not fire");
  let via_cache = Blockdev.read dev 3 in
  Alcotest.(check char) "cache holds committed value" 'o' (Bytes.get via_cache 0);
  Blockdev.drop_cache dev;
  let via_disk = Blockdev.read dev 3 in
  Alcotest.(check char) "platter agrees" 'o' (Bytes.get via_disk 0)

(* The store and the cache may share one block, so every block that
   crosses the device boundary must be the caller's own: mutating what
   [read] returned, or what was handed to [write], [poke] or [restore],
   after the call must change neither a later [read_shared] nor the
   cached block. And a corrupted transfer is the caller's alone: it
   must never reach the store or the cache. *)
let test_blocks_never_alias_callers () =
  let dev, _clock, _stats = make_dev ~cache_blocks:16 ~readahead:4 () in
  let bs = Blockdev.block_size dev in
  let holds label i c =
    let want = String.make bs c in
    Alcotest.(check string) (label ^ ": read_shared") want
      (Bytes.to_string (Blockdev.read_shared dev i));
    match Bcache.find_shared (Blockdev.bcache dev) i with
    | Some b -> Alcotest.(check string) (label ^ ": cached block") want (Bytes.to_string b)
    | None -> ()
  in
  let scribble b = Bytes.fill b 0 (Bytes.length b) '!' in
  let b = block dev 'w' in
  Blockdev.write dev 1 b;
  scribble b;
  holds "write" 1 'w';
  scribble (Blockdev.read dev 1);
  holds "read hit" 1 'w';
  Blockdev.drop_cache dev;
  scribble (Blockdev.read dev 1);
  holds "read miss" 1 'w';
  (* A sequential pair prefetches 3..5 straight from the store. *)
  Blockdev.write dev 4 (block dev 'f');
  Blockdev.drop_cache dev;
  ignore (Blockdev.read dev 2);
  ignore (Blockdev.read dev 3);
  Alcotest.(check bool) "block 4 prefetched" true (Bcache.mem (Blockdev.bcache dev) 4);
  scribble (Blockdev.read dev 4);
  holds "read of a prefetched block" 4 'f';
  let b = block dev 'p' in
  Blockdev.poke dev 2 b;
  scribble b;
  holds "poke" 2 'p';
  scribble (Blockdev.read dev 2);
  holds "read after poke" 2 'p';
  let blocks = [ (3, block dev 'r'); (6, block dev 's') ] in
  Blockdev.restore dev blocks;
  List.iter (fun (_, b) -> scribble b) blocks;
  holds "restore" 3 'r';
  holds "restore" 6 's';
  List.iter (fun (_, b) -> scribble b) (Blockdev.snapshot dev);
  holds "snapshot" 3 'r';
  (* A corrupted transfer returns damaged bytes to its caller only. *)
  let fault = Fault.create () in
  Blockdev.set_fault dev (Some fault);
  Blockdev.drop_cache dev;
  Fault.script_disk fault [ (0, Fault.Corrupt_read) ];
  let bad = Blockdev.read dev 3 in
  Alcotest.(check bool) "the read was corrupted" false
    (String.equal (Bytes.to_string bad) (String.make bs 'r'));
  Alcotest.(check bool) "corrupt block not cached" false (Bcache.mem (Blockdev.bcache dev) 3);
  scribble bad;
  holds "after a corrupt read" 3 'r'

let test_crash_mid_write_no_stale_blocks () =
  (* End-to-end: a client writes through the full stack, the server
     crashes, and the rebooted incarnation must serve current data
     from a cold cache — never a stale or phantom cached block. *)
  let d = Cluster.make ~cache_blocks:64 ~seed:"test-cache-crash" () in
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let fh, _, _ = CC.create admin ~dir:(CC.root admin) "journal.txt" () in
  CC.write_all admin fh "version-1";
  let counter name = Stats.get (Cluster.stats d) name in
  (* The write went through the buffer cache: reading it back hits. *)
  let hits0 = counter "bcache.hits" in
  ignore (CC.read admin fh ~off:0 ~count:9);
  Alcotest.(check bool) "cache warm before crash" true (counter "bcache.hits" > hits0);
  Cluster.crash_and_restart d 0;
  let admin2 = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let misses0 = counter "bcache.misses" in
  let _, data = CC.read admin2 fh ~off:0 ~count:9 in
  Alcotest.(check string) "write-through data survives the crash" "version-1" data;
  Alcotest.(check bool) "first post-crash read misses (cold cache)" true
    (counter "bcache.misses" > misses0)

(* --- policy memo cache ----------------------------------------------- *)

let test_revoked_credential_misses_memo_cache () =
  let d = Cluster.make ~seed:"test-cache-revoke" () in
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let fh, _, _ = CC.create admin ~dir:(CC.root admin) "secret.txt" () in
  CC.write_all admin fh "classified";
  let bob = CC.attach d ~identity:(Cluster.new_identity d) ~uid:100 () in
  let cred =
    Cluster.admin_issue d ~licensees:(quoted bob) ~conditions:(handle_conditions fh "R") ()
  in
  (match CC.submit_credential bob cred with Ok _ -> () | Error e -> Alcotest.fail e);
  let cache = Server.cache (Cluster.node_server d 0) in
  (* Warm the memo cache with Bob's grant. *)
  ignore (CC.read bob fh ~off:0 ~count:4);
  ignore (CC.read bob fh ~off:0 ~count:4);
  Alcotest.(check bool) "memoised while credential stands" true
    (Discfs.Policy_cache.hits cache > 0);
  (* Revocation flushes the memo cache and rotates the epoch. *)
  (match CC.revoke_credential admin ~fingerprint:(Assertion.fingerprint cred) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "flush on revocation" 0 (Discfs.Policy_cache.size cache);
  let hits0 = Discfs.Policy_cache.hits cache in
  expect_nfs_error Proto.nfserr_acces (fun () ->
      ignore (CC.read bob fh ~off:0 ~count:4));
  Alcotest.(check int) "revoked request served no memoised grant" hits0
    (Discfs.Policy_cache.hits cache);
  Alcotest.(check bool) "it re-ran the compliance checker" true
    (Discfs.Policy_cache.misses cache > 0)

(* The encoding the memo key has always had: epoch, peer id, then the
   action attributes sorted, each field after a NUL. The key is now
   written in place, so this pins it byte for byte. *)
let reference_key ~epoch ~peer ~attributes =
  String.concat "\000"
    (string_of_int epoch :: string_of_int peer
    :: List.map (fun (k, v) -> k ^ "=" ^ v) (List.sort compare attributes))

let test_epoch_and_attributes_key_the_memo () =
  (* The memo key must separate everything the compliance checker
     sees: principal, attributes, credential-set epoch. *)
  let key ?(epoch = 1) ?(peer = 1) ?(ino = 7) ?(generation = 3) ?(path = "/a") ?(hour = 9) () =
    Discfs.Policy_cache.key ~epoch ~peer ~ino ~generation ~path ~hour
  in
  let k = key () in
  Alcotest.(check string) "deterministic" k (key ());
  Alcotest.(check string) "canonical encoding"
    "1\0001\000GENERATION=3\000HANDLE=7\000PATH=/a\000app_domain=DisCFS\000hour=9" k;
  let different name k' = Alcotest.(check bool) name true (k <> k') in
  different "peer separates" (key ~peer:2 ());
  different "handle separates" (key ~ino:8 ());
  different "generation separates" (key ~generation:4 ());
  different "path separates" (key ~path:"/b" ());
  different "hour separates" (key ~hour:10 ());
  different "epoch separates" (key ~epoch:2 ());
  (* Epoch 1 / peer 11 and epoch 11 / peer 1 must not meet. *)
  Alcotest.(check bool) "fields are delimited" true
    (key ~epoch:1 ~peer:11 () <> key ~epoch:11 ~peer:1 ());
  (* Byte for byte the sorted encoding of the attributes a miss asks
     about, for every sign and width of integer and any path. *)
  let ints = [ 0; 1; 9; 10; 99; 100; 123456789; -1; -9; -10; -4096; max_int; min_int ] in
  List.iter
    (fun n ->
      List.iter
        (fun path ->
          let epoch = abs (n mod 1000) and peer = n land 0xff and hour = abs (n mod 24) in
          let attributes =
            Discfs.Policy_cache.attributes ~ino:n ~generation:(-n) ~path ~hour
          in
          Alcotest.(check string)
            (Printf.sprintf "key(%d, %S) = the sorted encoding" n path)
            (reference_key ~epoch ~peer ~attributes)
            (Discfs.Policy_cache.key ~epoch ~peer ~ino:n ~generation:(-n) ~path ~hour))
        [ ""; "/"; "/src/d03/f17.c"; "/a=b\000c" ])
    ints

let test_policy_memo_eviction_order () =
  (* The memo evicts strictly by last use: a hit or a re-add refreshes
     an entry, and each capacity eviction takes the stalest one. *)
  let stats = Stats.create () in
  let cache = Discfs.Policy_cache.create ~stats ~size:3 in
  let key n =
    Discfs.Policy_cache.key ~epoch:1 ~peer:n ~ino:1 ~generation:0 ~path:"/" ~hour:0
  in
  let present n = Discfs.Policy_cache.find cache ~key:(key n) <> None in
  List.iter (fun n -> Discfs.Policy_cache.add cache ~key:(key n) n) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "hit returns the level" (Some 1)
    (Discfs.Policy_cache.find cache ~key:(key 1));
  Discfs.Policy_cache.add cache ~key:(key 2) 20;
  let evictions () = Stats.get stats "cache.policy.evictions" in
  Alcotest.(check int) "re-add is no eviction" 0 (evictions ());
  (* Recency, stalest first: 3, 1, 2. *)
  Discfs.Policy_cache.add cache ~key:(key 4) 4;
  Discfs.Policy_cache.add cache ~key:(key 5) 5;
  Alcotest.(check int) "two evictions" 2 (evictions ());
  Alcotest.(check int) "bounded" 3 (Discfs.Policy_cache.size cache);
  let hits0 = Discfs.Policy_cache.hits cache in
  Alcotest.(check (list bool)) "3 then 1 evicted; 2, 4, 5 kept"
    [ false; false; true; true; true ] (List.map present [ 3; 1; 2; 4; 5 ]);
  Alcotest.(check int) "three hits" (hits0 + 3) (Discfs.Policy_cache.hits cache);
  Alcotest.(check (option int)) "re-add replaced the level" (Some 20)
    (Discfs.Policy_cache.find cache ~key:(key 2));
  (* Recency now 4, 5, 2: the next fill evicts 4. *)
  Discfs.Policy_cache.add cache ~key:(key 6) 6;
  Alcotest.(check (list bool)) "4 evicted next" [ false; true; true; true ]
    (List.map present [ 4; 5; 2; 6 ]);
  Discfs.Policy_cache.flush cache;
  Alcotest.(check int) "flush empties" 0 (Discfs.Policy_cache.size cache);
  Alcotest.(check int) "flush is no eviction" 3 (evictions ());
  let off = Discfs.Policy_cache.create ~stats ~size:0 in
  Discfs.Policy_cache.add off ~key:(key 1) 1;
  Alcotest.(check (option int)) "size 0 stores nothing" None
    (Discfs.Policy_cache.find off ~key:(key 1))

(* --- client attribute cache ------------------------------------------ *)

let test_attr_cache_expiry_counter () =
  let d = Cfs.Cfs_ne.deploy () in
  let client, root = Cfs.Cfs_ne.connect d () in
  let clock = d.Cfs.Cfs_ne.clock in
  let stats = Stats.create () in
  let cache = Attr_cache.create ~client ~clock ~stats () in
  let c name = Stats.get stats ("cache.attr." ^ name) in
  let fh, _ = Nfs.Client.create_file client root "ttl.txt" Proto.sattr_none in
  ignore (Attr_cache.getattr cache fh) (* cold miss *);
  ignore (Attr_cache.getattr cache fh) (* hit *);
  Alcotest.(check int) "cold miss is not an expiry" 0 (c "expiries");
  Clock.advance clock 4.0 (* past the 3 s attribute TTL *);
  ignore (Attr_cache.getattr cache fh);
  Alcotest.(check int) "TTL lapse counted as expiry" 1 (c "expiries");
  Alcotest.(check int) "and as a miss" 2 (c "misses");
  Alcotest.(check int) "one hit in between" 1 (c "hits")

(* Regression: the attribute and name caches used to share one
   ["cache.hits"]/["cache.misses"] counter pair, so a name-cache
   pathology (e.g. churn from renames) was indistinguishable from
   attribute-TTL behaviour in any metrics dump. The counters are now
   split per cache. *)
let test_cache_metrics_split_by_kind () =
  let d = Cfs.Cfs_ne.deploy () in
  let client, root = Cfs.Cfs_ne.connect d () in
  let clock = d.Cfs.Cfs_ne.clock in
  let stats = Stats.create () in
  let cache = Attr_cache.create ~client ~clock ~stats () in
  let _ = Nfs.Client.create_file client root "split.txt" Proto.sattr_none in
  (* one attr miss + one attr hit, one name miss + one name hit *)
  let fh, _ = Attr_cache.lookup cache root "split.txt" in
  let _ = Attr_cache.lookup cache root "split.txt" in
  (* the lookup miss refilled fh's attr entry, so age it out first *)
  Clock.advance clock 4.0;
  let _ = Attr_cache.getattr cache fh in
  let _ = Attr_cache.getattr cache fh in
  let c name = Stats.get stats name in
  Alcotest.(check int) "attr hits" 1 (c "cache.attr.hits");
  Alcotest.(check int) "attr misses" 1 (c "cache.attr.misses");
  Alcotest.(check int) "name hits" 1 (c "cache.name.hits");
  Alcotest.(check int) "name misses" 1 (c "cache.name.misses");
  Alcotest.(check int) "attr expiry counted per-kind" 1 (c "cache.attr.expiries");
  Alcotest.(check int) "no name expiries" 0 (c "cache.name.expiries")

(* Every cache counts into the deployment's one registry whether or
   not tracing is on. *)
let test_cache_counters_untraced () =
  let b = Bonnie.Backend.discfs ~tracing:false ~attr_cache:true () in
  let spec =
    { Bonnie.Search.dirs = 2; files_per_dir = 3; mean_file_size = 2048; seed = "untraced" }
  in
  Bonnie.Search.build b spec;
  ignore (Bonnie.Search.run b);
  ignore (Bonnie.Search.run b);
  match b.Bonnie.Backend.parts with
  | None -> Alcotest.fail "discfs backend has no deployment"
  | Some (c, _) ->
    Alcotest.(check bool) "one registry" true (Cluster.stats c == Cluster.metrics c);
    let get k = Stats.get (Cluster.stats c) k in
    Alcotest.(check bool) "attr cache hits counted" true (get "cache.attr.hits" > 0);
    Alcotest.(check bool) "policy cache hits counted" true (get "keynote.cache_hits" > 0)

(* --- property: caching never changes results ------------------------- *)

(* Random mixes of writes and reads against one file, applied to two
   identical filesystems — one over a generously cached + readahead
   device, one over a bare device. Every read must return identical
   bytes: the cache layer may only change *when* the platter is
   touched, never *what* the file contains. *)
type fop = Write of int * string | Read of int * int

let gen_ops =
  QCheck.Gen.(
    list_size (int_range 1 40)
      (int_range 0 20_000 >>= fun off ->
       oneof
         [
           (int_range 1 2_000 >>= fun len ->
            map (fun c -> Write (off, String.make len c)) printable);
           map (fun len -> Read (off, len)) (int_range 1 4_000);
         ]))

let show_ops ops =
  String.concat "; "
    (List.map
       (function
         | Write (off, s) -> Printf.sprintf "W@%d[%d]" off (String.length s)
         | Read (off, len) -> Printf.sprintf "R@%d[%d]" off len)
       ops)

let prop_cached_fs_reads_equal_uncached =
  QCheck.Test.make ~name:"cached Fs reads == uncached (random access patterns)" ~count:60
    (QCheck.make ~print:show_ops gen_ops) (fun ops ->
      let instance ~cache_blocks ~readahead =
        let dev, _, _ = make_dev ~cache_blocks ~readahead ~nblocks:256 ~block_size:512 () in
        let fs = Ffs.Fs.create ~dev ~ninodes:16 in
        let f = Ffs.Fs.create_file fs (Ffs.Fs.root fs) "f" ~perms:0o644 ~uid:0 in
        (fs, f)
      in
      let fs_c, f_c = instance ~cache_blocks:64 ~readahead:8 in
      let fs_u, f_u = instance ~cache_blocks:0 ~readahead:1 in
      List.for_all
        (function
          | Write (off, data) ->
            Ffs.Fs.write fs_c f_c ~off data;
            Ffs.Fs.write fs_u f_u ~off data;
            true
          | Read (off, len) ->
            String.equal (Ffs.Fs.read fs_c f_c ~off ~len) (Ffs.Fs.read fs_u f_u ~off ~len))
        ops)

(* --- property: Lru against an association-list model ------------------ *)

(* The model keeps the bindings least recently used first and evicts
   from the front; the real map must agree on every answer, every
   eviction count, every victim (in order) and the recency order
   after each operation. *)
type lop =
  | Find of int
  | Mem of int
  | Replace of int * int
  | Remove of int
  | Set_capacity of int
  | Clear

let show_lop = function
  | Find k -> Printf.sprintf "find %d" k
  | Mem k -> Printf.sprintf "mem %d" k
  | Replace (k, v) -> Printf.sprintf "replace %d %d" k v
  | Remove k -> Printf.sprintf "remove %d" k
  | Set_capacity c -> Printf.sprintf "set_capacity %d" c
  | Clear -> "clear"

let gen_lops =
  QCheck.Gen.(
    pair (int_range 0 5)
      (list_size (int_range 1 60)
         (let key = int_range 0 7 in
          frequency
            [
              (4, map (fun k -> Find k) key);
              (2, map (fun k -> Mem k) key);
              (6, map2 (fun k v -> Replace (k, v)) key (int_range 0 99));
              (2, map (fun k -> Remove k) key);
              (1, map (fun c -> Set_capacity c) (int_range 0 5));
              (1, return Clear);
            ])))

(* Drop the oldest bindings until [cap] remain; returns the survivors
   and the victims, oldest first. *)
let model_evict cap m =
  let excess = max 0 (List.length m - cap) in
  (List.filteri (fun i _ -> i >= excess) m, List.filteri (fun i _ -> i < excess) m)

let prop_lru_matches_model =
  QCheck.Test.make ~name:"lru = association-list model" ~count:500
    (QCheck.make
       ~print:(fun (cap, ops) ->
         Printf.sprintf "capacity %d: %s" cap (String.concat "; " (List.map show_lop ops)))
       gen_lops)
    (fun (cap, ops) ->
      let t = Lru.create ~capacity:cap in
      let keys m = List.map fst m in
      (* The bindings the real map lost in one operation, oldest
         first; [fresh] is a binding the operation added. *)
      let victims before ?fresh () =
        let after = keys (Lru.bindings t) in
        List.filter (fun (k, _) -> not (List.mem k after)) (before @ Option.to_list fresh)
      in
      let step (cap, m) op =
        let before = Lru.bindings t in
        let (cap, m), ok =
          match op with
          | Find k -> (
            let got = Lru.find t k in
            match List.assoc_opt k m with
            | Some v -> ((cap, List.remove_assoc k m @ [ (k, v) ]), got = Some v)
            | None -> ((cap, m), got = None))
          | Mem k -> ((cap, m), Lru.mem t k = List.mem_assoc k m)
          | Replace (k, v) ->
            let evicted = Lru.replace t k v in
            let fresh = if List.mem_assoc k m then None else Some (k, v) in
            let m, gone = model_evict cap (List.remove_assoc k m @ [ (k, v) ]) in
            ((cap, m), evicted = List.length gone && victims before ?fresh () = gone)
          | Remove k ->
            Lru.remove t k;
            ((cap, List.remove_assoc k m), true)
          | Set_capacity c ->
            let evicted = Lru.set_capacity t c in
            let m, gone = model_evict c m in
            ((c, m), evicted = List.length gone && victims before () = gone)
          | Clear ->
            Lru.clear t;
            ((cap, []), true)
        in
        if not ok then QCheck.Test.fail_reportf "%s: wrong answer" (show_lop op);
        if Lru.bindings t <> m then QCheck.Test.fail_reportf "%s: wrong recency order" (show_lop op);
        if Lru.length t <> List.length m || Lru.capacity t <> cap then
          QCheck.Test.fail_reportf "%s: wrong size or capacity" (show_lop op);
        (cap, m)
      in
      ignore (List.fold_left step (cap, []) ops);
      true)

let suite =
  [
    Alcotest.test_case "bcache LRU mechanics" `Quick test_bcache_lru;
    Alcotest.test_case "buffer-cache hit is free" `Quick test_buffer_cache_hit_is_free;
    Alcotest.test_case "sequential readahead" `Quick test_readahead_prefetch;
    Alcotest.test_case "readahead evictions counted" `Quick test_readahead_evictions_counted;
    Alcotest.test_case "failed write never cached" `Quick test_failed_write_not_cached;
    Alcotest.test_case "device blocks never alias callers" `Quick
      test_blocks_never_alias_callers;
    Alcotest.test_case "crash drops cache, no stale blocks" `Quick
      test_crash_mid_write_no_stale_blocks;
    Alcotest.test_case "revoked credential misses memo cache" `Quick
      test_revoked_credential_misses_memo_cache;
    Alcotest.test_case "memo key separates peer/attrs/epoch" `Quick
      test_epoch_and_attributes_key_the_memo;
    Alcotest.test_case "policy memo eviction order" `Quick test_policy_memo_eviction_order;
    Alcotest.test_case "attr cache counts expiries" `Quick test_attr_cache_expiry_counter;
    Alcotest.test_case "cache metrics split by kind" `Quick test_cache_metrics_split_by_kind;
    Alcotest.test_case "cache counters without tracing" `Quick test_cache_counters_untraced;
    QCheck_alcotest.to_alcotest prop_cached_fs_reads_equal_uncached;
    QCheck_alcotest.to_alcotest prop_lru_matches_model;
  ]
