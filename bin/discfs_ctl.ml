(* discfs_ctl: operator tooling for DisCFS.

   - issue: mint a credential from a private-key file (the utility a
     user runs before mailing access to a colleague)
   - demo:  stand up a complete simulated deployment and narrate the
     protocol: IKE attach, credential submission, authorized and
     denied NFS operations, with wire/crypto/KeyNote statistics. *)

open Cmdliner
module CC = Discfs.Cluster_client

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_private path =
  Dcrypto.Dsa.priv_decode (Dcrypto.Hexcodec.decode (String.trim (read_file path)))

(* --- issue ----------------------------------------------------------- *)

let issue keyfile licensee handle perms comment =
  let key = load_private keyfile in
  let licensee =
    if Sys.file_exists licensee then String.trim (read_file licensee) else licensee
  in
  let conditions =
    Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"%s\";" handle perms
  in
  let drbg = Dcrypto.Drbg.create ~seed:(Dcrypto.Sha256.digest (conditions ^ keyfile)) in
  let cred =
    Keynote.Assertion.issue ~key ~drbg ?comment
      ~licensees:(Printf.sprintf "\"%s\"" licensee)
      ~conditions ()
  in
  print_string (Keynote.Assertion.to_text cred);
  0

let perms_conv =
  let parse s =
    let ok = List.mem s [ "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX" ] in
    if ok then Ok s else Error (`Msg "permissions must be one of X W WX R RX RW RWX")
  in
  Arg.conv (parse, Format.pp_print_string)

let issue_cmd =
  let keyfile = Arg.(required & pos 0 (some file) None & info [] ~docv:"KEY.priv") in
  let licensee =
    Arg.(required & opt (some string) None & info [ "to" ] ~docv:"PRINCIPAL|FILE"
           ~doc:"The licensee: a dsa-hex principal or a .pub file.")
  in
  let handle =
    Arg.(required & opt (some int) None & info [ "handle" ] ~docv:"INODE"
           ~doc:"The DisCFS file handle (inode number).")
  in
  let perms = Arg.(value & opt perms_conv "R" & info [ "perms" ] ~docv:"RWX") in
  let comment = Arg.(value & opt (some string) None & info [ "comment" ] ~docv:"TEXT") in
  Cmd.v (Cmd.info "issue" ~doc:"Issue a DisCFS credential")
    Term.(const issue $ keyfile $ licensee $ handle $ perms $ comment)

(* --- demo ------------------------------------------------------------- *)

let say fmt = Format.printf (fmt ^^ "@.")

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data)

let demo seed =
  let d = Discfs.Cluster.make ~seed () in
  say "== DisCFS demonstration (deterministic seed %S) ==@." seed;
  say "1. Server deployed. Policy trusts the administrator key %s..."
    (String.sub (Discfs.Cluster.admin_principal d) 0 30);

  let bob = Discfs.Cluster.new_identity d in
  let client = CC.attach d ~identity:bob ~uid:100 () in
  say "2. Bob attaches. IKE authenticated both ends in %.0f ms of virtual time;"
    (Simnet.Clock.now (Discfs.Cluster.clock d) *. 1000.);
  say "   the server now binds this connection to Bob's key %s..."
    (String.sub (CC.principal client) 0 30);

  let root = CC.root client in
  say "3. Without credentials the tree is mode 000:";
  let attr = CC.getattr client root in
  say "   getattr / -> mode %03o uid %d" (attr.Nfs.Proto.mode land 0o777) attr.Nfs.Proto.uid;
  (match CC.readdir client root with
  | exception Nfs.Proto.Nfs_error s -> say "   readdir / -> %s" (Nfs.Proto.status_to_string s)
  | _ -> ());

  let cred =
    Discfs.Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" (CC.principal client))
      ~conditions:
        (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RWX\";"
           root.Nfs.Proto.ino)
      ~comment:"root for Bob" ()
  in
  say "4. The administrator mails Bob a credential:";
  print_string (Keynote.Assertion.to_text cred);
  (match CC.submit_credential client cred with
  | Ok fp -> say "5. Bob submits it over RPC; server accepts (fingerprint %s)." fp
  | Error e -> failwith e);

  let fh, _, file_cred = CC.create client ~dir:root "demo.txt" () in
  say "6. Bob creates demo.txt with the DisCFS create call; the server";
  say "   returns a fresh RWX credential (fingerprint %s)."
    (Keynote.Assertion.fingerprint file_cred);
  CC.write_all client fh "credentials, not accounts\n";
  let _, data = CC.read client fh ~off:0 ~count:64 in
  say "7. Write + read back: %S" data;

  let mallory = CC.attach d ~identity:(Discfs.Cluster.new_identity d) ~uid:666 () in
  (match CC.read mallory fh ~off:0 ~count:4 with
  | exception Nfs.Proto.Nfs_error s ->
    say "8. A second user without credentials is refused: %s" (Nfs.Proto.status_to_string s)
  | _ -> failwith "unexpected grant");

  say "@.-- statistics (virtual time %.3f s) --" (Simnet.Clock.now (Discfs.Cluster.clock d));
  List.iter
    (fun (k, v) -> say "   %-24s %d" k v)
    (Trace.Metrics.counters (Discfs.Cluster.stats d));
  let cache = Discfs.Server.cache (Discfs.Cluster.node_server d 0) in
  say "   %-24s %d hits / %d misses" "policy cache"
    (Discfs.Policy_cache.hits cache) (Discfs.Policy_cache.misses cache);
  0

let demo_cmd =
  let seed = Arg.(value & opt string "discfs-demo" & info [ "seed" ] ~docv:"SEED") in
  Cmd.v (Cmd.info "demo" ~doc:"Run a narrated end-to-end demonstration")
    Term.(const demo $ seed)

(* --- cluster ----------------------------------------------------------- *)

(* Narrated server-set walkthrough: the multi-server analogue of
   [demo]. Shows the shard map, a reshard being corrected by a signed
   redirect, and the replica lease cycle — the operator-visible faces
   of docs/TOPOLOGY.md. *)
let cluster servers seed =
  if servers < 2 then (prerr_endline "cluster: need at least 2 servers"; 1)
  else begin
    let c = Discfs.Cluster.make ~servers ~seed () in
    let cc = CC.attach c ~identity:(Discfs.Cluster.new_identity c) () in
    say "== DisCFS server set (%d frontends, deterministic seed %S) ==@." servers seed;
    say "1. Cluster deployed: one volume, %d frontends on their own access" servers;
    say "   links, all trusting administrator key %s..."
      (String.sub (Discfs.Cluster.admin_principal c) 0 30);
    say "@.2. The shard map (version %d):"
      (Discfs.Shard_map.version (Discfs.Cluster.map c));
    say "%s" (Discfs.Shard_map.to_string (Discfs.Cluster.map c));

    let root = CC.root cc in
    let cred =
      Discfs.Cluster.admin_issue c
        ~licensees:(Printf.sprintf "\"%s\"" (CC.principal cc))
        ~conditions:
          (Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RWX\";"
             root.Nfs.Proto.ino)
        ~comment:"root for the demo user" ()
    in
    (match CC.submit_credential cc cred with
    | Ok _ -> ()
    | Error e -> failwith e);
    let fh, _, _ = CC.create cc ~dir:root "demo.txt" () in
    CC.write_all cc fh "authority travels with the credential\n";
    let m = Discfs.Cluster.map c in
    let shard = Discfs.Shard_map.shard_of m ~ino:fh.Nfs.Proto.ino in
    let owner = Discfs.Shard_map.owner m ~ino:fh.Nfs.Proto.ino in
    say "@.3. demo.txt landed in shard %d, owned by server%d; the client wrote" shard owner;
    say "   it there directly (its cached map is fresh).";

    let new_owner = (owner + 1) mod servers in
    Discfs.Cluster.reshard c ~shard ~owner:new_owner;
    say "@.4. Operator moves shard %d to server%d (map version %d). The client's" shard
      new_owner
      (Discfs.Shard_map.version (Discfs.Cluster.map c));
    say "   cached map is now stale; its next read is answered by a SIGNED";
    say "   redirect, verified against the old owner's IKE-authenticated key:";
    let data = CC.read_all cc fh in
    let get k = Simnet.Stats.get (Discfs.Cluster.stats c) k in
    say "   read -> %S" data;
    say "   redirects: sent %d, followed %d, bad signatures %d; client map v%d"
      (get "redirect.sent") (get "redirect.followed") (get "redirect.bad_sig")
      (CC.map_version cc);

    (match Discfs.Cluster.add_replica c ~shard ~server:owner with
    | Ok () ->
      say "@.5. server%d re-joins as a read-only replica of shard %d under a" owner shard;
      say "   lease from the owner (grants so far: %d). A write through the"
        (get "topo.lease.grants");
      say "   owner INVALIDATEs it before the write is acknowledged:";
      CC.write_all cc fh "writes invalidate replica leases first\n";
      say "   lease invalidations: %d" (get "topo.lease.invalidations")
    | Error e -> say "   (replica setup failed: %s)" e);

    say "@.-- statistics (virtual time %.3f s) --"
      (Simnet.Clock.now (Discfs.Cluster.clock c));
    List.iter
      (fun (k, v) -> say "   %-24s %d" k v)
      (Trace.Metrics.counters (Discfs.Cluster.stats c));
    0
  end

let cluster_cmd =
  let servers = Arg.(value & opt int 3 & info [ "servers" ] ~docv:"N") in
  let seed = Arg.(value & opt string "discfs-cluster-demo" & info [ "seed" ] ~docv:"SEED") in
  Cmd.v
    (Cmd.info "cluster"
       ~doc:"Run a narrated multi-server walkthrough (shard map, redirects, leases)")
    Term.(const cluster $ servers $ seed)

(* --- snapshot / fsck --------------------------------------------------- *)

let snapshot seed out =
  (* Run a small deployment and dump its volume to a real disk image
     file, for fsck below. *)
  let d = Discfs.Cluster.make ~seed () in
  let admin = CC.attach d ~identity:(Discfs.Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root admin in
  let docs, _, _ = CC.mkdir admin ~dir:root "docs" () in
  let fh, _, _ = CC.create admin ~dir:docs "paper.tex" () in
  CC.write_all admin fh
    "\\title{Secure and Flexible Global File Sharing}\n";
  write_file out (Ffs.Fs.save (Discfs.Cluster.fs d));
  say "wrote volume image to %s" out;
  0

let snapshot_cmd =
  let seed = Arg.(value & opt string "discfs-snapshot" & info [ "seed" ] ~docv:"SEED") in
  let out = Arg.(required & pos 0 (some string) None & info [] ~docv:"IMAGE") in
  Cmd.v (Cmd.info "snapshot" ~doc:"Create a demo volume and dump its disk image")
    Term.(const snapshot $ seed $ out)

let fsck image_path =
  let image = read_file image_path in
  let not_an_image () =
    prerr_endline "not a DisCFS volume image";
    2
  in
  let corrupt m =
    Printf.eprintf "corrupt image: %s\n" m;
    2
  in
  let d = Xdr.Dec.of_string image in
  match Xdr.Dec.string d with
  | exception Xdr.Decode_error _ -> not_an_image ()
  | magic when magic <> "DISCFS-FFS-IMAGE-1" -> not_an_image ()
  | _ -> (
    (* Geometry lives right after the magic in the image header. *)
    match
      let block_size = Xdr.Dec.uint32 d in
      let nblocks = Xdr.Dec.uint32 d in
      if block_size = 0 || nblocks = 0 then
        raise (Ffs.Fs.Bad_image (Printf.sprintf "geometry %d x %d B" nblocks block_size));
      let clock = Simnet.Clock.create () in
      let stats = Simnet.Stats.create () in
      let dev =
        Ffs.Blockdev.create ~clock ~cost:Simnet.Cost.local_only ~stats ~nblocks ~block_size ()
      in
      (block_size, Ffs.Fs.load ~dev image)
    with
    | exception Xdr.Decode_error m -> corrupt ("header: " ^ m)
    | exception (Ffs.Fs.Bad_image m | Invalid_argument m) -> corrupt m
    | block_size, fs ->
      let s = Ffs.Fs.statfs fs in
      say "volume: %d blocks x %d B (%d free), %d inodes (%d free)" s.Ffs.Fs.f_total_blocks
        block_size s.Ffs.Fs.f_free_blocks s.Ffs.Fs.f_total_inodes s.Ffs.Fs.f_free_inodes;
      let files = ref 0 and dirs = ref 0 and bytes = ref 0 in
      let rec walk ino depth =
        List.iter
          (fun (name, child) ->
            if name <> "." && name <> ".." then begin
              let attr = Ffs.Fs.getattr fs child in
              say "%s%-30s %6d B  ino %d gen %d"
                (String.make (depth * 2) ' ')
                name attr.Ffs.Inode.a_size child attr.Ffs.Inode.a_gen;
              match attr.Ffs.Inode.a_kind with
              | Ffs.Inode.Dir ->
                incr dirs;
                walk child (depth + 1)
              | Ffs.Inode.Reg ->
                incr files;
                bytes := !bytes + attr.Ffs.Inode.a_size;
                (* Verify every block is readable. *)
                ignore (Ffs.Fs.read fs child ~off:0 ~len:attr.Ffs.Inode.a_size)
              | Ffs.Inode.Symlink -> ignore (Ffs.Fs.readlink fs child)
            end)
          (Ffs.Fs.readdir fs ino)
      in
      walk (Ffs.Fs.root fs) 0;
      say "clean: %d dirs, %d files, %d bytes verified readable" !dirs !files !bytes;
      0)

let fsck_cmd =
  let image = Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE") in
  Cmd.v (Cmd.info "fsck" ~doc:"Check and list a volume image") Term.(const fsck $ image)

let main_cmd =
  Cmd.group (Cmd.info "discfs_ctl" ~version:"1.0" ~doc:"DisCFS operator tool")
    [ issue_cmd; demo_cmd; cluster_cmd; snapshot_cmd; fsck_cmd ]

let () = exit (Cmd.eval' main_cmd)
