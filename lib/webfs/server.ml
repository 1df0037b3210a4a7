module Rpc = Oncrpc.Rpc
module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Proto = Nfs.Proto

type t = { nfs : Nfs.Server.t; acl : Acl.t; mutable admin_ops : int }

let acl t = t.acl
let admin_ops t = t.admin_ops

let admin_register t ~principal =
  t.admin_ops <- t.admin_ops + 1;
  Acl.register_user t.acl ~principal

let admin_grant t ~ino ~principal ~bits =
  t.admin_ops <- t.admin_ops + 1;
  Acl.grant t.acl ~ino ~principal bits

let required_bits (op : Nfs.Server.op) =
  match op with
  | Nfs.Server.Getattr | Nfs.Server.Statfs -> 0
  | Nfs.Server.Lookup -> 1
  | Nfs.Server.Read | Nfs.Server.Readdir | Nfs.Server.Readlink | Nfs.Server.Readdirplus
  | Nfs.Server.Multiread ->
    4
  | Nfs.Server.Write | Nfs.Server.Setattr | Nfs.Server.Create | Nfs.Server.Remove
  | Nfs.Server.Rename | Nfs.Server.Link | Nfs.Server.Symlink | Nfs.Server.Mkdir
  | Nfs.Server.Rmdir ->
    2

let create ~fs () =
  let t = { nfs = Nfs.Server.create ~fs (); acl = Acl.create (); admin_ops = 0 } in
  let clock = Ffs.Fs.clock fs in
  let charge () = Clock.advance clock Cost.default.Cost.keynote_cached in
  Nfs.Server.set_hooks t.nfs
    {
      Nfs.Server.authorize =
        (fun ~conn ~fh ~op ->
          let required = required_bits op in
          if required = 0 then Ok ()
          else begin
            charge ();
            let bits = Acl.lookup t.acl ~ino:fh.Proto.ino ~principal:conn.Rpc.peer in
            if bits land required = required then Ok () else Error Proto.nfserr_acces
          end);
      present_attr =
        (fun ~conn attr ->
          charge ();
          let bits = Acl.lookup t.acl ~ino:attr.Proto.fileid ~principal:conn.Rpc.peer in
          let type_bits = attr.Proto.mode land lnot 0o7777 in
          {
            attr with
            Proto.mode = type_bits lor (bits lsl 6) lor (bits lsl 3) lor bits;
            uid = conn.Rpc.uid;
            gid = conn.Rpc.uid;
          });
      rights =
        (fun ~conn ~fh ->
          charge ();
          Acl.lookup t.acl ~ino:fh.Proto.ino ~principal:conn.Rpc.peer);
    };
  t

let attach_rpc t rpc_server = Nfs.Server.attach t.nfs rpc_server
