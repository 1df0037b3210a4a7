module Rpc = Oncrpc.Rpc
module Proto = Nfs.Proto
module Assertion = Keynote.Assertion

exception Discfs_error of string

type t = {
  mutable nfs : Nfs.Client.t;
  mutable rpc : Rpc.client;
  mutable root : Proto.fh;
  mutable server_principal : string;
  (* Everything needed to redo IKE + MOUNT after a server restart. *)
  link : Simnet.Link.t;
  identity : Dcrypto.Dsa.private_key;
  drbg : Dcrypto.Drbg.t;
  uid : int;
  cipher : Ipsec.Sa.cipher option;
  sa_lifetime : int option;
  retry : Rpc.retry option;
  mutable endpoints : (Ipsec.Ike.endpoint * Ipsec.Ike.endpoint) option;
}

(* Soft-lifetime rekey: swap in fresh SAs (new keys, SPIs, reset
   replay windows) without disturbing the mounted filesystem. *)
let rekey t =
  match t.endpoints with
  | None -> ()
  | Some (client_ep, server_ep) ->
    let client_ep, server_ep =
      Ipsec.Ike.rekey ~link:t.link ~drbg:t.drbg ~client:client_ep ~server:server_ep ()
    in
    t.endpoints <- Some (client_ep, server_ep);
    Rpc.set_channel t.rpc (Ipsec.Ike.rpc_channel ~client:client_ep ~server:server_ep)

let maybe_rekey t =
  match t.endpoints with
  | None -> ()
  | Some (client_ep, _) -> if Ipsec.Sa.soft_expired client_ep.Ipsec.Ike.tx then rekey t

(* IKE: authenticate both ends, derive the ESP channel and connect
   RPC over it. The server learns our public key and associates it
   with this connection. *)
let establish ~link ~drbg ~identity ~server ~uid ?cipher ?sa_lifetime ?retry rpc =
  let client_ep, server_ep =
    Ipsec.Ike.establish ~link ~drbg ~initiator:identity
      ~responder:(Server.server_key server) ?cipher ?lifetime:sa_lifetime ()
  in
  let channel = Ipsec.Ike.rpc_channel ~client:client_ep ~server:server_ep in
  (Rpc.connect ~link ~channel ~peer:server_ep.Ipsec.Ike.peer ~uid ?retry rpc, client_ep, server_ep)

let attach ~link ~rpc ~server ~identity ~drbg ?(uid = 1000) ?cipher ?sa_lifetime ?retry () =
  let rpc_client, client_ep, server_ep =
    establish ~link ~drbg ~identity ~server ~uid ?cipher ?sa_lifetime ?retry rpc
  in
  let nfs = Nfs.Client.create rpc_client in
  let root = Nfs.Client.mount nfs "/" in
  let t =
    {
      nfs;
      rpc = rpc_client;
      root;
      server_principal = client_ep.Ipsec.Ike.peer;
      link;
      identity;
      drbg;
      uid;
      cipher;
      sa_lifetime;
      retry;
      endpoints = Some (client_ep, server_ep);
    }
  in
  Rpc.set_before_call rpc_client (fun () -> maybe_rekey t);
  t

let reattach t ~rpc ~server () =
  let rpc_client, client_ep, server_ep =
    establish ~link:t.link ~drbg:t.drbg ~identity:t.identity ~server ~uid:t.uid ?cipher:t.cipher
      ?sa_lifetime:t.sa_lifetime ?retry:t.retry rpc
  in
  t.rpc <- rpc_client;
  t.nfs <- Nfs.Client.create rpc_client;
  t.endpoints <- Some (client_ep, server_ep);
  t.server_principal <- client_ep.Ipsec.Ike.peer;
  Rpc.set_before_call rpc_client (fun () -> maybe_rekey t);
  t.root <- Nfs.Client.mount t.nfs "/"

(* Leaving is client-initiated and needs no server cooperation: the
   SAs are forgotten on this side, and any later use of the
   connection is a bug poisoned at the call gate. The server's
   per-connection state (DRC entries, policy-memo rows) ages out on
   its own — exactly the lazily-shed state the paper credits DisCFS
   for. *)
let detach t =
  t.endpoints <- None;
  Rpc.set_before_call t.rpc (fun () -> raise (Discfs_error "client is detached"))

let nfs t = t.nfs
let root t = t.root
let server_principal t = t.server_principal
let client_id t = Rpc.client_id t.rpc

let call t ~prog ~vers ~proc args = Rpc.call t.rpc ~prog ~vers ~proc args

let discfs_call t ~proc args =
  Rpc.call t.rpc ~prog:Server.discfs_prog ~vers:Server.discfs_vers ~proc args

let submit_credential_text t text =
  let d = discfs_call t ~proc:Server.discfsproc_submit (fun e -> Xdr.Enc.string e text) in
  if Xdr.Dec.uint32 d = 0 then Ok (Xdr.Dec.string d) else Error (Xdr.Dec.string d)

let make_node proc t ~dir name =
  let d =
    discfs_call t ~proc (fun e ->
        Proto.fh_encode e dir;
        Xdr.Enc.string e name;
        Proto.sattr_encode e { Proto.sattr_none with Proto.s_mode = Some 0o644 })
  in
  if Xdr.Dec.uint32 d <> 0 then raise (Discfs_error (Xdr.Dec.string d));
  let fh = Proto.fh_decode d in
  let attr = Proto.fattr_decode d in
  let cred_text = Xdr.Dec.string d in
  Xdr.Dec.expect_end d;
  (fh, attr, Assertion.parse cred_text)

let create t ~dir name = make_node Server.discfsproc_create t ~dir name
let mkdir t ~dir name = make_node Server.discfsproc_mkdir t ~dir name

let simple_result d =
  if Xdr.Dec.uint32 d = 0 then Ok () else Error (Xdr.Dec.string d)

let revoke_credential t ~fingerprint =
  simple_result
    (discfs_call t ~proc:Server.discfsproc_revoke_cred (fun e -> Xdr.Enc.string e fingerprint))

let revoke_key t ~principal =
  simple_result
    (discfs_call t ~proc:Server.discfsproc_revoke_key (fun e -> Xdr.Enc.string e principal))
