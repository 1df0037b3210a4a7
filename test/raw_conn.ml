(* A bare NFS-over-ESP connection to one DisCFS server, below the
   cluster client: for tests that must speak to a server the client
   would never route to — a replica asked to write, or a server
   rebuilt by hand from its saved state. IKE and RPC exactly as the
   client's own connections run them, and no routing, redirect
   following or recovery. *)

type t = { rpc : Oncrpc.Rpc.client; nfs : Nfs.Client.t }

let connect ~link ~rpc ~server ~identity ~drbg ~uid =
  let client_ep, server_ep =
    Ipsec.Ike.establish ~link ~drbg ~initiator:identity
      ~responder:(Discfs.Server.server_key server) ()
  in
  let channel = Ipsec.Ike.rpc_channel ~client:client_ep ~server:server_ep in
  let rpc = Oncrpc.Rpc.connect ~link ~channel ~peer:server_ep.Ipsec.Ike.peer ~uid rpc in
  { rpc; nfs = Nfs.Client.create rpc }

(* The DisCFS SUBMIT procedure; true when the server accepted. *)
let submit t cred =
  let reply =
    Oncrpc.Rpc.call t.rpc ~prog:Discfs.Server.discfs_prog ~vers:Discfs.Server.discfs_vers
      ~proc:Discfs.Server.discfsproc_submit (fun e ->
        Xdr.Enc.string e (Keynote.Assertion.to_text cred))
  in
  Xdr.Dec.uint32 reply = 0
