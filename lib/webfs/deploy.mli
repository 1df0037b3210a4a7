(** Testbed setup for the WebFS comparator, mirroring the one-server
    {!Discfs.Cluster.make}: one virtual host pair, an IKE-authenticated
    channel per client, ACL-enforced NFS. *)

type t = {
  clock : Simnet.Clock.t;
  stats : Simnet.Stats.t;
  link : Simnet.Link.t;
  fs : Ffs.Fs.t;
  rpc : Oncrpc.Rpc.server;
  server : Server.t;
  drbg : Dcrypto.Drbg.t;
}

val make :
  ?cost:Simnet.Cost.t -> ?nblocks:int -> ?block_size:int -> ?ninodes:int -> ?seed:string ->
  unit -> t

val new_identity : t -> Dcrypto.Dsa.private_key

val attach :
  t -> identity:Dcrypto.Dsa.private_key -> ?uid:int -> ?path:string -> unit ->
  Nfs.Client.t * Nfs.Proto.fh * string
(** IKE + ESP + mount; returns the client stubs, root handle and the
    client's principal string (which the administrator needs for ACL
    entries). *)
