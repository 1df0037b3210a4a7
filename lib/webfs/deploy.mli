(** Testbed setup for the WebFS comparator, mirroring the one-server
    {!Discfs.Cluster.make}: one virtual host pair and ACL-enforced
    NFS, whose administration the scalability benchmark counts. *)

type t = {
  clock : Simnet.Clock.t;
  stats : Simnet.Stats.t;
  link : Simnet.Link.t;
  fs : Ffs.Fs.t;
  rpc : Oncrpc.Rpc.server;
  server : Server.t;
  drbg : Dcrypto.Drbg.t;
}

val make : ?seed:string -> unit -> t
(** The {!Ffs.Testbed} volume under {!Simnet.Cost.default}. *)
