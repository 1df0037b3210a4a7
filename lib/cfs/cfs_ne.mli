(** CFS-NE, the paper's base case (§6): the CFS user-level server with
    encryption turned off, modified to run remotely. Functionally it
    is a plain NFS loopback service — same RPC path and disk as
    DisCFS, no IPsec and no credential checks — so the difference
    between its numbers and DisCFS's isolates the cost of the access
    -control machinery. *)

type t = {
  clock : Simnet.Clock.t;
  stats : Simnet.Stats.t;
  link : Simnet.Link.t;
  fs : Ffs.Fs.t;
  rpc : Oncrpc.Rpc.server;
  nfs_server : Nfs.Server.t;
}

val deploy : unit -> t
(** One server on the {!Ffs.Testbed} volume under the 2001-era cost
    model ({!Simnet.Cost.default}). *)

val connect : t -> Nfs.Client.t * Nfs.Proto.fh
(** Plaintext NFS mount of ["/"] as uid 1000. *)
