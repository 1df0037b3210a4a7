module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Link = Simnet.Link
module Rpc = Oncrpc.Rpc
module Drbg = Dcrypto.Drbg
module Dsa = Dcrypto.Dsa

type t = {
  clock : Clock.t;
  stats : Stats.t;
  link : Link.t;
  fs : Ffs.Fs.t;
  rpc : Rpc.server;
  server : Server.t;
  drbg : Drbg.t;
}

let make ?(seed = "webfs-deploy") () =
  let cost = Simnet.Cost.default in
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost ~stats in
  let dev =
    Ffs.Blockdev.create ~clock ~cost ~stats ~nblocks:Ffs.Testbed.nblocks
      ~block_size:Ffs.Testbed.block_size ()
  in
  let fs = Ffs.Fs.create ~dev ~ninodes:Ffs.Testbed.ninodes in
  let drbg = Drbg.create ~seed in
  (* Draw and drop a server key: the user keys drawn after it, and so
     the scalability figures, depend on this position in the stream. *)
  ignore (Dsa.generate_key drbg);
  let server = Server.create ~fs () in
  let rpc = Rpc.server ~clock ~cost ~stats in
  Server.attach_rpc server rpc;
  { clock; stats; link; fs; rpc; server; drbg }
