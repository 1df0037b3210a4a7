module Clock = Simnet.Clock
module Stats = Simnet.Stats
module Link = Simnet.Link
module Rpc = Oncrpc.Rpc

type t = {
  clock : Clock.t;
  stats : Stats.t;
  link : Link.t;
  fs : Ffs.Fs.t;
  rpc : Rpc.server;
  nfs_server : Nfs.Server.t;
}

let deploy () =
  let cost = Simnet.Cost.default in
  let clock = Clock.create () in
  let stats = Stats.create () in
  let link = Link.create ~clock ~cost ~stats in
  let dev =
    Ffs.Blockdev.create ~clock ~cost ~stats ~nblocks:Ffs.Testbed.nblocks
      ~block_size:Ffs.Testbed.block_size ()
  in
  let fs = Ffs.Fs.create ~dev ~ninodes:Ffs.Testbed.ninodes in
  let nfs_server = Nfs.Server.create ~fs () in
  let rpc = Rpc.server ~clock ~cost ~stats in
  Nfs.Server.attach nfs_server rpc;
  { clock; stats; link; fs; rpc; nfs_server }

let connect t =
  let client = Nfs.Client.create (Rpc.connect ~link:t.link ~uid:1000 t.rpc) in
  let root = Nfs.Client.mount client "/" in
  (client, root)
