(* On-"disk" inode structure, 4.x BSD style: 12 direct block pointers,
   one single-indirect and one double-indirect. The generation number
   increments each time the inode is reallocated so stale NFS/DisCFS
   handles are detectable (the paper's suggested inode+generation
   handle, section 5). *)

let n_direct = 12
let unallocated = -1

type kind = Reg | Dir | Symlink

type t = {
  ino : int;
  mutable kind : kind;
  mutable size : int;
  mutable perms : int; (* unix 0o777-style bits *)
  mutable uid : int;
  mutable gid : int;
  mutable nlink : int;
  mutable atime : float;
  mutable mtime : float;
  mutable ctime : float;
  mutable gen : int;
  mutable direct : int array;
  mutable indirect : int;
  mutable double_indirect : int;
  mutable allocated : bool;
  mutable parent : int; (* directory containing this inode, -1 if unknown *)
  mutable pname : string; (* name under that directory *)
}

type attr = {
  a_ino : int;
  a_kind : kind;
  a_size : int;
  a_perms : int;
  a_uid : int;
  a_gid : int;
  a_nlink : int;
  a_atime : float;
  a_mtime : float;
  a_ctime : float;
  a_gen : int;
}

let fresh ino =
  {
    ino;
    kind = Reg;
    size = 0;
    perms = 0;
    uid = 0;
    gid = 0;
    nlink = 0;
    atime = 0.0;
    mtime = 0.0;
    ctime = 0.0;
    gen = 0;
    direct = Array.make n_direct unallocated;
    indirect = unallocated;
    double_indirect = unallocated;
    allocated = false;
    parent = unallocated;
    pname = "";
  }

let attr_of i =
  {
    a_ino = i.ino;
    a_kind = i.kind;
    a_size = i.size;
    a_perms = i.perms;
    a_uid = i.uid;
    a_gid = i.gid;
    a_nlink = i.nlink;
    a_atime = i.atime;
    a_mtime = i.mtime;
    a_ctime = i.ctime;
    a_gen = i.gen;
  }
