(* Fixture: payload copies on what poses as the NFS data path
   (checked under the data role). File data is borrowed from the
   volume's immutable blocks and WRITE payloads are stored from where
   they lie in the datagram; every copy needs its own written-down
   reason. *)

module Fs = struct
  let read (_ : int) ~off ~len = String.make len (Char.chr (off land 0xff))
end

module Dec = struct
  let opaque (s : string) = String.sub s 4 (String.length s - 4)
end

let read_copy ino = Fs.read ino ~off:0 ~len:8

let write_copy args = Dec.opaque args

let unjustified_copy ino =
  (* discfs-lint: allow hotpath-alloc *)
  Fs.read ino ~off:0 ~len:8

let justified_copy args =
  (* discfs-lint: allow hotpath-alloc "fixture: the reason, written down" *)
  Dec.opaque args
