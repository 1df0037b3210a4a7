(* Fixture: the data path's borrowing idiom (checked under the data
   role, where it must be clean). Reads hand out pieces of immutable
   blocks, opaque arguments are taken where they lie, and a fresh
   encoder is not what the data role polices. *)

module Fs = struct
  let read_pieces (_ : int) ~off ~len = [ (String.make 8 'b', off, len) ]
end

module Dec = struct
  let opaque_with (s : string) f = f s ~off:4 ~len:(String.length s - 4)
end

module Enc = struct
  let create () = Buffer.create 16
  let borrow b s ~off ~len = Buffer.add_substring b s off len
end

let read_borrowed ino =
  let e = Enc.create () in
  List.iter (fun (s, off, len) -> Enc.borrow e s ~off ~len) (Fs.read_pieces ino ~off:0 ~len:8);
  e

let write_in_place args store = Dec.opaque_with args (fun s ~off ~len -> store s off len)
