(* Fixture: one wire path per direction (checked under the decode and
   data roles, where it must be clean). Messages are sealed from their
   arena and datagrams opened in place; the shims' own module refers
   to them by bare name, which is not a call through the shim. *)

module Esp = struct
  let seal_arena (_ : int) arena = Buffer.contents arena
  let open_in_place (_ : int) packet = Bytes.sub_string packet 3 (Bytes.length packet - 3)
  let seal sa payload =
    let b = Buffer.create 16 in
    Buffer.add_string b payload;
    seal_arena sa b
  let open_ sa packet = open_in_place sa (Bytes.of_string packet)
  let round_trip sa payload = open_ sa (seal sa payload)
end

let seal_once sa arena = Esp.seal_arena sa arena
let open_owned sa packet = Esp.open_in_place sa packet
