(* Fixture: the string ESP entry points called from what poses as a
   wire or data-path module (checked under the decode and data
   roles). Each copies the whole packet once more than the arena seal
   and the in-place open; every call needs its own written-down
   reason. *)

module Esp = struct
  let seal (_ : int) payload = "hdr" ^ payload
  let open_ (_ : int) packet = String.sub packet 3 (String.length packet - 3)
end

let seal_copy sa payload = Esp.seal sa payload

let open_copy sa packet = Esp.open_ sa packet

let unjustified_copy sa packet =
  (* discfs-lint: allow hotpath-alloc *)
  Esp.open_ sa packet

let justified_copy sa payload =
  (* discfs-lint: allow hotpath-alloc "fixture: the reason, written down" *)
  Esp.seal sa payload
