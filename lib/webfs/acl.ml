type bits = int

type t = {
  users : (string, unit) Hashtbl.t;
  entries : (int * string, bits) Hashtbl.t;
}

let create () = { users = Hashtbl.create 64; entries = Hashtbl.create 256 }

let norm = String.lowercase_ascii

let register_user t ~principal = Hashtbl.replace t.users (norm principal) ()
let is_registered t ~principal = Hashtbl.mem t.users (norm principal)

let grant t ~ino ~principal bits =
  if not (is_registered t ~principal) then
    invalid_arg "Acl.grant: unknown user (ACL systems need accounts first)";
  Hashtbl.replace t.entries (ino, norm principal) (bits land 7)

let lookup t ~ino ~principal =
  match Hashtbl.find_opt t.entries (ino, norm principal) with Some b -> b | None -> 0

let state_bytes t =
  let registry =
    Hashtbl.fold (fun p () acc -> acc + String.length p + 16) t.users 0
  in
  let entries =
    Hashtbl.fold (fun (_, p) _ acc -> acc + String.length p + 24) t.entries 0
  in
  registry + entries
