(* The versioned shard map: which server owns which slice of the
   namespace, and which servers hold read replicas of it.

   Handles are assigned to shards by a fixed integer mix of the inode
   number (the stable half of the 4.4BSD-style handle; the generation
   changes when an inode is reused, and a reused inode should stay on
   its shard). The mix is written out by hand: the map must hash
   identically in every process and on every OCaml version, which
   rules out [Hashtbl.hash] — and the determinism lint enforces
   that.

   Maps are immutable values; every change ([add_replica], [move],
   ...) returns a successor with [version + 1]. Clients cache a map
   and learn of staleness from signed redirects or GETMAP, never by
   sharing the cluster's mutable cell. *)

type shard = { owner : int; replicas : int list }

type t = { version : int; nservers : int; shards : shard array }

(* A 32-bit avalanche mix (xor-shift-multiply, Murmur3-finalizer
   family): every input bit affects every output bit, so consecutive
   inodes spread across shards instead of striping. *)
let mix x =
  let x = x land 0xffffffff in
  let x = x lxor (x lsr 16) in
  let x = x * 0x7feb352d land 0xffffffff in
  let x = x lxor (x lsr 15) in
  let x = x * 0x846ca68b land 0xffffffff in
  x lxor (x lsr 16)

let make ~nservers ~nshards =
  if nservers < 1 then invalid_arg "Shard_map.make: nservers < 1";
  if nshards < 1 then invalid_arg "Shard_map.make: nshards < 1";
  {
    version = 1;
    nservers;
    shards = Array.init nshards (fun i -> { owner = i mod nservers; replicas = [] });
  }

(* What a client holds before its first GETMAP: version 0 is never a
   real map version (maps are born at 1), so any authoritative map is
   newer and the first refresh always replaces this. *)
let placeholder ~nservers =
  if nservers < 1 then invalid_arg "Shard_map.placeholder: nservers < 1";
  { version = 0; nservers; shards = [| { owner = 0; replicas = [] } |] }

let version t = t.version
let nshards t = Array.length t.shards

let shard_of t ~ino = mix ino mod Array.length t.shards

let shard t i =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Shard_map.shard: out of range";
  t.shards.(i)

let owner t ~ino = (shard t (shard_of t ~ino)).owner

let mem_server s l = List.exists (fun x -> Int.equal x s) l

(* Owner always serves; a replica serves reads only. Lease liveness
   is the cluster's business (soft state, not part of the map). *)
let serves t ~server ~ino ~write =
  let s = shard t (shard_of t ~ino) in
  Int.equal s.owner server || ((not write) && mem_server server s.replicas)

let bump t shards = { t with version = t.version + 1; shards }

let with_shard t i f =
  if i < 0 || i >= Array.length t.shards then invalid_arg "Shard_map: shard out of range";
  let shards = Array.copy t.shards in
  shards.(i) <- f shards.(i);
  bump t shards

let check_server t s ctx =
  if s < 0 || s >= t.nservers then invalid_arg ("Shard_map." ^ ctx ^ ": server out of range")

let add_replica t ~shard ~server =
  check_server t server "add_replica";
  with_shard t shard (fun s ->
      if Int.equal s.owner server || mem_server server s.replicas then s
      else { s with replicas = s.replicas @ [ server ] })

(* Move ownership. The new owner stops being a replica (it owns the
   shard now); the old owner does NOT become one — granting read
   authority is an explicit, leased act, not a side effect. *)
let move t ~shard ~owner =
  check_server t owner "move";
  with_shard t shard (fun s ->
      { owner; replicas = List.filter (fun x -> not (Int.equal x owner)) s.replicas })

(* --- wire format (PROTOCOL.md §11.1) -------------------------------- *)

let encode e t =
  Xdr.Enc.uint32 e t.version;
  Xdr.Enc.uint32 e t.nservers;
  Xdr.Enc.uint32 e (Array.length t.shards);
  Array.iter
    (fun s ->
      Xdr.Enc.uint32 e s.owner;
      Xdr.Enc.uint32 e (List.length s.replicas);
      List.iter (fun r -> Xdr.Enc.uint32 e r) s.replicas)
    t.shards

let decode d =
  let version = Xdr.Dec.uint32 d in
  let nservers = Xdr.Dec.uint32 d in
  if nservers < 1 then raise (Xdr.Decode_error "shard map: nservers < 1");
  let nshards = Xdr.Dec.uint32 d in
  if nshards < 1 || nshards > 65536 then raise (Xdr.Decode_error "shard map: bad shard count");
  let read_server ctx =
    let s = Xdr.Dec.uint32 d in
    if s >= nservers then raise (Xdr.Decode_error ("shard map: " ^ ctx ^ " out of range"));
    s
  in
  let shards =
    Array.init nshards (fun _ ->
        let owner = read_server "owner" in
        let nreps = Xdr.Dec.uint32 d in
        if nreps >= nservers then raise (Xdr.Decode_error "shard map: too many replicas");
        { owner; replicas = List.init nreps (fun _ -> read_server "replica") })
  in
  { version; nservers; shards }

let to_string t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    ("shard map v" ^ string_of_int t.version ^ ": " ^ string_of_int (Array.length t.shards)
   ^ " shards over " ^ string_of_int t.nservers ^ " servers");
  Array.iteri
    (fun i s ->
      Buffer.add_string b ("\n  shard " ^ string_of_int i ^ " -> s" ^ string_of_int s.owner);
      match s.replicas with
      | [] -> ()
      | _ :: _ ->
        Buffer.add_string b
          (" (replicas " ^ String.concat "," (List.map (fun r -> "s" ^ string_of_int r) s.replicas)
         ^ ")"))
    t.shards;
  Buffer.contents b
