(* discfs-lint: atomic-section — hit/miss bookkeeping completes inside one
   slice; the miss windows spanning an RPC round trip are instrumented for
   the dynamic checker (set_race). *)

module Clock = Simnet.Clock
module Stats = Simnet.Stats

module type CLIENT = sig
  type t

  val getattr : t -> Proto.fh -> Proto.fattr
  val lookup : t -> Proto.fh -> string -> Proto.fh * Proto.fattr
  val readdirplus : t -> Proto.fh -> Proto.direntplus list
  val read_whole : t -> Proto.fh -> size:int -> string
  val read : t -> Proto.fh -> off:int -> count:int -> Proto.fattr * string
  val write : t -> Proto.fh -> off:int -> string -> Proto.fattr
  val remove : t -> Proto.fh -> string -> unit
end

module Make (C : CLIENT) = struct
  type entry_key = int * int (* ino, gen *)

  type t = {
    client : C.t;
    clock : Clock.t;
    stats : Stats.t;
    attr_ttl : float;
    name_ttl : float;
    attrs : (entry_key, Proto.fattr * float) Hashtbl.t; (* value, expiry *)
    names : (entry_key * string, (Proto.fh * Proto.fattr) * float) Hashtbl.t;
    mutable hits : int;
    mutable misses : int;
    mutable expiries : int;
    mutable race : Race.monitor;
  }

  let create ~client ~clock ~stats ?(attr_ttl = 3.0) ?(name_ttl = 30.0) () =
    {
      client;
      clock;
      stats;
      attr_ttl;
      name_ttl;
      attrs = Hashtbl.create 64;
      names = Hashtbl.create 64;
      hits = 0;
      misses = 0;
      expiries = 0;
      race = Race.null;
    }

  let set_race t m = t.race <- m

  let key (fh : Proto.fh) = (fh.Proto.ino, fh.Proto.gen)

  (* Race-monitor key renderings: the attr and name tables share one
     monitor, disambiguated by prefix. Keys and values are rendered
     only for an armed monitor. *)
  let akey (ino, gen) = Printf.sprintf "a:%d.%d" ino gen
  let nkey ((ino, gen), name) = Printf.sprintf "n:%d.%d/%s" ino gen name

  let attr_value attr =
    let e = Xdr.Enc.create () in
    Proto.fattr_encode e attr;
    Xdr.Enc.to_string e

  let fresh t expiry = Clock.now t.clock < expiry

  (* The aggregate counters (t.hits / t.misses / t.expiries) cover both
     caches; the registry splits them by cache (cache.attr.* for
     getattr traffic, cache.name.* for lookup traffic) so the two
     caches' behaviour can be tuned independently. A miss is either
     cold (never cached) or an expiry (cached but past its TTL); the
     distinction matters when tuning TTLs, so count both. *)
  let miss t ~expired =
    t.misses <- t.misses + 1;
    if expired then t.expiries <- t.expiries + 1

  let store_attr t fh attr =
    if Race.enabled t.race then
      Race.act t.race ~value:(attr_value attr) ~key:(akey (key fh)) ();
    Hashtbl.replace t.attrs (key fh) (attr, Clock.now t.clock +. t.attr_ttl)

  let getattr t fh =
    match Hashtbl.find_opt t.attrs (key fh) with
    | Some (attr, expiry) when fresh t expiry ->
      t.hits <- t.hits + 1;
      Stats.incr t.stats "cache.attr.hits";
      if Race.enabled t.race then Race.read t.race ~key:(akey (key fh));
      attr
    | found ->
      let expired = found <> None in
      miss t ~expired;
      Stats.incr t.stats "cache.attr.misses";
      if expired then Stats.incr t.stats "cache.attr.expiries";
      (* The GETATTR round trip yields; the window closes when
         [store_attr] installs the reply. *)
      if Race.enabled t.race then Race.check t.race ~key:(akey (key fh));
      let attr = C.getattr t.client fh in
      store_attr t fh attr;
      attr

  let lookup t dir name =
    match Hashtbl.find_opt t.names (key dir, name) with
    | Some (result, expiry) when fresh t expiry ->
      t.hits <- t.hits + 1;
      Stats.incr t.stats "cache.name.hits";
      if Race.enabled t.race then Race.read t.race ~key:(nkey (key dir, name));
      result
    | found ->
      let expired = found <> None in
      miss t ~expired;
      Stats.incr t.stats "cache.name.misses";
      if expired then Stats.incr t.stats "cache.name.expiries";
      if Race.enabled t.race then Race.check t.race ~key:(nkey (key dir, name));
      let fh, attr = C.lookup t.client dir name in
      if Race.enabled t.race then
        Race.act t.race
          ~value:(Printf.sprintf "%d.%d" fh.Proto.ino fh.Proto.gen)
          ~key:(nkey (key dir, name)) ();
      Hashtbl.replace t.names ((key dir, name)) ((fh, attr), Clock.now t.clock +. t.name_ttl);
      store_attr t fh attr;
      (fh, attr)

  (* READDIRPLUS both answers the directory listing and prefetches the
     name and attribute caches: every entry installs exactly what a
     LOOKUP miss would have, so the walk's subsequent lookups hit. *)
  let readdirplus t dir =
    let entries = C.readdirplus t.client dir in
    List.iter
      (fun de ->
        let fh = de.Proto.p_fh and attr = de.Proto.p_attr and name = de.Proto.p_name in
        if Race.enabled t.race then
          Race.act t.race
            ~value:(Printf.sprintf "%d.%d" fh.Proto.ino fh.Proto.gen)
            ~key:(nkey (key dir, name)) ();
        Hashtbl.replace t.names ((key dir, name)) ((fh, attr), Clock.now t.clock +. t.name_ttl);
        store_attr t fh attr)
      entries;
    entries

  (* Whole-file read sized by the attribute cache: after READDIRPLUS
     the size is a cache hit, so the file transfers as a handful of
     MULTI_READ batches with no extra attribute round trip. *)
  let read_whole t fh =
    let attr = getattr t fh in
    C.read_whole t.client fh ~size:attr.Proto.size

  let read t fh ~off ~count =
    let attr, data = C.read t.client fh ~off ~count in
    store_attr t fh attr;
    (attr, data)

  let write t fh ~off data =
    let attr = C.write t.client fh ~off data in
    store_attr t fh attr;
    attr

  let invalidate t fh =
    if Race.enabled t.race then Race.write t.race ~key:(akey (key fh)) ();
    Hashtbl.remove t.attrs (key fh);
    (* Drop any name entries resolving to this handle. *)
    let doomed =
      Hashtbl.fold
        (fun k ((target, _), _) acc -> if key target = key fh then k :: acc else acc)
        t.names []
    in
    List.iter
      (fun k ->
        if Race.enabled t.race then Race.write t.race ~key:(nkey k) ();
        Hashtbl.remove t.names k)
      doomed

  let remove t dir name =
    C.remove t.client dir name;
    if Race.enabled t.race then Race.write t.race ~key:(nkey (key dir, name)) ();
    if Race.enabled t.race then Race.write t.race ~key:(akey (key dir)) ();
    Hashtbl.remove t.names (key dir, name);
    Hashtbl.remove t.attrs (key dir)

  let invalidate_all t =
    Hashtbl.reset t.attrs;
    Hashtbl.reset t.names;
    Race.wipe t.race

  let hits t = t.hits
  let misses t = t.misses
  let expiries t = t.expiries
end

include Make (Client)
