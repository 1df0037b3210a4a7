module Rpc = Oncrpc.Rpc
module Clock = Simnet.Clock
module Cost = Simnet.Cost
module Stats = Simnet.Stats
module Assertion = Keynote.Assertion
module Session = Keynote.Session
module Compliance = Keynote.Compliance
module Proto = Nfs.Proto

let values = [ "false"; "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX" ]

let discfs_prog = 391063
let discfs_vers = 1
let discfsproc_submit = 1
let discfsproc_create = 2
let discfsproc_mkdir = 3
let discfsproc_revoke_cred = 4
let discfsproc_revoke_key = 5

type audit_entry = {
  au_time : float;
  au_peer : string;
  au_op : string;
  au_ino : int;
  au_value : string;
  au_granted : bool;
}

(* Cluster state, like the one volume: what any frontend admits or
   revokes, every frontend sees. *)
type store = {
  session : Session.t;
  admin_principal : string;
  mutable revoked_keys : string list; (* newest first *)
  mutable revoked_fps : string list; (* revoked credential fingerprints, newest first *)
  mutable generation : int; (* bumped on every change, part of memo keys *)
}

let create_store ~admin ~frontends ~trace =
  let admin_principal = Assertion.principal_of_pub admin in
  let trusted p conditions =
    Assertion.policy ~licensees:(Printf.sprintf "\"%s\"" p) ~conditions ()
  in
  let policy =
    trusted admin_principal "true;"
    :: List.map
         (fun k -> trusted (Assertion.principal_of_pub k) "app_domain == \"DisCFS\";")
         frontends
  in
  {
    session = Session.create ~values ~policy ~trace ();
    admin_principal;
    revoked_keys = [];
    revoked_fps = [];
    generation = 0;
  }

type t = {
  fs : Ffs.Fs.t;
  nfs : Nfs.Server.t;
  store : store;
  cache : Policy_cache.t;
  server_key : Dcrypto.Dsa.private_key;
  drbg : Dcrypto.Drbg.t;
  hour : unit -> int;
  strict_handles : bool;
  peer_ids : (string, int) Hashtbl.t; (* principal -> its id in memo keys *)
  mutable audit : audit_entry list;
  mutable audit_len : int; (* List.length audit *)
}

let clock t = Ffs.Fs.clock t.fs
let stats t = Ffs.Fs.stats t.fs
let trace t = Ffs.Fs.trace t.fs
let cost () = Simnet.Cost.default

let nfs t = t.nfs
let session t = t.store.session
let cache t = t.cache
let server_principal t = Assertion.principal_of_pub t.server_key.Dcrypto.Dsa.pub
let server_key t = t.server_key
let audit_log t = t.audit

let short p = if String.length p > 24 then String.sub p 0 21 ^ "..." else p

(* --- KeyNote integration ------------------------------------------- *)

let is_revoked t principal =
  match t.store.revoked_keys with
  | [] -> false
  | keys -> List.exists (Keynote.Ast.principal_equal principal) keys

(* Memo keys name a principal by a small id, interned here on first
   sight: a DSA principal is hundreds of characters, and a key
   embedding it would copy it on every lookup. Ids are never reused,
   so a key still names exactly one principal. *)
let peer_id t peer =
  match Hashtbl.find_opt t.peer_ids peer with
  | Some id -> id
  | None ->
    let id = Hashtbl.length t.peer_ids in
    Hashtbl.replace t.peer_ids peer id;
    id

(* A memo miss: the full compliance check, on the attribute set the
   key was written from. The uncached path is the cost the paper's §6
   claims is hidden by disk and wire time; it has its own span so the
   latency_breakdown bench can isolate it. *)
let compliance_check t ~peer ~key ~ino ~generation ~path ~hour =
  Clock.advance (clock t) (cost ()).Cost.keynote_query;
  Stats.incr (stats t) "keynote.queries";
  let attributes = Policy_cache.attributes ~ino ~generation ~path ~hour in
  let result = Session.query t.store.session ~requesters:[ peer ] ~attributes in
  Policy_cache.add t.cache ~key result.Compliance.level;
  result.Compliance.level

let check_level t ~peer ~ino =
  if is_revoked t peer then begin
    (* A key reported bad has no authority at all, including as a
       requester on credentials that license it. *)
    Clock.advance (clock t) (cost ()).Cost.keynote_cached;
    0
  end
  else begin
    let generation = try Ffs.Fs.generation t.fs ino with Ffs.Fs.Error _ -> -1 in
    let path = match Ffs.Fs.path_of t.fs ino with Some p -> p | None -> "" in
    let hour = t.hour () in
    let key =
      Policy_cache.key ~epoch:t.store.generation ~peer:(peer_id t peer) ~ino ~generation ~path
        ~hour
    in
    match Policy_cache.find t.cache ~key with
    | Some level ->
      Trace.instant (trace t) "policy.cache.hit";
      Clock.advance (clock t) (cost ()).Cost.keynote_cached;
      Stats.incr (stats t) "keynote.cache_hits";
      level
    | None ->
      let tr = trace t in
      Trace.instant tr "policy.cache.miss";
      if Trace.enabled tr then
        Trace.span tr "keynote.check" (fun () ->
            compliance_check t ~peer ~key ~ino ~generation ~path ~hour)
      else compliance_check t ~peer ~key ~ino ~generation ~path ~hour
  end

(* Untraced, neither span builds its closure. *)
let query_level t ~peer ~ino =
  let tr = trace t in
  if Trace.enabled tr then Trace.span tr "policy.check" (fun () -> check_level t ~peer ~ino)
  else check_level t ~peer ~ino

let audit_cap = 10_000

let record t ~peer ~op ~ino ~level ~granted =
  (* Bound the in-memory trail; a production server would roll it
     to stable storage instead of truncating. *)
  if t.audit_len >= audit_cap then begin
    t.audit <- List.filteri (fun i _ -> i < audit_cap / 2) t.audit;
    t.audit_len <- audit_cap / 2
  end;
  t.audit_len <- t.audit_len + 1;
  t.audit <-
    {
      au_time = Clock.now (clock t);
      au_peer = short peer;
      au_op = op;
      au_ino = ino;
      au_value = List.nth values level;
      au_granted = granted;
    }
    :: t.audit

(* Permission bits demanded by each NFS operation (r=4, w=2, x=1).
   Directory-modifying operations need W on the directory; lookup
   needs X; reads need R. Getattr and statfs are always allowed —
   DisCFS instead *presents* attributes according to the caller's
   credentials, so an unauthorized attach sees mode 000 (paper §5). *)
let required_bits (op : Nfs.Server.op) =
  match op with
  | Nfs.Server.Getattr | Nfs.Server.Statfs -> 0
  | Nfs.Server.Lookup -> 1
  | Nfs.Server.Read | Nfs.Server.Readdir | Nfs.Server.Readlink | Nfs.Server.Readdirplus
  | Nfs.Server.Multiread ->
    4
  | Nfs.Server.Write | Nfs.Server.Setattr | Nfs.Server.Create | Nfs.Server.Remove
  | Nfs.Server.Rename | Nfs.Server.Link | Nfs.Server.Symlink | Nfs.Server.Mkdir
  | Nfs.Server.Rmdir ->
    2

(* Namespace changes (rename, link, …) used to force a wholesale
   cache flush here: moving a file between PATH-based grants could
   leave memoised results stale. That heuristic is gone — PATH and
   GENERATION are hashed into every memo key, so a moved file simply
   keys new entries and the old ones rot out of the LRU. *)
let authorize t ~conn ~(fh : Proto.fh) ~op =
  let required = required_bits op in
  if required = 0 then Ok ()
  else begin
    let peer = conn.Rpc.peer in
    let level = query_level t ~peer ~ino:fh.Proto.ino in
    let granted = level land required = required in
    record t ~peer ~op:(Nfs.Server.op_to_string op) ~ino:fh.Proto.ino ~level ~granted;
    if granted then Ok () else Error Proto.nfserr_acces
  end

(* Present each file with the permission bits this peer's credentials
   yield, owned by the uid given at attach time (which has no local
   significance to the server, paper §5). *)
let present_attr t ~conn (attr : Proto.fattr) =
  let level = query_level t ~peer:conn.Rpc.peer ~ino:attr.Proto.fileid in
  let type_bits = attr.Proto.mode land lnot 0o7777 in
  {
    attr with
    Proto.mode = type_bits lor (level lsl 6) lor (level lsl 3) lor level;
    uid = conn.Rpc.uid;
    gid = conn.Rpc.uid;
  }

(* --- credential management ------------------------------------------ *)

(* The store's generation is folded into each memo key, so bumping it
   makes every memoised level unreachable at every frontend. The
   frontend that made the change also flushes its own memo, so
   retired entries do not linger in its table. *)
let credentials_changed t =
  t.store.generation <- t.store.generation + 1;
  Policy_cache.flush t.cache

(* Parse a credential and refuse it if it, or the key that signed it,
   has been revoked; the signature is checked by the caller. *)
let vet ~revoked_keys ~revoked_fps text =
  match Assertion.parse text with
  | exception Assertion.Parse_error msg -> Error ("parse error: " ^ msg)
  | a ->
    if List.exists (Keynote.Ast.principal_equal a.Assertion.authorizer) revoked_keys then
      Error "authorizer key has been revoked"
    else if List.mem (Assertion.fingerprint a) revoked_fps then
      Error ("credential " ^ Assertion.fingerprint a ^ " has been revoked")
    else Ok a

let submit_credential t text =
  Trace.span (trace t) "cred.verify" @@ fun () ->
  let c = cost () in
  Clock.advance (clock t) c.Cost.credential_verify;
  Stats.incr (stats t) "discfs.submissions";
  let { revoked_keys; revoked_fps; session; _ } = t.store in
  match vet ~revoked_keys ~revoked_fps text with
  | Error e -> Error e
  | Ok a -> (
    match Session.add_credential session a with
    | Ok () ->
      credentials_changed t;
      Ok (Assertion.fingerprint a)
    | Error e -> Error e)

let issue_create_credential t ~peer ~ino ~name =
  Trace.span (trace t) "cred.issue" @@ fun () ->
  let c = cost () in
  Clock.advance (clock t) c.Cost.credential_verify (* DSA sign, comparable cost *);
  Stats.incr (stats t) "discfs.credentials_issued";
  let conditions =
    if t.strict_handles then
      Printf.sprintf
        "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") && (GENERATION == \"%d\") -> \"RWX\";"
        ino
        (Ffs.Fs.generation t.fs ino)
    else
      Printf.sprintf "(app_domain == \"DisCFS\") && (HANDLE == \"%d\") -> \"RWX\";" ino
  in
  let cred =
    Assertion.issue ~key:t.server_key ~drbg:t.drbg ~comment:name
      ~licensees:(Printf.sprintf "\"%s\"" peer)
      ~conditions ()
  in
  (match Session.add_credential t.store.session cred with
  | Ok () -> ()
  | Error e -> failwith ("issued credential rejected by own session: " ^ e));
  credentials_changed t;
  cred

(* A revoked fingerprint is remembered, so the same text cannot be
   submitted again. *)
let revoke_credential t ~peer ~fingerprint =
  match Session.find_credential t.store.session ~fingerprint with
  | None -> Error "no such credential"
  | Some a ->
    let authorizer = a.Assertion.authorizer in
    if
      Keynote.Ast.principal_equal peer authorizer
      || Keynote.Ast.principal_equal peer (server_principal t)
    then begin
      ignore (Session.remove_credential t.store.session ~fingerprint);
      t.store.revoked_fps <- fingerprint :: t.store.revoked_fps;
      credentials_changed t;
      Ok ()
    end
    else Error "only the credential's authorizer may revoke it"

let revoke_key t ~peer ~principal =
  if not (Keynote.Ast.principal_equal peer t.store.admin_principal) then
    Error "only the administrator may revoke keys"
  else begin
    t.store.revoked_keys <- principal :: t.store.revoked_keys;
    ignore (Session.remove_authored t.store.session ~authorizer:principal);
    credentials_changed t;
    Ok ()
  end

(* --- construction ---------------------------------------------------- *)

let create ~fs ~store ~server_key ~drbg ?(cache_size = 128) ?hour ?(strict_handles = false) () =
  let clock = Ffs.Fs.clock fs in
  let hour =
    match hour with
    | Some f -> f
    | None -> fun () -> int_of_float (Clock.now clock /. 3600.) mod 24
  in
  let cache = Policy_cache.create ~stats:(Ffs.Fs.stats fs) ~size:cache_size in
  let t =
    {
      fs;
      nfs = Nfs.Server.create ~fs ();
      store;
      cache;
      server_key;
      drbg;
      hour;
      strict_handles;
      peer_ids = Hashtbl.create 16;
      audit = [];
      audit_len = 0;
    }
  in
  Nfs.Server.set_hooks t.nfs
    {
      Nfs.Server.authorize = (fun ~conn ~fh ~op -> authorize t ~conn ~fh ~op);
      present_attr = (fun ~conn attr -> present_attr t ~conn attr);
      rights = (fun ~conn ~fh -> query_level t ~peer:conn.Rpc.peer ~ino:fh.Proto.ino);
    };
  t

let restart t ~drbg =
  let t' =
    create ~fs:t.fs ~store:t.store ~server_key:t.server_key ~drbg
      ~cache_size:(Policy_cache.capacity t.cache) ~hour:t.hour
      ~strict_handles:t.strict_handles ()
  in
  t'.audit <- t.audit;
  t'.audit_len <- t.audit_len;
  t'

(* --- the DisCFS RPC program ------------------------------------------ *)

let ok_reply e body =
  Xdr.Enc.uint32 e 0;
  body e;
  Ok ()

let err_reply e msg =
  Xdr.Enc.uint32 e 1;
  Xdr.Enc.string e msg;
  Ok ()

(* Literal span names, so naming a known procedure's span allocates
   nothing, traced or not. *)
let discfs_span_name proc =
  if proc = discfsproc_submit then "discfs.submit"
  else if proc = discfsproc_create then "discfs.create"
  else if proc = discfsproc_mkdir then "discfs.mkdir"
  else if proc = discfsproc_revoke_cred then "discfs.revoke_cred"
  else if proc = discfsproc_revoke_key then "discfs.revoke_key"
  else "discfs." ^ string_of_int proc

let handle_discfs t ~conn ~proc ~args:d e =
  let ok_reply = ok_reply e and err_reply = err_reply e in
  if proc = 0 then Ok ()
  else
  Trace.span (trace t) (discfs_span_name proc) @@ fun () ->
  if proc = discfsproc_submit then begin
    let text = Xdr.Dec.string d in
    match submit_credential t text with
    | Ok fp -> ok_reply (fun e -> Xdr.Enc.string e fp)
    | Error msg -> err_reply msg
  end
  else if proc = discfsproc_create || proc = discfsproc_mkdir then begin
    let fh = Proto.fh_decode d in
    let name = Xdr.Dec.string d in
    let sattr = Proto.sattr_decode d in
    match authorize t ~conn ~fh ~op:Nfs.Server.Create with
    | Error status -> err_reply (Proto.status_to_string status)
    | Ok () -> (
      let perms = match sattr.Proto.s_mode with Some m -> m land 0o7777 | None -> 0o644 in
      let make = if proc = discfsproc_create then Ffs.Fs.create_file else Ffs.Fs.mkdir in
      match make t.fs fh.Proto.ino name ~perms ~uid:conn.Rpc.uid with
      | exception Ffs.Fs.Error (e, _) -> err_reply (Ffs.Fs.error_to_string e)
      | ino ->
        let cred = issue_create_credential t ~peer:conn.Rpc.peer ~ino ~name in
        ok_reply (fun e ->
            Proto.fh_encode e { Proto.ino; gen = Ffs.Fs.generation t.fs ino };
            Proto.fattr_encode e (Nfs.Server.fattr_of_ino t.nfs ino);
            Xdr.Enc.string e (Assertion.to_text cred)))
  end
  else if proc = discfsproc_revoke_cred then begin
    let fingerprint = Xdr.Dec.string d in
    match revoke_credential t ~peer:conn.Rpc.peer ~fingerprint with
    | Ok () -> ok_reply (fun _ -> ())
    | Error msg -> err_reply msg
  end
  else if proc = discfsproc_revoke_key then begin
    let principal = Xdr.Dec.string d in
    match revoke_key t ~peer:conn.Rpc.peer ~principal with
    | Ok () -> ok_reply (fun _ -> ())
    | Error msg -> err_reply msg
  end
  else Error Rpc.Proc_unavail

let attach_rpc t rpc_server =
  Nfs.Server.attach t.nfs rpc_server;
  Rpc.register rpc_server ~prog:discfs_prog ~vers:discfs_vers (handle_discfs t)

(* --- persistence ------------------------------------------------------ *)

(* Tagged sections follow the audit trail, read when present. Without
   revoked fingerprints the state is in the format that predates them. *)
let revoked_fps_section = 1

let save_state t =
  let e = Xdr.Enc.create () in
  let strings l =
    Xdr.Enc.uint32 e (List.length l);
    List.iter (Xdr.Enc.string e) l
  in
  strings (List.map Assertion.to_text (Session.credentials t.store.session));
  strings t.store.revoked_keys;
  (* The audit trail is part of stable state: a crash must not erase
     the record of what was granted before it. *)
  Xdr.Enc.uint32 e (List.length t.audit);
  List.iter
    (fun a ->
      Xdr.Enc.uint64 e (Int64.bits_of_float a.au_time);
      Xdr.Enc.string e a.au_peer;
      Xdr.Enc.string e a.au_op;
      Xdr.Enc.uint32 e a.au_ino;
      Xdr.Enc.string e a.au_value;
      Xdr.Enc.uint32 e (if a.au_granted then 1 else 0))
    t.audit;
  if t.store.revoked_fps <> [] then begin
    Xdr.Enc.uint32 e revoked_fps_section;
    strings t.store.revoked_fps
  end;
  Xdr.Enc.to_string e

let decode_state data =
  let d = Xdr.Dec.of_string data in
  let strings () = List.init (Xdr.Dec.uint32 d) (fun _ -> Xdr.Dec.string d) in
  let creds = strings () in
  let revoked_keys = strings () in
  let naudit = if Xdr.Dec.remaining d > 0 then Xdr.Dec.uint32 d else 0 in
  let audit =
    List.init naudit (fun _ ->
        let au_time = Int64.float_of_bits (Xdr.Dec.uint64 d) in
        let au_peer = Xdr.Dec.string d in
        let au_op = Xdr.Dec.string d in
        let au_ino = Xdr.Dec.uint32 d in
        let au_value = Xdr.Dec.string d in
        let au_granted = Xdr.Dec.uint32 d = 1 in
        { au_time; au_peer; au_op; au_ino; au_value; au_granted })
  in
  let revoked_fps =
    if Xdr.Dec.remaining d = 0 then []
    else if Xdr.Dec.uint32 d = revoked_fps_section then strings ()
    else raise (Xdr.Decode_error "unknown state section")
  in
  Xdr.Dec.expect_end d;
  (creds, revoked_keys, audit, revoked_fps)

(* Everything is decoded and vetted before anything is applied. *)
let load_state t data =
  match decode_state data with
  | exception Xdr.Decode_error m -> Error ("corrupt state: " ^ m)
  | texts, keys, audit, fps -> (
    let revoked_keys = keys @ t.store.revoked_keys in
    let revoked_fps = fps @ t.store.revoked_fps in
    let rec vet_all = function
      | [] -> Ok []
      | text :: rest -> (
        match vet ~revoked_keys ~revoked_fps text with
        | Error e -> Error e
        | Ok a when not (Assertion.verify a) -> Error "credential signature verification failed"
        | Ok a -> Result.map (List.cons a) (vet_all rest))
    in
    vet_all texts
    |> Result.map (fun creds ->
           let s = t.store in
           s.revoked_keys <- revoked_keys;
           s.revoked_fps <- revoked_fps;
           List.iter (fun a -> ignore (Session.add_credential s.session a)) creds;
           t.audit <- audit;
           t.audit_len <- List.length audit;
           credentials_changed t;
           List.length creds))
