(* admit: a closed loop of onboardings, one user at a time, against
   four frontends.

   Each onboarding generates a key, has the administrator issue
   per-handle credentials for two files owned by different frontends,
   attaches to the home frontend, submits both credentials, reads both
   files (the second forces a lazy attach with credential replay) and
   must then be refused a file it was never granted. Every 16th user
   also submits a tampered copy of its credential, which must be
   refused. The credential store grows for the whole run. *)

open Fixture

let pool_files = 64
let window = 128
let cache_blocks = 4096

type t = {
  cluster : Cluster.t;
  by_owner : (Nfs.Proto.fh * string) array array;  (** files (handle, contents) per owner *)
  drbg : Dcrypto.Drbg.t;
  rng : Random.State.t;
  mutable users : int;
  mutable delivered : int;  (** file bytes read back by granted reads *)
}

let setup ~seed ~spans ~tracing =
  let cluster =
    Meter.span spans "setup.cluster" (fun () -> make_cluster ~tracing ~cache_blocks)
  in
  let rng = rng ~workload:"admit" ~seed in
  let files =
    Meter.span spans "setup.fs_build" (fun () ->
        let fs = Cluster.fs cluster in
        let pool = mkdir fs ~dir:(Fs.root fs) "pool" in
        List.init pool_files (fun i ->
            let content = String.init (2048 + Random.State.int rng 4097) (fun _ ->
                Char.chr (32 + Random.State.int rng 95)) in
            (add_file fs ~dir:pool (Printf.sprintf "p%03d" i) content, content)))
  in
  let by_owner =
    Array.init servers (fun s ->
        Array.of_list (List.filter (fun (fh, _) -> owner cluster fh = s) files))
  in
  Array.iteri
    (fun s a -> if Array.length a < 2 then Report.fail "admit: frontend %d owns %d files" s (Array.length a))
    by_owner;
  { cluster; by_owner; drbg = drbg ~workload:"admit" ~seed; rng; users = 0; delivered = 0 }

let pick st s = st.by_owner.(s).(Random.State.int st.rng (Array.length st.by_owner.(s)))

let replace_all ~sub ~by s =
  let n = String.length sub in
  let b = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let read_check st cc (fh, content) =
  let data = CC.read_whole cc fh ~size:(String.length content) in
  if not (String.equal data content) then Report.fail "admit: granted read returned wrong data";
  st.delivered <- st.delivered + String.length data

(* One onboarding; returns its virtual latency. *)
let onboard_one st ~spans =
  let c = st.cluster in
  let u = st.users in
  st.users <- u + 1;
  let home = u mod servers in
  let a = pick st home in
  let b = pick st ((home + 1 + Random.State.int st.rng (servers - 1)) mod servers) in
  let rec ungranted () =
    let d = pick st home in
    if (fst d).Nfs.Proto.ino = (fst a).Nfs.Proto.ino then ungranted () else d
  in
  let d = ungranted () in
  let v0 = vnow c in
  let issue identity =
    List.map
      (fun (fh, _) ->
        Cluster.admin_issue c ~licensees:(licensee identity)
          ~conditions:(grant ~inos:[ fh.Nfs.Proto.ino ] "R") ())
      [ a; b ]
  in
  let cc, creds = onboard ?spans c ~drbg:st.drbg ~uid:(1000 + u) ~home ~issue in
  Meter.span spans "first_read" (fun () ->
      read_check st cc a;
      read_check st cc b);
  (if u mod 16 = 15 then
     let text = Keynote.Assertion.to_text (List.hd creds) in
     let forged =
       replace_all
         ~sub:(Printf.sprintf "HANDLE == \"%d\"" (fst a).Nfs.Proto.ino)
         ~by:(Printf.sprintf "HANDLE == \"%d\"" (fst d).Nfs.Proto.ino)
         text
     in
     if String.equal forged text then Report.fail "admit: tamper left the credential unchanged";
     match CC.submit_credential_text cc forged with
     | Ok _ -> Report.fail "admit: uid %d: tampered credential accepted" (1000 + u)
     | Error _ -> ());
  Meter.span spans "deny" (fun () ->
      if not (is_denied (fun () -> CC.read cc (fst d) ~off:0 ~count:512)) then
        Report.fail "admit: uid %d read a file it was never granted" (1000 + u));
  CC.detach cc;
  vnow c -. v0

(* The loop runs as one scheduler process, so the frontends' worker
   pools serve it exactly as they serve concurrent clients. *)
let run ?(window = window) st ~spans ~seconds ~window_only =
  let c = st.cluster in
  let w = open_windows c in
  let bytes0 = st.delivered in
  let vlat = ref [] and ops = ref 0 and closed = ref None in
  Simnet.Sched.spawn (sched c) (fun () ->
      while !ops < window || ((not window_only) && not (wall_spent w ~seconds)) do
        let lat = onboard_one st ~spans in
        incr ops;
        completed w;
        if !ops <= window then vlat := lat :: !vlat;
        if !ops = window then
          closed := Some (close_window c w ~vlat:!vlat ~file_bytes:(st.delivered - bytes0))
      done);
  Simnet.Sched.run (sched c);
  finish w ~window:!closed
