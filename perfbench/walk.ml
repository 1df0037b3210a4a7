(* walk: a closed loop of readers delivering a source tree.

   Eight readers on four frontends, each holding a two-link delegated
   chain (administrator -> group key -> reader), walk a 16 x 24-file
   tree with READDIRPLUS and whole-file MULTI_READ and count lines,
   words and bytes as wc would. An op is one file delivered; the
   directory listings are part of the pass, so an op's latency is the
   virtual time since the reader's previous delivery. The tree (about
   2.3 MB, 384 x 3-9 KB) fits the 4096-block buffer cache, while the
   3072 (reader, file) pairs overflow the 128-entry policy memo. *)

open Fixture

let dirs = 16
let files_per_dir = 24
let readers = 8
let cache_blocks = 4096
let window_passes = 2

type file = { fh : Nfs.Proto.fh; content : string }

type wc = { mutable lines : int; mutable words : int; mutable bytes : int }

type t = {
  cluster : Cluster.t;
  tree : (string, file) Hashtbl.t;  (** "dNN/fNN.c" -> file *)
  expect : wc;  (** wc totals of the whole tree *)
  conns : CC.t array;
}

let vocabulary =
  [| "let"; "in"; "match"; "with"; "fun"; "type"; "module"; "struct"; "end"; "if"; "then";
     "else"; "acc"; "x"; "xs"; "List.fold_left"; "String.length"; "="; "->"; "|"; "(*"; "*)";
     "Some"; "None"; "begin"; "()"; "::"; "[]" |]

let source rng size =
  let b = Buffer.create (size + 64) in
  while Buffer.length b < size do
    for i = 0 to Random.State.int rng 10 do
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b vocabulary.(Random.State.int rng (Array.length vocabulary))
    done;
    Buffer.add_char b '\n'
  done;
  Buffer.sub b 0 size

let wc_add acc s =
  let in_word = ref false in
  String.iter
    (fun ch ->
      if ch = '\n' then acc.lines <- acc.lines + 1;
      let blank = ch = ' ' || ch = '\n' || ch = '\t' in
      if (not blank) && not !in_word then acc.words <- acc.words + 1;
      in_word := not blank)
    s;
  acc.bytes <- acc.bytes + String.length s

let dir_name d = Printf.sprintf "d%02d" d
let file_name f = Printf.sprintf "f%02d.c" f

let setup ~seed ~spans ~tracing =
  let cluster = Meter.span spans "setup.cluster" (fun () -> make_cluster ~tracing ~cache_blocks) in
  let rng = rng ~workload:"walk" ~seed in
  let tree = Hashtbl.create (dirs * files_per_dir) in
  let expect = { lines = 0; words = 0; bytes = 0 } in
  Meter.span spans "setup.fs_build" (fun () ->
      let fs = Cluster.fs cluster in
      let src = mkdir fs ~dir:(Fs.root fs) "src" in
      for d = 0 to dirs - 1 do
        let dir = mkdir fs ~dir:src (dir_name d) in
        for f = 0 to files_per_dir - 1 do
          let content = source rng (3072 + Random.State.int rng 6145) in
          let fh = add_file fs ~dir (file_name f) content in
          wc_add expect content;
          Hashtbl.replace tree (dir_name d ^ "/" ^ file_name f) { fh; content }
        done
      done);
  let drbg = drbg ~workload:"walk" ~seed in
  let conns =
    Meter.span spans "setup.attach" (fun () ->
        let group = Dsa.generate_key drbg in
        let to_group =
          Cluster.admin_issue cluster ~licensees:(licensee group)
            ~conditions:"app_domain == \"DisCFS\" -> \"R\";" ()
        in
        Array.init readers (fun r ->
            let issue reader =
              [ to_group;
                Keynote.Assertion.issue ~key:group ~drbg ~licensees:(licensee reader)
                  ~conditions:"app_domain == \"DisCFS\" -> \"R\";" () ]
            in
            fst (onboard cluster ~drbg ~uid:(2000 + r) ~home:(r mod servers) ~issue)))
  in
  { cluster; tree; expect; conns }

let entries cc fh =
  List.filter
    (fun (e : Nfs.Proto.direntplus) -> e.p_name <> "." && e.p_name <> "..")
    (CC.readdirplus cc fh)
  |> List.sort (fun (a : Nfs.Proto.direntplus) b -> String.compare a.p_name b.p_name)

let find cc dir name =
  match List.find_opt (fun (e : Nfs.Proto.direntplus) -> e.p_name = name) (entries cc dir) with
  | Some e -> e.p_fh
  | None -> Report.fail "walk: %s missing from listing" name

(* One reader's pass over the tree, starting at its own directory so
   the readers spread over the shards. Every delivered file must equal
   the file that was built, and the pass's wc totals the tree's. *)
let reader_pass st r ~on_file =
  let cc = st.conns.(r) in
  let src = find cc (CC.root cc) "src" in
  let subdirs = Array.of_list (entries cc src) in
  if Array.length subdirs <> dirs then Report.fail "walk: src lists %d dirs" (Array.length subdirs);
  let got = { lines = 0; words = 0; bytes = 0 } in
  for i = 0 to dirs - 1 do
    let d = subdirs.((i + (2 * r)) mod dirs) in
    List.iter
      (fun (e : Nfs.Proto.direntplus) ->
        let data = CC.read_whole cc e.p_fh ~size:e.p_attr.Nfs.Proto.size in
        let key = d.p_name ^ "/" ^ e.p_name in
        (match Hashtbl.find_opt st.tree key with
        | Some f when String.equal f.content data -> ()
        | _ -> Report.fail "walk: reader %d got wrong contents for %s" r key);
        wc_add got data;
        on_file (String.length data))
      (entries cc d.p_fh)
  done;
  if got.lines <> st.expect.lines || got.words <> st.expect.words || got.bytes <> st.expect.bytes
  then
    Report.fail "walk: reader %d wc %d %d %d, tree has %d %d %d" r got.lines got.words got.bytes
      st.expect.lines st.expect.words st.expect.bytes

(* All readers once over the tree, concurrently; returns per-file
   latencies (virtual time since the reader's previous delivery) and
   bytes delivered. *)
let pass ?(on_op = ignore) st =
  let c = st.cluster in
  let lats = ref [] and bytes = ref 0 in
  for r = 0 to readers - 1 do
    Simnet.Sched.spawn (sched c) (fun () ->
        let last = ref (vnow c) in
        reader_pass st r ~on_file:(fun n ->
            let now = vnow c in
            lats := (now -. !last) :: !lats;
            last := now;
            bytes := !bytes + n;
            on_op ()))
  done;
  Simnet.Sched.run (sched c);
  (!lats, !bytes)

let warm st ~spans = Meter.span spans "setup.warm" (fun () -> ignore (pass st))

let run st ~seconds ~window_only =
  let w = open_windows st.cluster in
  let vlat = ref [] and file_bytes = ref 0 and window = ref None in
  let passes = ref 0 in
  while !passes < window_passes || ((not window_only) && not (wall_spent w ~seconds)) do
    let lats, bytes = pass st ~on_op:(fun () -> completed w) in
    incr passes;
    if !passes <= window_passes then begin
      vlat := lats @ !vlat;
      file_bytes := !file_bytes + bytes
    end;
    if !passes = window_passes then
      window := Some (close_window st.cluster w ~vlat:!vlat ~file_bytes:!file_bytes)
  done;
  finish w ~window:!window
