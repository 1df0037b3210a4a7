module Clock = Simnet.Clock
module Stats = Simnet.Stats

type error =
  | ENOENT
  | ENOTDIR
  | EISDIR
  | EEXIST
  | ENOSPC
  | ENOTEMPTY
  | EFBIG
  | EINVAL
  | ESTALE
  | ENAMETOOLONG

exception Error of error * string

let error_to_string = function
  | ENOENT -> "no such file or directory"
  | ENOTDIR -> "not a directory"
  | EISDIR -> "is a directory"
  | EEXIST -> "file exists"
  | ENOSPC -> "no space left on device"
  | ENOTEMPTY -> "directory not empty"
  | EFBIG -> "file too large"
  | EINVAL -> "invalid argument"
  | ESTALE -> "stale file handle"
  | ENAMETOOLONG -> "name too long"

let err e fmt = Printf.ksprintf (fun msg -> raise (Error (e, msg))) fmt

(* Pointer-block cache: real FFS keeps indirect blocks in the buffer
   cache, so repeated updates to the same pointer block cost one read
   on first touch and one write-back, not one I/O per update. The
   write-back charged on dirtying carries placeholder bytes, so the
   cached pointers are the authoritative copy until [flush_metadata].
   A [cold] entry survived a {!reboot}: its pointers are current, but
   its next touch pays the disk read a freshly booted server would. *)
type ptr_block = { ptrs : int array; mutable dirty : bool; mutable cold : bool }

type t = {
  dev : Blockdev.t;
  inodes : Inode.t array;
  block_used : Bytes.t; (* bitmap *)
  mutable block_cursor : int;
  mutable inode_cursor : int;
  mutable free_blocks : int;
  mutable free_inodes : int;
  ptr_cache : (int, ptr_block) Hashtbl.t;
  root : int;
  zero : string; (* one block of zeros: what every hole reads as *)
}

let root t = t.root
let clock t = Blockdev.clock t.dev
let stats t = Blockdev.stats t.dev
let trace t = Blockdev.trace t.dev
let block_size t = Blockdev.block_size t.dev
let now t = Clock.now (clock t)

let n_direct = Inode.n_direct
let first_ino = 2 (* 0 invalid, 1 reserved, 2 = root, like FFS *)

(* --- block allocation ----------------------------------------------- *)

let block_is_used t i = Bytes.get t.block_used i <> '\000'
let set_block_used t i v = Bytes.set t.block_used i (if v then '\001' else '\000')

let alloc_block t =
  if t.free_blocks = 0 then err ENOSPC "volume full";
  let n = Blockdev.nblocks t.dev in
  let rec scan i remaining =
    if remaining = 0 then err ENOSPC "volume full"
    else if block_is_used t i then scan ((i + 1) mod n) (remaining - 1)
    else i
  in
  let b = scan t.block_cursor n in
  set_block_used t b true;
  t.block_cursor <- (b + 1) mod n;
  t.free_blocks <- t.free_blocks - 1;
  b

let free_block t b =
  if b > 0 && block_is_used t b then begin
    set_block_used t b false;
    Hashtbl.remove t.ptr_cache b;
    t.free_blocks <- t.free_blocks + 1
  end

(* --- pointer blocks -------------------------------------------------- *)

let ptrs_per_block t = block_size t / 4

let load_ptr_block t b =
  match Hashtbl.find_opt t.ptr_cache b with
  | Some pb when not pb.cold -> pb
  | Some pb ->
    ignore (Blockdev.read t.dev b);
    pb.cold <- false;
    pb
  | None -> (
    let raw = Blockdev.read t.dev b in
    (* The read yields under a scheduler: a process that missed on the
       same block may have installed it meanwhile, and updated it.
       Theirs wins; this decode is stale. *)
    match Hashtbl.find_opt t.ptr_cache b with
    | Some pb -> pb
    | None ->
      let n = ptrs_per_block t in
      let ptrs = Array.make n 0 in
      for i = 0 to n - 1 do
        ptrs.(i) <-
          (Char.code (Bytes.get raw (4 * i)) lsl 24)
          lor (Char.code (Bytes.get raw ((4 * i) + 1)) lsl 16)
          lor (Char.code (Bytes.get raw ((4 * i) + 2)) lsl 8)
          lor Char.code (Bytes.get raw ((4 * i) + 3))
      done;
      let pb = { ptrs; dirty = false; cold = false } in
      Hashtbl.replace t.ptr_cache b pb;
      pb)

let set_ptr t b idx v =
  let pb = load_ptr_block t b in
  pb.ptrs.(idx) <- v;
  if not pb.dirty then begin
    (* Charge the eventual write-back once per dirtying. *)
    pb.dirty <- true;
    let raw = Bytes.make (block_size t) '\000' in
    Blockdev.write t.dev b raw
  end

let get_ptr t b idx = (load_ptr_block t b).ptrs.(idx)

(* --- inodes ----------------------------------------------------------- *)

let get_inode t ino =
  if ino < first_ino || ino >= Array.length t.inodes then err ESTALE "inode %d out of range" ino;
  let i = t.inodes.(ino) in
  if not i.Inode.allocated then err ESTALE "inode %d not allocated" ino;
  i

let alloc_inode t =
  if t.free_inodes = 0 then err ENOSPC "out of inodes";
  let n = Array.length t.inodes in
  let rec scan i remaining =
    if remaining = 0 then err ENOSPC "out of inodes"
    else if t.inodes.(i).Inode.allocated then scan (max first_ino ((i + 1) mod n)) (remaining - 1)
    else i
  in
  let ino = scan t.inode_cursor n in
  t.inode_cursor <- max first_ino ((ino + 1) mod n);
  t.free_inodes <- t.free_inodes - 1;
  let i = t.inodes.(ino) in
  i.Inode.allocated <- true;
  i.Inode.gen <- i.Inode.gen + 1;
  i.Inode.size <- 0;
  i.Inode.nlink <- 0;
  i.Inode.direct <- Array.make n_direct Inode.unallocated;
  i.Inode.indirect <- Inode.unallocated;
  i.Inode.double_indirect <- Inode.unallocated;
  let time = now t in
  i.Inode.atime <- time;
  i.Inode.mtime <- time;
  i.Inode.ctime <- time;
  i

(* Map a file-relative block number to a device block; [alloc] grows
   the file. Returns 0 for unallocated holes when not allocating. *)
let bmap t (i : Inode.t) fblock ~alloc =
  let ppb = ptrs_per_block t in
  if fblock < 0 then err EINVAL "negative file block";
  if fblock < n_direct then begin
    let b = i.Inode.direct.(fblock) in
    if b <> Inode.unallocated then b
    else if not alloc then 0
    else begin
      let b = alloc_block t in
      i.Inode.direct.(fblock) <- b;
      b
    end
  end
  else if fblock < n_direct + ppb then begin
    let idx = fblock - n_direct in
    if i.Inode.indirect = Inode.unallocated && alloc then i.Inode.indirect <- alloc_block t;
    if i.Inode.indirect = Inode.unallocated then 0
    else begin
      let b = get_ptr t i.Inode.indirect idx in
      if b <> 0 then b
      else if not alloc then 0
      else begin
        let b = alloc_block t in
        set_ptr t i.Inode.indirect idx b;
        b
      end
    end
  end
  else if fblock < n_direct + ppb + (ppb * ppb) then begin
    let idx = fblock - n_direct - ppb in
    let outer = idx / ppb and inner = idx mod ppb in
    if i.Inode.double_indirect = Inode.unallocated && alloc then
      i.Inode.double_indirect <- alloc_block t;
    if i.Inode.double_indirect = Inode.unallocated then 0
    else begin
      let mid = get_ptr t i.Inode.double_indirect outer in
      let mid =
        if mid <> 0 then mid
        else if not alloc then 0
        else begin
          let b = alloc_block t in
          set_ptr t i.Inode.double_indirect outer b;
          b
        end
      in
      if mid = 0 then 0
      else begin
        let b = get_ptr t mid inner in
        if b <> 0 then b
        else if not alloc then 0
        else begin
          let b = alloc_block t in
          set_ptr t mid inner b;
          b
        end
      end
    end
  end
  else err EFBIG "file block %d beyond double-indirect range" fblock

(* --- raw file data I/O ------------------------------------------------ *)

(* The one read core: the range as pieces [(block, off, len)] in file
   order, each a range of an immutable block — the device's shared
   block ({!Blockdev.read_shared}: the store's and the cache's own),
   or the zero block for a hole. Nothing is copied; every block is
   read (and charged, and may yield) in order before the caller
   sees any piece. *)
let read_pieces_raw t (i : Inode.t) ~off ~len =
  if off < 0 || len < 0 then err EINVAL "negative offset or length";
  let len = max 0 (min len (i.Inode.size - off)) in
  if len = 0 then []
  else begin
    let bs = block_size t in
    let stop = off + len in
    let rec go pos =
      if pos >= stop then []
      else begin
        let boff = pos mod bs in
        let n = min (bs - boff) (stop - pos) in
        let b = bmap t i (pos / bs) ~alloc:false in
        let piece =
          if b = 0 then (t.zero, boff, n)
          else (Bytes.unsafe_to_string (Blockdev.read_shared t.dev b), boff, n)
        in
        piece :: go (pos + n)
      end
    in
    let pieces = go off in
    i.Inode.atime <- now t;
    pieces
  end

(* The core plus one copy: the result is allocated once at its exact
   size and each piece is blitted into it. *)
let concat_pieces = function
  | [] -> ""
  | pieces ->
    let buf = Bytes.create (List.fold_left (fun n (_, _, len) -> n + len) 0 pieces) in
    ignore
      (List.fold_left
         (fun at (src, off, len) ->
           Bytes.blit_string src off buf at len;
           at + len)
         0 pieces);
    Bytes.unsafe_to_string buf

let read_raw t i ~off ~len = concat_pieces (read_pieces_raw t i ~off ~len)

let write_raw t (i : Inode.t) ~off src ~src_off ~len =
  if off < 0 then err EINVAL "negative offset";
  let bs = block_size t in
  let pos = ref 0 in
  while !pos < len do
    let abs = off + !pos in
    let fblock = abs / bs and boff = abs mod bs in
    let n = min (bs - boff) (len - !pos) in
    let b = bmap t i fblock ~alloc:true in
    Blockdev.write_sub t.dev b ~off:boff src ~src_off:(src_off + !pos) ~len:n;
    pos := !pos + n
  done;
  if off + len > i.Inode.size then i.Inode.size <- off + len;
  let time = now t in
  i.Inode.mtime <- time;
  i.Inode.ctime <- time

let truncate_inode t (i : Inode.t) new_size =
  if new_size < 0 then err EINVAL "negative size";
  if new_size < i.Inode.size then begin
    let bs = block_size t in
    (* Zero the tail of the last kept block, or later re-extension
       (sparse setattr / write beyond EOF) would resurrect stale
       bytes. *)
    let boff = new_size mod bs in
    if boff <> 0 then begin
      let b = bmap t i (new_size / bs) ~alloc:false in
      if b <> 0 then begin
        let raw = Blockdev.read t.dev b in
        Bytes.fill raw boff (bs - boff) '\000';
        Blockdev.write t.dev b raw
      end
    end;
    let keep_blocks = (new_size + bs - 1) / bs in
    let total_blocks = (i.Inode.size + bs - 1) / bs in
    let ppb = ptrs_per_block t in
    for fb = keep_blocks to total_blocks - 1 do
      let b = bmap t i fb ~alloc:false in
      if b <> 0 then begin
        free_block t b;
        if fb < n_direct then i.Inode.direct.(fb) <- Inode.unallocated
        else if fb < n_direct + ppb then set_ptr t i.Inode.indirect (fb - n_direct) 0
        else begin
          let idx = fb - n_direct - ppb in
          let mid = get_ptr t i.Inode.double_indirect (idx / ppb) in
          if mid <> 0 then set_ptr t mid (idx mod ppb) 0
        end
      end
    done;
    (* Free now-empty pointer blocks. *)
    if keep_blocks <= n_direct && i.Inode.indirect <> Inode.unallocated then begin
      free_block t i.Inode.indirect;
      i.Inode.indirect <- Inode.unallocated
    end;
    if keep_blocks <= n_direct + ppb && i.Inode.double_indirect <> Inode.unallocated then begin
      let outer_keep =
        if keep_blocks <= n_direct + ppb then 0 else (keep_blocks - n_direct - ppb + ppb - 1) / ppb
      in
      for o = outer_keep to ppb - 1 do
        let mid = get_ptr t i.Inode.double_indirect o in
        if mid <> 0 then begin
          free_block t mid;
          set_ptr t i.Inode.double_indirect o 0
        end
      done;
      if outer_keep = 0 then begin
        free_block t i.Inode.double_indirect;
        i.Inode.double_indirect <- Inode.unallocated
      end
    end
  end;
  i.Inode.size <- new_size;
  i.Inode.ctime <- now t

let free_inode t (i : Inode.t) =
  truncate_inode t i 0;
  i.Inode.allocated <- false;
  t.free_inodes <- t.free_inodes + 1

(* --- directory entries ------------------------------------------------ *)

(* Serialized entry: [u16 name length][name bytes][u32 inode]. *)

let check_name name =
  let n = String.length name in
  if n = 0 then err EINVAL "empty name";
  if n > 255 then err ENAMETOOLONG "%s" name;
  if String.contains name '/' then err EINVAL "name contains '/': %s" name

let dir_entries t (i : Inode.t) =
  let data = read_raw t i ~off:0 ~len:i.Inode.size in
  let entries = ref [] in
  let pos = ref 0 in
  let len = String.length data in
  while !pos + 2 <= len do
    let nlen = (Char.code data.[!pos] lsl 8) lor Char.code data.[!pos + 1] in
    if !pos + 2 + nlen + 4 > len then err EINVAL "corrupt directory %d" i.Inode.ino;
    let name = String.sub data (!pos + 2) nlen in
    let base = !pos + 2 + nlen in
    let ino =
      (Char.code data.[base] lsl 24)
      lor (Char.code data.[base + 1] lsl 16)
      lor (Char.code data.[base + 2] lsl 8)
      lor Char.code data.[base + 3]
    in
    entries := (name, ino) :: !entries;
    pos := base + 4
  done;
  List.rev !entries

let write_dir_entries t (i : Inode.t) entries =
  let buf = Buffer.create 256 in
  List.iter
    (fun (name, ino) ->
      let n = String.length name in
      Buffer.add_char buf (Char.chr (n lsr 8));
      Buffer.add_char buf (Char.chr (n land 0xff));
      Buffer.add_string buf name;
      Buffer.add_char buf (Char.chr ((ino lsr 24) land 0xff));
      Buffer.add_char buf (Char.chr ((ino lsr 16) land 0xff));
      Buffer.add_char buf (Char.chr ((ino lsr 8) land 0xff));
      Buffer.add_char buf (Char.chr (ino land 0xff)))
    entries;
  let data = Buffer.contents buf in
  truncate_inode t i 0;
  write_raw t i ~off:0 data ~src_off:0 ~len:(String.length data)

let as_dir t ino =
  let i = get_inode t ino in
  if i.Inode.kind <> Inode.Dir then err ENOTDIR "inode %d" ino;
  i

let dir_lookup t dir name =
  let entries = dir_entries t dir in
  match List.assoc_opt name entries with
  | Some ino -> ino
  | None -> err ENOENT "%s" name

let dir_add t dir name ino =
  let entries = dir_entries t dir in
  if List.mem_assoc name entries then err EEXIST "%s" name;
  write_dir_entries t dir (entries @ [ (name, ino) ])

let dir_remove t dir name =
  let entries = dir_entries t dir in
  if not (List.mem_assoc name entries) then err ENOENT "%s" name;
  write_dir_entries t dir (List.remove_assoc name entries)

(* --- public operations ------------------------------------------------ *)

let create ~dev ~ninodes =
  if ninodes < first_ino + 1 then invalid_arg "Fs.create: too few inodes";
  let nblocks = Blockdev.nblocks dev in
  let t =
    {
      dev;
      inodes = Array.init ninodes Inode.fresh;
      block_used = Bytes.make nblocks '\000';
      block_cursor = 1;
      inode_cursor = first_ino;
      free_blocks = nblocks - 1 (* block 0 reserved for the superblock *);
      free_inodes = ninodes - first_ino;
      ptr_cache = Hashtbl.create 64;
      root = first_ino;
      zero = String.make (Blockdev.block_size dev) '\000';
    }
  in
  set_block_used t 0 true;
  (* Root directory. *)
  let r = alloc_inode t in
  assert (r.Inode.ino = first_ino);
  r.Inode.kind <- Inode.Dir;
  r.Inode.perms <- 0o755;
  r.Inode.nlink <- 2;
  write_dir_entries t r [ (".", r.Inode.ino); ("..", r.Inode.ino) ];
  t

let getattr t ino = Inode.attr_of (get_inode t ino)

let setattr t ino ?perms ?uid ?gid ?size () =
  let i = get_inode t ino in
  (match perms with Some p -> i.Inode.perms <- p land 0o7777 | None -> ());
  (match uid with Some u -> i.Inode.uid <- u | None -> ());
  (match gid with Some g -> i.Inode.gid <- g | None -> ());
  (match size with
  | Some s ->
    if i.Inode.kind = Inode.Dir then err EISDIR "cannot truncate directory %d" ino;
    truncate_inode t i s
  | None -> ());
  i.Inode.ctime <- now t;
  Inode.attr_of i

let generation t ino = (get_inode t ino).Inode.gen

let valid_handle t ~ino ~gen =
  ino >= first_ino
  && ino < Array.length t.inodes
  && t.inodes.(ino).Inode.allocated
  && t.inodes.(ino).Inode.gen = gen

let read_pieces t ino ~off ~len =
  let i = get_inode t ino in
  if i.Inode.kind = Inode.Dir then err EISDIR "read on directory %d" ino;
  read_pieces_raw t i ~off ~len

let read t ino ~off ~len = concat_pieces (read_pieces t ino ~off ~len)

let write_sub t ino ~off src ~src_off ~len =
  if src_off < 0 || len < 0 || src_off > String.length src - len then
    invalid_arg "Fs.write_sub: bad source range";
  let i = get_inode t ino in
  if i.Inode.kind = Inode.Dir then err EISDIR "write on directory %d" ino;
  write_raw t i ~off src ~src_off ~len

let write t ino ~off data = write_sub t ino ~off data ~src_off:0 ~len:(String.length data)

let lookup t dino name =
  let dir = as_dir t dino in
  dir_lookup t dir name

let make_node t dino name kind ~perms ~uid =
  check_name name;
  let dir = as_dir t dino in
  (match dir_lookup t dir name with
  | _ -> err EEXIST "%s" name
  | exception Error (ENOENT, _) -> ());
  let i = alloc_inode t in
  i.Inode.kind <- kind;
  i.Inode.perms <- perms land 0o7777;
  i.Inode.uid <- uid;
  i.Inode.nlink <- (if kind = Inode.Dir then 2 else 1);
  dir_add t dir name i.Inode.ino;
  i.Inode.parent <- dino;
  i.Inode.pname <- name;
  if kind = Inode.Dir then begin
    write_dir_entries t i [ (".", i.Inode.ino); ("..", dino) ];
    dir.Inode.nlink <- dir.Inode.nlink + 1
  end;
  i.Inode.ino

let create_file t dino name ~perms ~uid = make_node t dino name Inode.Reg ~perms ~uid

let mkdir t dino name ~perms ~uid = make_node t dino name Inode.Dir ~perms ~uid

let symlink t dino name ~target ~uid =
  let ino = make_node t dino name Inode.Symlink ~perms:0o777 ~uid in
  let i = get_inode t ino in
  write_raw t i ~off:0 target ~src_off:0 ~len:(String.length target);
  ino

let readlink t ino =
  let i = get_inode t ino in
  if i.Inode.kind <> Inode.Symlink then err EINVAL "inode %d is not a symlink" ino;
  read_raw t i ~off:0 ~len:i.Inode.size

let link t dino name ~target =
  check_name name;
  let dir = as_dir t dino in
  let i = get_inode t target in
  if i.Inode.kind = Inode.Dir then err EISDIR "hard link to directory";
  dir_add t dir name target;
  i.Inode.nlink <- i.Inode.nlink + 1;
  i.Inode.ctime <- now t

let remove t dino name =
  check_name name;
  let dir = as_dir t dino in
  let ino = dir_lookup t dir name in
  let i = get_inode t ino in
  if i.Inode.kind = Inode.Dir then err EISDIR "%s is a directory (use rmdir)" name;
  dir_remove t dir name;
  i.Inode.nlink <- i.Inode.nlink - 1;
  if i.Inode.nlink <= 0 then free_inode t i

let rmdir t dino name =
  check_name name;
  if name = "." || name = ".." then err EINVAL "cannot rmdir %s" name;
  let dir = as_dir t dino in
  let ino = dir_lookup t dir name in
  let i = get_inode t ino in
  if i.Inode.kind <> Inode.Dir then err ENOTDIR "%s" name;
  let residents =
    List.filter (fun (n, _) -> n <> "." && n <> "..") (dir_entries t i)
  in
  if residents <> [] then err ENOTEMPTY "%s" name;
  dir_remove t dir name;
  dir.Inode.nlink <- dir.Inode.nlink - 1;
  i.Inode.nlink <- 0;
  free_inode t i

let rename t src_dino src_name dst_dino dst_name =
  check_name src_name;
  check_name dst_name;
  let src_dir = as_dir t src_dino in
  let dst_dir = as_dir t dst_dino in
  let ino = dir_lookup t src_dir src_name in
  let moving = get_inode t ino in
  (* Replace an existing destination if compatible. *)
  (match dir_lookup t dst_dir dst_name with
  | existing_ino ->
    if existing_ino = ino then ()
    else begin
      let existing = get_inode t existing_ino in
      match existing.Inode.kind, moving.Inode.kind with
      | Inode.Dir, Inode.Dir -> rmdir t dst_dino dst_name
      | Inode.Dir, _ -> err EISDIR "%s" dst_name
      | _, Inode.Dir -> err ENOTDIR "%s" dst_name
      | _ -> remove t dst_dino dst_name
    end
  | exception Error (ENOENT, _) -> ());
  dir_remove t src_dir src_name;
  dir_add t dst_dir dst_name ino;
  moving.Inode.parent <- dst_dino;
  moving.Inode.pname <- dst_name;
  if moving.Inode.kind = Inode.Dir && src_dino <> dst_dino then begin
    (* Re-point "..". *)
    let entries = dir_entries t moving in
    let entries = List.map (fun (n, i) -> if n = ".." then (n, dst_dino) else (n, i)) entries in
    write_dir_entries t moving entries;
    src_dir.Inode.nlink <- src_dir.Inode.nlink - 1;
    dst_dir.Inode.nlink <- dst_dir.Inode.nlink + 1
  end

let readdir t dino =
  let dir = as_dir t dino in
  dir_entries t dir

type fsstat = {
  f_block_size : int;
  f_total_blocks : int;
  f_free_blocks : int;
  f_total_inodes : int;
  f_free_inodes : int;
}

let statfs t =
  {
    f_block_size = block_size t;
    f_total_blocks = Blockdev.nblocks t.dev;
    f_free_blocks = t.free_blocks;
    f_total_inodes = Array.length t.inodes - first_ino;
    f_free_inodes = t.free_inodes;
  }

(* Every policy check asks for a path, so it is built in two climbs
   and one string: the first checks the parent chain and measures the
   path ("/" plus one "/name" per component, or -1 when there is no
   path), the second writes the names into place from the end. *)
let rec path_length t ino len depth =
  if depth > 64 then -1
  else if ino = t.root then Int.max len 1
  else begin
    match t.inodes.(ino) with
    | i when i.Inode.allocated && i.Inode.parent <> Inode.unallocated ->
      path_length t i.Inode.parent (len + 1 + String.length i.Inode.pname) (depth + 1)
    | _ -> -1
    | exception Invalid_argument _ -> -1
  end

let rec write_path t b ino pos =
  if ino <> t.root then begin
    let i = t.inodes.(ino) in
    let pos = pos - String.length i.Inode.pname in
    Bytes.blit_string i.Inode.pname 0 b pos (String.length i.Inode.pname);
    write_path t b i.Inode.parent (pos - 1)
  end

(* Canonical path of an inode via parent links. Hard links keep the
   path of their original name; [None] for orphaned or cyclic
   structures (should not happen through the public API). *)
let path_of t ino =
  if ino < first_ino || ino >= Array.length t.inodes || not t.inodes.(ino).Inode.allocated then
    None
  else begin
    let len = path_length t ino 0 0 in
    if len < 0 then None
    else begin
      let b = Bytes.make len '/' in
      write_path t b ino len;
      Some (Bytes.unsafe_to_string b)
    end
  end

let resolve t path =
  let parts = List.filter (fun s -> s <> "" && s <> ".") (String.split_on_char '/' path) in
  List.fold_left (fun ino name -> lookup t ino name) t.root parts

(* --- persistence ------------------------------------------------------ *)

exception Bad_image of string

let image_magic = "DISCFS-FFS-IMAGE-1"

let encode_ptr_block t ptrs =
  let raw = Bytes.make (block_size t) '\000' in
  Array.iteri
    (fun i v ->
      Bytes.set raw (4 * i) (Char.chr ((v lsr 24) land 0xff));
      Bytes.set raw ((4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
      Bytes.set raw ((4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
      Bytes.set raw ((4 * i) + 3) (Char.chr (v land 0xff)))
    ptrs;
  raw

let flush_metadata t =
  (* The pointer-block cache holds the authoritative copy of indirect
     blocks; push it to the device before snapshotting. *)
  Hashtbl.iter (fun b pb -> Blockdev.poke t.dev b (encode_ptr_block t pb.ptrs)) t.ptr_cache

let save t =
  flush_metadata t;
  let e = Xdr.Enc.create () in
  Xdr.Enc.string e image_magic;
  Xdr.Enc.uint32 e (block_size t);
  Xdr.Enc.uint32 e (Blockdev.nblocks t.dev);
  Xdr.Enc.uint32 e (Array.length t.inodes);
  Xdr.Enc.uint32 e t.block_cursor;
  Xdr.Enc.uint32 e t.inode_cursor;
  Xdr.Enc.uint32 e t.free_blocks;
  Xdr.Enc.uint32 e t.free_inodes;
  Xdr.Enc.opaque e (Bytes.to_string t.block_used);
  Array.iter
    (fun (i : Inode.t) ->
      Xdr.Enc.uint32 e (if i.Inode.allocated then 1 else 0);
      Xdr.Enc.uint32 e
        (match i.Inode.kind with Inode.Reg -> 0 | Inode.Dir -> 1 | Inode.Symlink -> 2);
      Xdr.Enc.uint32 e i.Inode.size;
      Xdr.Enc.uint32 e i.Inode.perms;
      Xdr.Enc.uint32 e i.Inode.uid;
      Xdr.Enc.uint32 e i.Inode.gid;
      Xdr.Enc.uint32 e i.Inode.nlink;
      Xdr.Enc.uint64 e (Int64.bits_of_float i.Inode.atime);
      Xdr.Enc.uint64 e (Int64.bits_of_float i.Inode.mtime);
      Xdr.Enc.uint64 e (Int64.bits_of_float i.Inode.ctime);
      Xdr.Enc.uint32 e i.Inode.gen;
      Array.iter (fun v -> Xdr.Enc.uint32 e (v + 1)) i.Inode.direct;
      Xdr.Enc.uint32 e (i.Inode.indirect + 1);
      Xdr.Enc.uint32 e (i.Inode.double_indirect + 1);
      Xdr.Enc.uint32 e (i.Inode.parent + 1);
      Xdr.Enc.string e i.Inode.pname)
    t.inodes;
  let blocks = Blockdev.snapshot t.dev in
  Xdr.Enc.uint32 e (List.length blocks);
  List.iter
    (fun (idx, b) ->
      Xdr.Enc.uint32 e idx;
      Xdr.Enc.opaque e (Bytes.to_string b))
    blocks;
  Xdr.Enc.to_string e

let load ~dev image =
  let d = Xdr.Dec.of_string image in
  (try
     if Xdr.Dec.string d <> image_magic then raise (Bad_image "bad magic")
   with Xdr.Decode_error m -> raise (Bad_image m));
  try
    let bs = Xdr.Dec.uint32 d in
    let nb = Xdr.Dec.uint32 d in
    let ni = Xdr.Dec.uint32 d in
    if bs <> Blockdev.block_size dev || nb <> Blockdev.nblocks dev then
      invalid_arg "Fs.load: device geometry mismatch";
    let block_cursor = Xdr.Dec.uint32 d in
    let inode_cursor = Xdr.Dec.uint32 d in
    let free_blocks = Xdr.Dec.uint32 d in
    let free_inodes = Xdr.Dec.uint32 d in
    let bitmap = Xdr.Dec.opaque d in
    if String.length bitmap <> nb then raise (Bad_image "bitmap length mismatch");
    let inodes =
      Array.init ni (fun ino ->
          let i = Inode.fresh ino in
          i.Inode.allocated <- Xdr.Dec.uint32 d = 1;
          i.Inode.kind <-
            (match Xdr.Dec.uint32 d with
            | 0 -> Inode.Reg
            | 1 -> Inode.Dir
            | 2 -> Inode.Symlink
            | k -> raise (Bad_image (Printf.sprintf "bad inode kind %d" k)));
          i.Inode.size <- Xdr.Dec.uint32 d;
          i.Inode.perms <- Xdr.Dec.uint32 d;
          i.Inode.uid <- Xdr.Dec.uint32 d;
          i.Inode.gid <- Xdr.Dec.uint32 d;
          i.Inode.nlink <- Xdr.Dec.uint32 d;
          i.Inode.atime <- Int64.float_of_bits (Xdr.Dec.uint64 d);
          i.Inode.mtime <- Int64.float_of_bits (Xdr.Dec.uint64 d);
          i.Inode.ctime <- Int64.float_of_bits (Xdr.Dec.uint64 d);
          i.Inode.gen <- Xdr.Dec.uint32 d;
          i.Inode.direct <- Array.init n_direct (fun _ -> Xdr.Dec.uint32 d - 1);
          i.Inode.indirect <- Xdr.Dec.uint32 d - 1;
          i.Inode.double_indirect <- Xdr.Dec.uint32 d - 1;
          i.Inode.parent <- Xdr.Dec.uint32 d - 1;
          i.Inode.pname <- Xdr.Dec.string d;
          i)
    in
    let nstored = Xdr.Dec.uint32 d in
    let blocks =
      List.init nstored (fun _ ->
          let idx = Xdr.Dec.uint32 d in
          let data = Xdr.Dec.opaque d in
          if String.length data <> bs then raise (Bad_image "block length mismatch");
          (idx, Bytes.of_string data))
    in
    Xdr.Dec.expect_end d;
    Blockdev.restore dev blocks;
    {
      dev;
      inodes;
      block_used = Bytes.of_string bitmap;
      block_cursor;
      inode_cursor;
      free_blocks;
      free_inodes;
      ptr_cache = Hashtbl.create 64;
      root = first_ino;
      zero = String.make (Blockdev.block_size dev) '\000';
    }
  with Xdr.Decode_error m -> raise (Bad_image m)

(* A reboot keeps every in-memory object (an operation in flight
   across it may hold an inode or a pointer block) and leaves the
   volume as [load (save t)] would: stable storage current, every
   pointer block cold and clean. *)
let reboot t =
  flush_metadata t;
  Hashtbl.iter
    (fun _ pb ->
      pb.dirty <- false;
      pb.cold <- true)
    t.ptr_cache
