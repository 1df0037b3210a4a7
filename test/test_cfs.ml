(* The CFS baseline: CFS-NE, the paper's base case. *)

module Proto = Nfs.Proto

let test_cfs_ne_is_plain_nfs () =
  let d = Cfs.Cfs_ne.deploy () in
  let nfs, root = Cfs.Cfs_ne.connect d in
  let fh, _ = Nfs.Client.create_file nfs root "x" Proto.sattr_none in
  ignore (Nfs.Client.write nfs fh ~off:0 "clear text");
  (* On the server's disk the content is readable as-is. *)
  let ino = fh.Proto.ino in
  Alcotest.(check string) "cleartext on server" "clear text"
    (Ffs.Fs.read d.Cfs.Cfs_ne.fs ino ~off:0 ~len:10)

let suite =
  [
    Alcotest.test_case "cfs-ne stores cleartext" `Quick test_cfs_ne_is_plain_nfs;
  ]
