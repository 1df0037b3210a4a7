(* Anonymous access (paper §7 future work: "new file sharing policies
   for unusual scenarios, such as the untrusted users characteristic
   of the WWW").

   The Web's model is that anyone can fetch a public page without
   registering. DisCFS expresses it without weakening anything else:
   the site publishes a well-known "guest" key pair (like an anonymous
   FTP login) and the administrator issues ONE credential granting the
   guest key read access to the public subtree. Every anonymous
   visitor attaches with the guest key; private files stay invisible.
   Run with: dune exec examples/public_www.exe *)

module Cluster = Discfs.Cluster
module CC = Discfs.Cluster_client
module Proto = Nfs.Proto

let say fmt = Format.printf (fmt ^^ "@.")

let () =
  let d = Cluster.make ~seed:"public-www" () in
  let admin = CC.attach d ~identity:(Cluster.admin_identity d) ~uid:0 () in
  let root = CC.root admin in

  (* The site content: a public area and a private area. *)
  let pub, _, _ = CC.mkdir admin ~dir:root "public" in
  let index, _, _ = CC.create admin ~dir:pub "index.html" in
  CC.write_all admin index "<h1>Welcome to dsl.cis.upenn.edu</h1>\n";
  let papers, _, _ = CC.create admin ~dir:pub "papers.html" in
  CC.write_all admin papers "<a href=discfs.ps>DisCFS TR</a>\n";
  let secret, _, _ = CC.create admin ~dir:root "grades.txt" in
  CC.write_all admin secret "definitely not public\n";

  (* The published guest identity — the key pair itself is posted on
     the website, like the 'anonymous' password convention. *)
  let guest_key = Cluster.new_identity d in
  let guest_principal = Keynote.Assertion.principal_of_pub guest_key.Dcrypto.Dsa.pub in
  say "Site publishes a guest key (%s...)." (String.sub guest_principal 0 28);

  (* One administrative act, ever: guest may read the public subtree.
     The PATH-based condition covers pages added later, too. *)
  let guest_cred =
    Cluster.admin_issue d
      ~licensees:(Printf.sprintf "\"%s\"" guest_principal)
      ~conditions:"(app_domain == \"DisCFS\") && (PATH ~= \"^/public(/|$)\") -> \"RX\";"
      ~comment:"world-readable web area" ()
  in

  (* Three anonymous visitors, none known to the server. *)
  for visitor = 1 to 3 do
    let v = CC.attach d ~identity:guest_key ~uid:(60000 + visitor) () in
    (* First request ships the guest credential (cached thereafter). *)
    (match CC.submit_credential v guest_cred with
    | Ok _ -> ()
    | Error e -> failwith e);
    let page, _ = CC.lookup v pub "index.html" in
    let _, html = CC.read v page ~off:0 ~count:38 in
    say "visitor %d fetched %S" visitor html;
    (* The private area stays dark. *)
    (match CC.read v secret ~off:0 ~count:4 with
    | exception Proto.Nfs_error s ->
      if visitor = 1 then say "visitor %d denied on grades.txt: %s" visitor (Proto.status_to_string s)
    | _ -> failwith "anonymous visitor read a private file");
    (* Guests cannot deface the site either. *)
    match CC.write v page ~off:0 "<h1>pwned" with
    | exception Proto.Nfs_error _ -> ()
    | _ -> failwith "guest write accepted"
  done;

  (* New content is public immediately — no per-page ACL work. *)
  let news, _, _ = CC.create admin ~dir:pub "news.html" in
  CC.write_all admin news "New: USENIX camera-ready posted.\n";
  let v = CC.attach d ~identity:guest_key ~uid:60099 () in
  (match CC.submit_credential v guest_cred with Ok _ -> () | Error e -> failwith e);
  let _, html = CC.read v news ~off:0 ~count:4 in
  say "a later visitor reads fresh content: %S (no extra configuration)" html;
  say "@.public_www: OK"
