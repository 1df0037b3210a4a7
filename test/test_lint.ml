(* The static-analysis subsystem under test, both passes.

   Pass A runs the typed-AST rules over the known-bad fixture modules
   in lint_fixtures/ (compiled normally by dune, so their .cmt files
   sit in the build tree next to this test) and asserts that every
   rule fires where seeded, that role selection gates the rule set,
   and that per-file suppression comments silence a file.

   Pass B builds small delegation graphs in memory — unsigned
   assertions, signature checking off — and asserts the analyzer's
   classification of the canonical defect shapes: cycle, escalation,
   revoked chain, expired and expiry-shadowed chains, plus the clean
   store. *)

(* --- Pass A: typed-AST rules over the fixture cmts ------------------- *)

let fixture name = "lint_fixtures/.lint_fixtures.objs/byte/lint_fixtures__" ^ name ^ ".cmt"

(* The fixtures live under test/, whose inferred role is Exe; default
   to the full Lib rule set like the golden report does. *)
let check ?(role = Lint.Rules.Lib) name =
  match Lint.Rules.check_cmt ~role ~source_root:".." (fixture name) with
  | Ok findings -> findings
  | Error m -> Alcotest.failf "check_cmt %s: %s" name m

let rule_names findings =
  List.sort_uniq String.compare
    (List.map (fun f -> Lint.Rules.rule_name f.Lint.Rules.rule) findings)

let test_determinism () =
  let fs = check "Bad_determinism" in
  Alcotest.(check (list string)) "only determinism" [ "determinism" ] (rule_names fs);
  Alcotest.(check int) "Random, Sys.time, Hashtbl.hash, Marshal" 4 (List.length fs)

let test_strict_determinism () =
  (* The fixture opts in via "discfs-lint: require strict-determinism";
     the rule is in no role's default set. *)
  let fs = check "Bad_sched_determinism" in
  Alcotest.(check (list string)) "only strict-determinism" [ "strict-determinism" ]
    (rule_names fs);
  Alcotest.(check int) "iter, fold, to_seq" 3 (List.length fs);
  (* Even the Exe role honours the in-file requirement... *)
  Alcotest.(check int) "required regardless of role" 3
    (List.length (check ~role:Lint.Rules.Exe "Bad_sched_determinism"));
  (* ...and plain library code may still iterate tables freely (the
     clean fixture's role gating is covered elsewhere; here: no other
     fixture trips the strict rule). *)
  Alcotest.(check (list string)) "require directive parsed from source"
    [ "strict-determinism" ]
    (List.map Lint.Rules.rule_name
       (Lint.Rules.required_rules "../test/lint_fixtures/bad_sched_determinism.ml"))

let test_no_print () =
  let fs = check "Bad_print" in
  Alcotest.(check (list string)) "only no-print" [ "no-print" ] (rule_names fs);
  Alcotest.(check int) "print_endline, printf, eprintf, stderr" 4 (List.length fs)

let test_poly_compare () =
  let fs = check "Bad_poly_compare" in
  Alcotest.(check (list string)) "only poly-compare" [ "poly-compare" ] (rule_names fs);
  Alcotest.(check int) "=, compare, <>, max, first-class compare" 5 (List.length fs)

let test_secret_flow () =
  let fs = check "Bad_secret_flow" in
  Alcotest.(check (list string)) "only secret-flow" [ "secret-flow" ] (rule_names fs);
  Alcotest.(check bool) "both leak sites flagged" true (List.length fs >= 2)

let test_decode_result () =
  let fs = check ~role:Lint.Rules.Decode "Bad_decode" in
  Alcotest.(check (list string)) "only decode-result" [ "decode-result" ] (rule_names fs);
  Alcotest.(check int) "failwith and assert false" 2 (List.length fs)

let test_hotpath_alloc () =
  (* Two of the three seeded sites survive: the bare one and the one
     whose marker carries no justification string (reworded); the
     justified site is silenced. The file-level allow in the fixture
     header must not suppress any of them. *)
  let fs = check ~role:Lint.Rules.Decode "Bad_hotpath_alloc" in
  Alcotest.(check (list string)) "only hotpath-alloc" [ "hotpath-alloc" ] (rule_names fs);
  Alcotest.(check int) "bare + unjustified sites" 2 (List.length fs);
  let messages = List.map (fun f -> f.Lint.Rules.message) fs in
  let starts_with prefix m =
    String.length m >= String.length prefix
    && String.sub m 0 (String.length prefix) = prefix
  in
  Alcotest.(check bool) "bare site gets the standard message" true
    (List.exists (starts_with "fresh Enc.create") messages);
  Alcotest.(check bool) "unjustified marker gets the reworded demand" true
    (List.exists (starts_with "Enc.create under an 'allow hotpath-alloc'") messages);
  (* The file-level directive parses — and is ignored for this rule. *)
  Alcotest.(check bool) "file-level allow parsed yet ineffective" true
    (List.mem "hotpath-alloc"
       (List.map Lint.Rules.rule_name
          (Lint.Rules.suppressed_rules "../test/lint_fixtures/bad_hotpath_alloc.ml")));
  (* Outside the decode role the rule does not apply at all. *)
  Alcotest.(check int) "lib role unaffected" 0
    (List.length (check ~role:Lint.Rules.Lib "Bad_hotpath_alloc"))

let test_payload_copy () =
  (* On the data path the rule flags payload copies instead: the bare
     Fs.read and Dec.opaque sites, and one whose marker has no
     justification (reworded); the justified site is silenced. *)
  let fs = check ~role:Lint.Rules.Data "Bad_payload_copy" in
  Alcotest.(check (list string)) "only hotpath-alloc" [ "hotpath-alloc" ] (rule_names fs);
  Alcotest.(check int) "read, opaque and the unjustified read" 3 (List.length fs);
  let starts_with prefix m =
    String.length m >= String.length prefix && String.sub m 0 (String.length prefix) = prefix
  in
  let messages = List.map (fun f -> f.Lint.Rules.message) fs in
  List.iter
    (fun prefix ->
      Alcotest.(check bool) prefix true (List.exists (starts_with prefix) messages))
    [ "Fs.read copies payload"; "Dec.opaque copies payload"; "payload copy under an 'allow" ];
  Alcotest.(check int) "borrowing and in-place decoding are clean" 0
    (List.length (check ~role:Lint.Rules.Data "Good_payload_copy"));
  (* The wire layers police fresh encoders, not payload copies... *)
  Alcotest.(check int) "decode role ignores payload copies" 0
    (List.length (check ~role:Lint.Rules.Decode "Bad_payload_copy"));
  (* ...and the data role the reverse. *)
  Alcotest.(check int) "data role ignores fresh encoders" 0
    (List.length (check ~role:Lint.Rules.Data "Bad_hotpath_alloc"));
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " is on the data path") true
        (Lint.Rules.role_of_path p = Lint.Rules.Data))
    [ "lib/nfs/server.ml"; "lib/core/server.ml"; "lib/core/cluster.ml" ];
  Alcotest.(check bool) "the NFS client is not" true
    (Lint.Rules.role_of_path "lib/nfs/client.ml" = Lint.Rules.Lib)

let test_string_shims () =
  (* In both hot-path roles a call through a string ESP entry point is
     flagged: the bare seal and open_ sites, and one whose marker has
     no justification (reworded); the justified site is silenced. *)
  List.iter
    (fun role ->
      let fs = check ~role "Bad_string_shim" in
      Alcotest.(check (list string)) "only hotpath-alloc" [ "hotpath-alloc" ] (rule_names fs);
      Alcotest.(check int) "seal, open_ and the unjustified open_" 3 (List.length fs);
      let starts_with prefix m =
        String.length m >= String.length prefix && String.sub m 0 (String.length prefix) = prefix
      in
      let messages = List.map (fun f -> f.Lint.Rules.message) fs in
      List.iter
        (fun prefix ->
          Alcotest.(check bool) prefix true (List.exists (starts_with prefix) messages))
        [ "Esp.seal is a string shim"; "Esp.open_ is a string shim"; "string shim call under" ];
      (* The arena seal, the in-place open and the shims' own bare
         names are the one wire path. *)
      Alcotest.(check int) "arena seal and in-place open are clean" 0
        (List.length (check ~role "Good_string_shim")))
    [ Lint.Rules.Decode; Lint.Rules.Data ];
  Alcotest.(check int) "lib role unaffected" 0
    (List.length (check ~role:Lint.Rules.Lib "Bad_string_shim"))

let test_c_boundary () =
  (* Outside lib/crypto every external is a finding, noalloc or not... *)
  let fs = check ~role:Lint.Rules.Lib "Bad_c_boundary" in
  Alcotest.(check (list string)) "only c-boundary" [ "c-boundary" ] (rule_names fs);
  Alcotest.(check int) "both externals, outside lib/crypto" 2 (List.length fs);
  Alcotest.(check int) "decode layers too" 2
    (List.length (check ~role:Lint.Rules.Decode "Bad_c_boundary"));
  (* ...inside it, only the one that may allocate. *)
  let fs = check ~role:Lint.Rules.Kernel "Bad_c_boundary" in
  Alcotest.(check (list string)) "allocating stub in lib/crypto"
    [ "external string_length is not [@@noalloc]" ]
    (List.map
       (fun f -> List.hd (String.split_on_char ':' f.Lint.Rules.message))
       fs);
  Alcotest.(check int) "noalloc stub is clean in lib/crypto" 0
    (List.length (check ~role:Lint.Rules.Kernel "Good_c_boundary"));
  Alcotest.(check int) "executables may bind C freely" 0
    (List.length (check ~role:Lint.Rules.Exe "Bad_c_boundary"));
  Alcotest.(check bool) "lib/crypto gets the kernel role" true
    (Lint.Rules.role_of_path "lib/crypto/chacha20.ml" = Lint.Rules.Kernel)

let test_monitor_off () =
  (* Seven arguments built for a possibly disarmed monitor or tracer:
     five Race ones (an else-branch of the guard counts as disarmed)
     and two ~attrs lists. The same sites under a guard, a key passed
     by name and a literal attrs list are clean. *)
  let fs = check "Bad_monitor_off" in
  Alcotest.(check (list string)) "only monitor-off" [ "monitor-off" ] (rule_names fs);
  Alcotest.(check int) "race args and attrs lists" 7 (List.length fs);
  let starts_with prefix m =
    String.length m >= String.length prefix && String.sub m 0 (String.length prefix) = prefix
  in
  Alcotest.(check int) "two of them are trace attrs" 2
    (List.length
       (List.filter (fun f -> starts_with "non-constant ~attrs" f.Lint.Rules.message) fs));
  Alcotest.(check int) "guarded sites are clean" 0 (List.length (check "Good_monitor_off"));
  Alcotest.(check int) "decode layers too" 7
    (List.length (check ~role:Lint.Rules.Decode "Bad_monitor_off"));
  Alcotest.(check int) "executables are not held to it" 0
    (List.length (check ~role:Lint.Rules.Exe "Bad_monitor_off"))

let test_role_gating () =
  (* decode-result only applies to wire-decode layers... *)
  Alcotest.(check int) "bare failwith fine outside decode paths" 0
    (List.length (check ~role:Lint.Rules.Lib "Bad_decode"));
  (* ...and executables may print and use ambient state. *)
  Alcotest.(check int) "determinism not enforced on executables" 0
    (List.length (check ~role:Lint.Rules.Exe "Bad_determinism"));
  Alcotest.(check int) "no-print not enforced on executables" 0
    (List.length (check ~role:Lint.Rules.Exe "Bad_print"))

let test_suppression () =
  Alcotest.(check int) "allow comment silences the file" 0
    (List.length (check "Suppressed"));
  Alcotest.(check (list string)) "suppression parsed from source"
    [ "mli-coverage"; "no-print" ]
    (List.sort_uniq String.compare
       (List.map Lint.Rules.rule_name
          (Lint.Rules.suppressed_rules "../test/lint_fixtures/suppressed.ml")))

let test_clean () =
  Alcotest.(check int) "clean fixture is clean" 0 (List.length (check "Clean"))

let test_rule_names_roundtrip () =
  List.iter
    (fun r ->
      match Lint.Rules.rule_of_name (Lint.Rules.rule_name r) with
      | Some r' when r' = r -> ()
      | _ -> Alcotest.failf "rule name %s does not round-trip" (Lint.Rules.rule_name r))
    Lint.Rules.all_rules;
  Alcotest.(check bool) "unknown name rejected" true
    (Lint.Rules.rule_of_name "no-such-rule" = None)

let test_mli_coverage () =
  Alcotest.(check int) "lib/ fully covered" 0
    (List.length (Lint.Rules.check_mli_coverage ~source_root:".." "lib"));
  (* A synthetic tree with a bare .ml must be flagged. *)
  let dir = "mli_cov_tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Filename.concat dir "naked.ml") in
  output_string oc "let x = 1\n";
  close_out oc;
  let fs = Lint.Rules.check_mli_coverage ~source_root:"." dir in
  Alcotest.(check (list string)) "missing interface flagged" [ "mli-coverage" ]
    (rule_names fs)

(* --- Pass D: spawn-capture escape analysis over the race fixtures ----- *)

let race_fixture name =
  "race_fixtures/.race_fixtures.objs/byte/race_fixtures__" ^ name ^ ".cmt"

(* One scan over all four fixture modules; each test slices out its
   own file. Lazy so a broken build tree fails the tests, not module
   init. *)
let race_entries =
  lazy
    (let entries, errors =
       Lint.Races.scan ~source_root:".."
         (List.map race_fixture
            [ "Racy_ref"; "Racy_indirect"; "Suppressed_site"; "Clean_mailbox" ])
     in
     List.iter (fun e -> Alcotest.failf "races scan: %s" e) errors;
     entries)

let race_file name =
  let file = "test/race_fixtures/" ^ name ^ ".ml" in
  List.filter (fun e -> e.Lint.Races.e_file = file) (Lazy.force race_entries)

let violations es = List.filter Lint.Races.is_violation es

let test_races_escaping_ref () =
  let es = race_file "racy_ref" in
  Alcotest.(check int) "both spawn sites flagged" 2 (List.length (violations es));
  List.iter
    (fun e ->
      Alcotest.(check string) "the ref is named" "counter" e.Lint.Races.e_value;
      Alcotest.(check string) "classified as a ref" "ref" e.Lint.Races.e_kind)
    es;
  Alcotest.(check (list string)) "both entry points recognized"
    [ "Sched.spawn"; "Sched.spawn_after" ]
    (List.sort String.compare (List.map (fun e -> e.Lint.Races.e_spawn) es))

let test_races_indirect () =
  match race_file "racy_indirect" with
  | [ e ] ->
    Alcotest.(check bool) "violation through one call indirection" true
      (Lint.Races.is_violation e);
    Alcotest.(check string) "the record is named" "c" e.Lint.Races.e_value;
    Alcotest.(check string) "classified as a mutable record"
      "mutable record cursor" e.Lint.Races.e_kind
  | es -> Alcotest.failf "expected exactly the record capture, got %d" (List.length es)

let test_races_suppression () =
  let es = race_file "suppressed_site" in
  Alcotest.(check int) "both captures inventoried" 2 (List.length es);
  (match List.filter (fun e -> not (Lint.Races.is_violation e)) es with
  | [ { Lint.Races.e_status = Lint.Races.Suppressed why; _ } ] ->
    Alcotest.(check bool) "justification string carried" true
      (String.length why > 0)
  | _ -> Alcotest.fail "expected one justified suppression");
  match violations es with
  | [ { Lint.Races.e_status = Lint.Races.Missing_justification; _ } ] -> ()
  | _ -> Alcotest.fail "bare 'allow races' must itself be a finding"

let test_races_mailbox_clean () =
  let es = race_file "clean_mailbox" in
  Alcotest.(check int) "no violations" 0 (List.length (violations es));
  Alcotest.(check bool) "mailbox captures still inventoried" true
    (List.length es >= 2
    && List.for_all
         (fun e -> e.Lint.Races.e_status = Lint.Races.Mailbox_mediated)
         es)

let test_races_json () =
  let json = Lint.Races.json_of_entries (Lazy.force race_entries) in
  let contains sub =
    let n = String.length sub and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = sub || go (i + 1)) in
    Alcotest.(check bool) (Printf.sprintf "json carries %s" sub) true (go 0)
  in
  contains "\"pass\":\"races\"";
  contains "\"violations\":4";
  contains "\"status\":\"mailbox-mediated\"";
  contains "\"status\":\"missing-justification\"";
  contains "\"justification\":"

(* --- Pass B: credential-graph analysis -------------------------------- *)

let p name = "dsa-hex:" ^ name

(* Unsigned credential text; the analyzer runs with signature checks
   off, mirroring how the compliance tests build their fixtures. *)
let cred ?time_bound ~auth ~lic ~grant () =
  let guard =
    match time_bound with
    | None -> "(app_domain == \"DisCFS\")"
    | Some t -> Printf.sprintf "(app_domain == \"DisCFS\") && (time < %g)" t
  in
  Keynote.Assertion.parse
    (Printf.sprintf
       "KeyNote-Version: 2\nAuthorizer: \"%s\"\nLicensees: \"%s\"\nConditions: %s -> \"%s\";\n"
       auth lic guard grant)

let policy_to principal =
  Keynote.Assertion.policy
    ~licensees:(Printf.sprintf "\"%s\"" principal)
    ~conditions:"app_domain == \"DisCFS\" -> \"RWX\";" ()

let unsigned = { Credgraph.default_config with verify_signatures = false }

let analyze ?(config = unsigned) credentials =
  Credgraph.analyze ~config ~policy:[ policy_to (p "aa") ] ~credentials ()

let kind_names report =
  List.map Credgraph.kind_name (Credgraph.kinds report)

let test_graph_clean () =
  let r =
    analyze
      [
        cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" ();
        cred ~auth:(p "bb") ~lic:(p "cc") ~grant:"R" ();
      ]
  in
  Alcotest.(check (list string)) "no findings" [] (kind_names r);
  Alcotest.(check int) "all principals reachable" r.Credgraph.n_principals
    r.Credgraph.n_reachable;
  Alcotest.(check bool) "render says clean" true
    (let s = Credgraph.render r in
     String.length s >= 6 && String.sub s (String.length s - 6) 5 = "clean")

let test_graph_cycle () =
  let r =
    analyze
      [
        cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" ();
        cred ~auth:(p "bb") ~lic:(p "aa") ~grant:"R" ();
      ]
  in
  Alcotest.(check (list string)) "cycle reported" [ "cycle" ] (kind_names r)

let test_graph_escalation () =
  let r =
    analyze
      [
        cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" ();
        cred ~auth:(p "bb") ~lic:(p "cc") ~grant:"RWX" ();
      ]
  in
  Alcotest.(check (list string)) "escalation reported" [ "escalation" ] (kind_names r)

let test_graph_unreachable () =
  let r = analyze [ cred ~auth:(p "dd") ~lic:(p "ee") ~grant:"R" () ] in
  Alcotest.(check (list string)) "unreachable reported" [ "unreachable" ] (kind_names r)

let test_graph_revoked_chain () =
  let config = { unsigned with Credgraph.revoked_keys = [ p "bb" ] } in
  let r =
    analyze ~config
      [
        cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" ();
        cred ~auth:(p "bb") ~lic:(p "cc") ~grant:"R" ();
        cred ~auth:(p "cc") ~lic:(p "dd") ~grant:"X" ();
      ]
  in
  Alcotest.(check (list string)) "revoked issuer poisons the chain below"
    [ "revoked"; "revoked-chain" ]
    (List.sort_uniq String.compare (kind_names r))

let test_graph_revoked_fingerprint () =
  let c1 = cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" () in
  let config =
    {
      unsigned with
      Credgraph.revoked_fingerprints = [ Keynote.Assertion.fingerprint c1 ];
    }
  in
  let r = analyze ~config [ c1; cred ~auth:(p "bb") ~lic:(p "cc") ~grant:"R" () ] in
  Alcotest.(check (list string)) "fingerprint revocation poisons the chain"
    [ "revoked"; "revoked-chain" ]
    (List.sort_uniq String.compare (kind_names r))

let test_graph_expired () =
  let config = { unsigned with Credgraph.now = Some 200. } in
  let r =
    analyze ~config [ cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" ~time_bound:100. () ]
  in
  Alcotest.(check (list string)) "expired reported" [ "expired" ] (kind_names r)

let test_graph_expiry_shadowed () =
  let config = { unsigned with Credgraph.now = Some 50. } in
  let r =
    analyze ~config
      [
        cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" ~time_bound:100. ();
        cred ~auth:(p "bb") ~lic:(p "cc") ~grant:"R" ~time_bound:200. ();
      ]
  in
  Alcotest.(check (list string)) "upstream deadline shadows the leaf's"
    [ "expiry-shadowed" ] (kind_names r)

let test_graph_bad_signature () =
  (* With verification on, an unsigned credential is inadmissible —
     reported, and excluded from the graph (so no secondary noise). *)
  let r =
    analyze ~config:Credgraph.default_config
      [ cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" () ]
  in
  Alcotest.(check (list string)) "bad signature reported" [ "bad-signature" ]
    (kind_names r)

(* --- Pass B: on-disk store loading ------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let test_store_roundtrip () =
  let dir = "credstore_tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let c1 = cred ~auth:(p "aa") ~lic:(p "bb") ~grant:"RW" () in
  write_file (Filename.concat dir "POLICY")
    (Keynote.Assertion.to_text (policy_to (p "aa")));
  write_file (Filename.concat dir "cred1") (Keynote.Assertion.to_text c1);
  write_file (Filename.concat dir "cred2")
    (Keynote.Assertion.to_text (cred ~auth:(p "bb") ~lic:(p "cc") ~grant:"R" ()));
  write_file (Filename.concat dir "revoked.txt")
    (Keynote.Assertion.fingerprint c1 ^ "\n");
  write_file (Filename.concat dir "README") "not an assertion\n";
  match Credgraph.run_dir ~config:unsigned dir with
  | Error m -> Alcotest.fail m
  | Ok r ->
    Alcotest.(check int) "one policy assertion" 1 r.Credgraph.n_policy;
    Alcotest.(check int) "two credentials (README skipped)" 2
      r.Credgraph.n_credentials;
    Alcotest.(check (list string)) "store's own revocation list applied"
      [ "revoked"; "revoked-chain" ]
      (List.sort_uniq String.compare (kind_names r))

let test_store_parse_error () =
  let dir = "credstore_bad_tmp" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  write_file (Filename.concat dir "garbage") "Authorizer\n";
  Alcotest.(check bool) "parse error surfaces as Error" true
    (match Credgraph.run_dir ~config:unsigned dir with
    | Error _ -> true
    | Ok _ -> false)

(* --- Pass C: documentation cross-references --------------------------- *)

(* The markdown fixtures are read from the build tree like the cmt
   fixtures; the dune test stanza carries (source_tree
   lint_fixtures/docs) plus the lib dune/mli files for the library
   map. *)
let doc_root = ".."

let test_doccheck_libmap () =
  let m = Lint.Doccheck.lib_map ~root:doc_root in
  let assoc k = try List.assoc k m with Not_found -> Alcotest.failf "no %s in lib map" k in
  Alcotest.(check string) "wrapped name maps to directory" "lib/core" (assoc "Discfs");
  Alcotest.(check string) "name differs from directory" "lib/rpc" (assoc "Oncrpc");
  Alcotest.(check string) "crypto lib" "lib/crypto" (assoc "Dcrypto")

let doc_findings file =
  Lint.Doccheck.check_file ~root:doc_root
    ~libmap:(Lint.Doccheck.lib_map ~root:doc_root)
    ("test/lint_fixtures/docs/" ^ file)

let test_doccheck_bad () =
  let fs = doc_findings "bad.md" in
  let msgs = List.map (fun f -> f.Lint.Doccheck.message) fs in
  let seeded prefix =
    Alcotest.(check bool)
      (prefix ^ " finding seeded") true
      (List.exists
         (fun m -> String.length m >= String.length prefix
                   && String.sub m 0 (String.length prefix) = prefix)
         msgs)
  in
  Alcotest.(check int) "exactly the five seeded findings" 5 (List.length fs);
  seeded "dead link: no_such_file.md";
  seeded "bad anchor: good.md#no-such-heading";
  seeded "bad anchor: #not-a-heading-here";
  seeded "stale module reference: Discfs.No_such_module";
  seeded "stale path: lib/core/no_such_file.ml";
  List.iter
    (fun f ->
      Alcotest.(check string) "repo-relative path" "test/lint_fixtures/docs/bad.md"
        f.Lint.Doccheck.file)
    fs

let test_doccheck_clean () =
  Alcotest.(check int) "clean fixture has no findings" 0
    (List.length (doc_findings "good.md"));
  (* the repo's real documentation must stay clean too — this is the
     in-process face of what `dune build @lint` enforces *)
  let repo_docs = Lint.Doccheck.default_files ~root:doc_root in
  Alcotest.(check bool) "repo docs discovered" true (List.length repo_docs >= 2);
  Alcotest.(check (list string)) "repo docs cross-reference cleanly" []
    (List.map Lint.Doccheck.render_finding
       (Lint.Doccheck.check ~root:doc_root repo_docs));
  Alcotest.(check (list string)) "the counter catalogue matches lib/" []
    (List.map Lint.Doccheck.render_finding
       (Lint.Doccheck.check_counters ~root:doc_root ~catalogue:Lint.Doccheck.catalogue_file
          ~src:"lib"))

let test_counter_catalogue () =
  let fs =
    Lint.Doccheck.check_counters ~root:doc_root
      ~catalogue:"test/lint_fixtures/counters/catalogue.md" ~src:"test/lint_fixtures/counters/src"
  in
  Alcotest.(check (list string)) "one undocumented name, one stale row"
    [
      "test/lint_fixtures/counters/catalogue.md:13: [doc] stale counter: fixture.stale (counted \
       nowhere under test/lint_fixtures/counters/src/)";
      "test/lint_fixtures/counters/src/counted.ml:10: [doc] undocumented counter: \
       fixture.undocumented (not in the test/lint_fixtures/counters/catalogue.md counter \
       catalogue)";
    ]
    (List.map Lint.Doccheck.render_finding fs)

let test_doccheck_missing () =
  match doc_findings "absent.md" with
  | [ f ] -> Alcotest.(check string) "unreadable file is one finding" "cannot read file" f.Lint.Doccheck.message
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let suite =
  [
    ("pass-a: determinism", `Quick, test_determinism);
    ("pass-a: strict-determinism", `Quick, test_strict_determinism);
    ("pass-a: no-print", `Quick, test_no_print);
    ("pass-a: poly-compare", `Quick, test_poly_compare);
    ("pass-a: secret-flow", `Quick, test_secret_flow);
    ("pass-a: decode-result", `Quick, test_decode_result);
    ("pass-a: role gating", `Quick, test_role_gating);
    ("pass-a: hotpath-alloc per-site suppression", `Quick, test_hotpath_alloc);
    ("pass-a: hotpath-alloc payload copies", `Quick, test_payload_copy);
    ("pass-a: c-boundary externals", `Quick, test_c_boundary);
    ("pass-a: suppression comment", `Quick, test_suppression);
    ("pass-a: monitor-off", `Quick, test_monitor_off);
    ("pass-a: clean fixture", `Quick, test_clean);
    ("pass-a: rule names round-trip", `Quick, test_rule_names_roundtrip);
    ("pass-a: mli coverage", `Quick, test_mli_coverage);
    ("pass-b: clean store", `Quick, test_graph_clean);
    ("pass-b: cycle", `Quick, test_graph_cycle);
    ("pass-b: escalation", `Quick, test_graph_escalation);
    ("pass-b: unreachable", `Quick, test_graph_unreachable);
    ("pass-b: revoked key chain", `Quick, test_graph_revoked_chain);
    ("pass-b: revoked fingerprint chain", `Quick, test_graph_revoked_fingerprint);
    ("pass-b: expired", `Quick, test_graph_expired);
    ("pass-b: expiry-shadowed", `Quick, test_graph_expiry_shadowed);
    ("pass-b: bad signature", `Quick, test_graph_bad_signature);
    ("pass-b: on-disk store", `Quick, test_store_roundtrip);
    ("pass-b: store parse error", `Quick, test_store_parse_error);
    ("pass-d: escaping ref", `Quick, test_races_escaping_ref);
    ("pass-d: mutable field via indirection", `Quick, test_races_indirect);
    ("pass-d: per-site suppression", `Quick, test_races_suppression);
    ("pass-d: mailbox-mediated clean", `Quick, test_races_mailbox_clean);
    ("pass-d: json inventory", `Quick, test_races_json);
    ("pass-c: library map discovery", `Quick, test_doccheck_libmap);
    ("pass-c: seeded doc findings", `Quick, test_doccheck_bad);
    ("pass-c: clean fixture and real docs", `Quick, test_doccheck_clean);
    ("pass-c: counter catalogue", `Quick, test_counter_catalogue);
    ("pass-c: unreadable file", `Quick, test_doccheck_missing);
    ("pass-a: hotpath-alloc string shims", `Quick, test_string_shims);
  ]
