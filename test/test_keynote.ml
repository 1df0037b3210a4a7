(* KeyNote trust-management engine tests: language parsing, condition
   evaluation, assertion signing, and compliance checking over
   delegation graphs (the paper's Figure 1 scenario and beyond). *)

module Drbg = Dcrypto.Drbg
module Dsa = Dcrypto.Dsa
module Ast = Keynote.Ast
module Parser = Keynote.Parser
module Expr = Keynote.Expr
module Assertion = Keynote.Assertion
module Compliance = Keynote.Compliance
module Session = Keynote.Session

let octal_values = [ "false"; "X"; "W"; "WX"; "R"; "RX"; "RW"; "RWX" ]

(* Shared identities (parameter generation amortized via lazy). *)
let identities =
  lazy
    (let drbg = Drbg.create ~seed:"keynote-test-identities" in
     let admin = Dsa.generate_key drbg in
     let bob = Dsa.generate_key drbg in
     let alice = Dsa.generate_key drbg in
     let carol = Dsa.generate_key drbg in
     (admin, bob, alice, carol))

let key_str (k : Dsa.private_key) = Assertion.principal_of_pub k.Dsa.pub
let quoted k = Printf.sprintf "\"%s\"" (key_str k)
let drbg () = Drbg.create ~seed:"keynote-test-nonces"

(* --- Expression evaluation ---------------------------------------- *)

let env_of_list l name = List.assoc_opt name l

let eval_test_str env s =
  let prog = Parser.conditions s in
  let value_index v = match v with "false" -> Some 0 | "true" -> Some 1 | _ -> None in
  Expr.eval_program (env_of_list env) ~value_index ~max_index:1 prog = 1

let test_numeric_ops () =
  Alcotest.(check bool) "arith" true (eval_test_str [] "2 + 3 * 4 == 14");
  Alcotest.(check bool) "precedence" true (eval_test_str [] "(2 + 3) * 4 == 20");
  Alcotest.(check bool) "pow right assoc" true (eval_test_str [] "2 ^ 3 ^ 2 == 512");
  Alcotest.(check bool) "mod" true (eval_test_str [] "17 % 5 == 2");
  Alcotest.(check bool) "div" true (eval_test_str [] "10 / 4 == 2.5");
  Alcotest.(check bool) "unary minus" true (eval_test_str [] "-3 + 5 == 2");
  Alcotest.(check bool) "numeric compare" true (eval_test_str [] "9 < 10");
  Alcotest.(check bool) "numeric strings compare as numbers" true (eval_test_str [] "\"9\" < \"10\"");
  Alcotest.(check bool) "non-numeric strings compare lexicographically" true
    (eval_test_str [] "\"a10\" < \"a9\"")

let test_string_ops () =
  Alcotest.(check bool) "string eq" true (eval_test_str [] "\"abc\" == \"abc\"");
  Alcotest.(check bool) "string lt" true (eval_test_str [] "\"RW\" < \"RWX\"");
  Alcotest.(check bool) "concat" true (eval_test_str [] "\"foo\" . \"bar\" == \"foobar\"");
  Alcotest.(check bool) "numeric strings compare numerically" true
    (eval_test_str [] "\"0900\" == \"900\"")

let test_attributes () =
  let env = [ ("app_domain", "DisCFS"); ("HANDLE", "666240"); ("hour", "14") ] in
  Alcotest.(check bool) "attr eq" true (eval_test_str env "app_domain == \"DisCFS\"");
  Alcotest.(check bool) "attr numeric" true (eval_test_str env "hour >= 9 && hour <= 17");
  Alcotest.(check bool) "undefined attr is empty" true (eval_test_str env "missing == \"\"");
  Alcotest.(check bool) "paper figure 5" true
    (eval_test_str env "(app_domain == \"DisCFS\") && (HANDLE == \"666240\")");
  Alcotest.(check bool) "deref" true
    (eval_test_str (("which", "HANDLE") :: env) "$which == \"666240\"")

let test_regex_op () =
  let env = [ ("filename", "/discfs/docs/paper.tex") ] in
  Alcotest.(check bool) "regex match" true (eval_test_str env "filename ~= \"^/discfs/docs/\"");
  Alcotest.(check bool) "regex miss" false (eval_test_str env "filename ~= \"^/discfs/src/\"")

let test_eval_errors_unsatisfy () =
  (* Division by zero or non-numeric arithmetic must not grant. *)
  Alcotest.(check bool) "div by zero" false (eval_test_str [] "1 / 0 == 1");
  Alcotest.(check bool) "bad coercion" false (eval_test_str [] "\"abc\" + 1 == 1");
  Alcotest.(check bool) "error isolated per clause" true
    (eval_test_str [] "\"abc\" + 1 == 1 -> \"false\"; 1 == 1 -> \"true\"")

let test_program_max_semantics () =
  let prog = Parser.conditions
      "perm == \"r\" -> \"R\"; perm == \"rw\" -> \"RW\"; app == \"DisCFS\" -> \"X\";"
  in
  let value_index v =
    let rec idx i = function [] -> None | x :: r -> if x = v then Some i else idx (i + 1) r in
    idx 0 octal_values
  in
  let env = env_of_list [ ("perm", "rw"); ("app", "DisCFS") ] in
  (* Both the RW clause (6) and the X clause (1) fire: max wins. *)
  Alcotest.(check int) "max of satisfied" 6 (Expr.eval_program env ~value_index ~max_index:7 prog)

let test_nested_program () =
  let prog = Parser.conditions
      "app_domain == \"DisCFS\" -> { op == \"read\" -> \"R\"; op == \"write\" -> \"W\"; };"
  in
  let value_index v =
    let rec idx i = function [] -> None | x :: r -> if x = v then Some i else idx (i + 1) r in
    idx 0 octal_values
  in
  let check env expected =
    Expr.eval_program (env_of_list env) ~value_index ~max_index:7 prog = expected
  in
  Alcotest.(check bool) "read" true (check [ ("app_domain", "DisCFS"); ("op", "read") ] 4);
  Alcotest.(check bool) "write" true (check [ ("app_domain", "DisCFS"); ("op", "write") ] 2);
  Alcotest.(check bool) "wrong domain" true (check [ ("app_domain", "other"); ("op", "read") ] 0)

let test_special_attributes () =
  let admin, bob, _, _ = Lazy.force identities in
  let policy = [ Keynote.Assertion.policy ~licensees:(quoted admin) ~conditions:"true;" () ] in
  let check conditions attrs expected =
    let cred = Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob) ~conditions () in
    let r =
      Compliance.check ~policy ~credentials:[ cred ]
        { Compliance.requesters = [ key_str bob ]; attributes = attrs; values = octal_values }
    in
    Alcotest.(check string) conditions expected r.Compliance.value
  in
  (* A clause with no explicit value means _MAX_TRUST (RFC 2704);
     _MIN_TRUST/_MAX_TRUST read as the endpoints of the value order. *)
  check "true;" [] "RWX";
  check "app == _MIN_TRUST -> \"R\";" [ ("app", "false") ] "R";
  check "app == _MAX_TRUST -> \"R\";" [ ("app", "RWX") ] "R";
  (* _VALUES lists the ordered set. *)
  check "_VALUES ~= \"RWX\" -> \"W\";" [] "W";
  (* _ACTION_AUTHORIZERS names the requesters. *)
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob)
      ~conditions:(Printf.sprintf "_ACTION_AUTHORIZERS ~= \"%s\" -> \"X\";"
                     (String.sub (key_str bob) 0 20))
      ()
  in
  let r =
    Compliance.check ~policy ~credentials:[ cred ]
      { Compliance.requesters = [ key_str bob ]; attributes = []; values = octal_values }
  in
  Alcotest.(check string) "_ACTION_AUTHORIZERS" "X" r.Compliance.value

(* --- Licensees parsing --------------------------------------------- *)

let test_licensees_parse () =
  let l = Parser.licensees "\"k1\" && (\"k2\" || \"k3\")" in
  (match l with
  | Ast.And (Ast.Principal "k1", Ast.Or (Ast.Principal "k2", Ast.Principal "k3")) -> ()
  | _ -> Alcotest.fail "unexpected licensees structure");
  let t = Parser.licensees "2-of(\"a\", \"b\", \"c\")" in
  (match t with
  | Ast.Threshold (2, [ Ast.Principal "a"; Ast.Principal "b"; Ast.Principal "c" ]) -> ()
  | _ -> Alcotest.fail "unexpected threshold structure");
  (match Parser.licensees "POLICY" with
  | Ast.Principal "POLICY" -> ()
  | _ -> Alcotest.fail "identifier principal");
  Alcotest.check_raises "bad threshold k"
    (Parser.Parse_error "threshold K must be a positive integer") (fun () ->
      ignore (Parser.licensees "0-of(\"a\")"))

let test_licensees_resolve () =
  let resolve = function "BOB" -> "dsa-hex:bb" | other -> other in
  match Parser.licensees ~resolve "BOB || \"dsa-hex:aa\"" with
  | Ast.Or (Ast.Principal "dsa-hex:bb", Ast.Principal "dsa-hex:aa") -> ()
  | _ -> Alcotest.fail "local-constant resolution failed"

(* --- Assertions ----------------------------------------------------- *)

let test_assertion_parse_figure5 () =
  (* Shape of the paper's Figure 5 credential. *)
  let text =
    "KeyNote-Version: 2\n\
     Authorizer: \"dsa-hex:3081de0240503ca3\"\n\
     Licensees: \"dsa-hex:3081de02405be60a\"\n\
     Conditions: (app_domain == \"DisCFS\") &&\n\
     \t(HANDLE == \"666240\") -> \"RWX\";\n\
     Comment: testdir\n"
  in
  let a = Assertion.parse text in
  Alcotest.(check string) "authorizer" "dsa-hex:3081de0240503ca3" a.Assertion.authorizer;
  Alcotest.(check (option string)) "comment" (Some "testdir") a.Assertion.comment;
  (match a.Assertion.licensees with
  | Some (Ast.Principal "dsa-hex:3081de02405be60a") -> ()
  | _ -> Alcotest.fail "licensees");
  Alcotest.(check bool) "conditions parsed" true (a.Assertion.conditions <> None);
  Alcotest.(check bool) "unsigned doesn't verify" false (Assertion.verify a)

let test_assertion_sign_verify () =
  let admin, bob, _, _ = Lazy.force identities in
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~comment:"testdir"
      ~licensees:(quoted bob)
      ~conditions:"(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RWX\";" ()
  in
  Alcotest.(check bool) "verifies" true (Assertion.verify cred);
  Alcotest.(check bool) "signed_by admin" true (Assertion.signed_by cred admin.Dsa.pub);
  Alcotest.(check bool) "not signed_by bob" false (Assertion.signed_by cred bob.Dsa.pub);
  (* Roundtrip through text. *)
  let reparsed = Assertion.parse (Assertion.to_text cred) in
  Alcotest.(check bool) "reparse verifies" true (Assertion.verify reparsed);
  Alcotest.(check string) "stable fingerprint" (Assertion.fingerprint cred)
    (Assertion.fingerprint reparsed)

let test_sha256_signatures () =
  let admin, bob, _, _ = Lazy.force identities in
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~alg:`Dsa_sha256 ~licensees:(quoted bob)
      ~conditions:"true -> \"R\";" ()
  in
  Alcotest.(check bool) "sha256 signature verifies" true (Assertion.verify cred);
  Alcotest.(check bool) "text says sha256" true
    (Rex.matches "sig-dsa-sha256-hex:" (Assertion.to_text cred));
  (* It drives a compliance check like any other credential. *)
  let r =
    Compliance.check
      ~policy:[ Assertion.policy ~licensees:(quoted admin) ~conditions:"true;" () ]
      ~credentials:[ cred ]
      { Compliance.requesters = [ key_str bob ]; attributes = []; values = octal_values }
  in
  Alcotest.(check string) "grants" "R" r.Compliance.value;
  (* Tampering is caught for the sha256 variant too. *)
  let bad = Assertion.parse (Str_replace.replace (Assertion.to_text cred) ~from:"\"R\"" ~into:"\"RWX\"") in
  Alcotest.(check bool) "tamper detected" false (Assertion.verify bad)

let test_assertion_tamper () =
  let admin, bob, _, _ = Lazy.force identities in
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob)
      ~conditions:"HANDLE == \"42\" -> \"R\";" ()
  in
  (* Swap the handle in the credential text: signature must fail. *)
  let tampered_text =
    Str_replace.replace (Assertion.to_text cred) ~from:"\"42\"" ~into:"\"43\""
  in
  let tampered = Assertion.parse tampered_text in
  Alcotest.(check bool) "tampered fails" false (Assertion.verify tampered)

let test_assertion_parse_errors () =
  let expect_error text =
    match Assertion.parse text with
    | exception Assertion.Parse_error _ -> ()
    | _ -> Alcotest.failf "should not parse: %S" text
  in
  List.iter expect_error
    [
      "";
      "Licensees: \"k\"\n"; (* missing authorizer *)
      "Authorizer: \"a\" \"b\"\n"; (* two principals *)
      "not a field line\n";
      "Authorizer: \"a\"\nConditions: ((\n";
      "\tcontinuation first\n";
    ]

(* RFC 2704-shaped conformance set: the assertion-document grammar of
   §4 — field-name case-insensitivity, continuation-line folding,
   blank-line tolerance, Local-Constants substitution in Authorizer,
   empty optional fields, signature coverage, and exact diagnostics. *)
let test_rfc2704_conformance () =
  (* §4.1: field names are case-insensitive; unknown fields are carried
     without breaking the parse. *)
  let a =
    Assertion.parse
      "KEYNOTE-VERSION: 2\n\
       authorizer: \"dsa-hex:aa\"\n\
       LiCeNsEeS: \"dsa-hex:bb\"\n\
       conditions: true -> \"R\";\n"
  in
  Alcotest.(check (option string)) "version" (Some "2") a.Assertion.version;
  Alcotest.(check string) "authorizer" "dsa-hex:aa" a.Assertion.authorizer;
  (* §4.2: a field body continues over lines that begin with
     whitespace; blank lines between fields are ignored. *)
  let b =
    Assertion.parse
      "Authorizer: \"dsa-hex:aa\"\n\
       \n\
       Licensees: \"dsa-hex:bb\" ||\n\
       \t\"dsa-hex:cc\"\n\
       Conditions: (app_domain == \"DisCFS\") &&\n\
       \  (OPERATION == \"read\")\n\
       \  -> \"R\";\n\
       \n\
       Comment: spans\n\
       \ three physical lines\n"
  in
  (match b.Assertion.licensees with
  | Some (Ast.Or _) -> ()
  | _ -> Alcotest.fail "folded Licensees should parse as a disjunction");
  Alcotest.(check bool) "folded Conditions parse" true (b.Assertion.conditions <> None);
  (match b.Assertion.comment with
  | Some c -> Alcotest.(check bool) "comment folded" true (Rex.matches "three physical" c)
  | None -> Alcotest.fail "comment lost");
  (* §4.4: Local-Constants substitute into Authorizer and Licensees. *)
  let c =
    Assertion.parse
      "Local-Constants: ADMIN = \"dsa-hex:aa\" BOB = \"dsa-hex:bb\"\n\
       Authorizer: ADMIN\n\
       Licensees: BOB\n"
  in
  Alcotest.(check string) "constant in Authorizer" "dsa-hex:aa" c.Assertion.authorizer;
  (match c.Assertion.licensees with
  | Some (Ast.Principal "dsa-hex:bb") -> ()
  | _ -> Alcotest.fail "constant in Licensees");
  (* §4.3/§4.5: empty Licensees and Conditions mean "everyone" /
     "unconditional" — parsed as absent, not as errors. *)
  let d = Assertion.parse "Authorizer: \"dsa-hex:aa\"\nLicensees:\nConditions:   \n" in
  Alcotest.(check bool) "empty Licensees -> None" true (d.Assertion.licensees = None);
  Alcotest.(check bool) "empty Conditions -> None" true (d.Assertion.conditions = None);
  (* §4.6: the signature covers exactly the bytes before the Signature
     field, and its body must be a single quoted string. *)
  let body = "Authorizer: \"dsa-hex:aa\"\nConditions: true -> \"R\";\n" in
  let e = Assertion.parse (body ^ "Signature: \"sig-dsa-sha1-hex:00\"\n") in
  Alcotest.(check (option string)) "signature value" (Some "sig-dsa-sha1-hex:00")
    e.Assertion.signature;
  Alcotest.(check string) "signature covers preceding bytes" body e.Assertion.body_text;
  Alcotest.(check bool) "garbage signature doesn't verify" false (Assertion.verify e);
  (* Exact diagnostics for the malformed documents of §4. *)
  let expect_msg msg text =
    Alcotest.check_raises msg (Assertion.Parse_error msg) (fun () ->
        ignore (Assertion.parse text))
  in
  expect_msg "empty assertion" "";
  expect_msg "missing Authorizer field" "Licensees: \"dsa-hex:bb\"\n";
  expect_msg "continuation line before any field" "  Authorizer: \"dsa-hex:aa\"\n";
  expect_msg "Authorizer must be a single principal" "Authorizer: \"a\" && \"b\"\n";
  expect_msg "Signature must be a quoted string"
    "Authorizer: \"dsa-hex:aa\"\nSignature: unquoted\n";
  expect_msg "malformed Local-Constants field"
    "Local-Constants: A \"dsa-hex:aa\"\nAuthorizer: A\n"

let test_local_constants () =
  let admin, bob, _, _ = Lazy.force identities in
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ())
      ~local_constants:[ ("BOB", key_str bob); ("LIMIT", "17") ]
      ~licensees:"BOB"
      ~conditions:"hour <= LIMIT -> \"R\";" ()
  in
  Alcotest.(check bool) "verifies" true (Assertion.verify cred);
  (match cred.Assertion.licensees with
  | Some (Ast.Principal p) ->
    Alcotest.(check bool) "constant resolved to key" true (Ast.principal_equal p (key_str bob))
  | _ -> Alcotest.fail "licensees");
  (* LIMIT must shadow any action attribute of the same name. *)
  let result =
    Compliance.check ~policy:[ Keynote.Assertion.policy ~licensees:(quoted admin) ~conditions:"true;" () ]
      ~credentials:[ cred ]
      {
        Compliance.requesters = [ key_str bob ];
        attributes = [ ("hour", "12"); ("LIMIT", "3") ];
        values = octal_values;
      }
  in
  Alcotest.(check string) "shadowing grants R" "R" result.Compliance.value

(* --- Compliance ----------------------------------------------------- *)

let policy_trusting key =
  Assertion.policy ~licensees:(Printf.sprintf "\"%s\"" (key_str key)) ~conditions:"true;" ()

let make_query ?(attrs = []) requesters =
  { Compliance.requesters = List.map key_str requesters; attributes = attrs; values = octal_values }

let test_direct_authorization () =
  let admin, bob, _, _ = Lazy.force identities in
  let result = Compliance.check ~policy:[ policy_trusting admin ] ~credentials:[] (make_query [ admin ]) in
  Alcotest.(check string) "admin is max" "RWX" result.Compliance.value;
  let result2 = Compliance.check ~policy:[ policy_trusting admin ] ~credentials:[] (make_query [ bob ]) in
  Alcotest.(check string) "stranger denied" "false" result2.Compliance.value

let test_delegation_chain_figure1 () =
  (* Figure 1: administrator -> Bob (RW) -> Alice (R). *)
  let admin, bob, alice, _ = Lazy.force identities in
  let attrs = [ ("app_domain", "DisCFS"); ("HANDLE", "666240") ] in
  let cred_bob =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob)
      ~conditions:"(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RW\";" ()
  in
  let cred_alice =
    Assertion.issue ~key:bob ~drbg:(drbg ()) ~licensees:(quoted alice)
      ~conditions:"(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"R\";" ()
  in
  let policy = [ policy_trusting admin ] in
  (* Alice with both credentials: R. *)
  let r = Compliance.check ~policy ~credentials:[ cred_bob; cred_alice ] (make_query ~attrs [ alice ]) in
  Alcotest.(check string) "alice gets R" "R" r.Compliance.value;
  (* Alice without Bob's own credential: the chain is broken. *)
  let r2 = Compliance.check ~policy ~credentials:[ cred_alice ] (make_query ~attrs [ alice ]) in
  Alcotest.(check string) "broken chain denied" "false" r2.Compliance.value;
  (* Bob with his credential: RW. *)
  let r3 = Compliance.check ~policy ~credentials:[ cred_bob ] (make_query ~attrs [ bob ]) in
  Alcotest.(check string) "bob gets RW" "RW" r3.Compliance.value;
  (* Delegation cannot amplify: even if Bob grants Alice RWX, she is
     capped by Bob's own RW. *)
  let cred_alice_rwx =
    Assertion.issue ~key:bob ~drbg:(drbg ()) ~licensees:(quoted alice)
      ~conditions:"(app_domain == \"DisCFS\") && (HANDLE == \"666240\") -> \"RWX\";" ()
  in
  let r4 =
    Compliance.check ~policy ~credentials:[ cred_bob; cred_alice_rwx ] (make_query ~attrs [ alice ])
  in
  Alcotest.(check string) "no amplification" "RW" r4.Compliance.value;
  (* Wrong handle: denied. *)
  let r5 =
    Compliance.check ~policy ~credentials:[ cred_bob; cred_alice ]
      (make_query ~attrs:[ ("app_domain", "DisCFS"); ("HANDLE", "999") ] [ alice ])
  in
  Alcotest.(check string) "wrong handle denied" "false" r5.Compliance.value

let test_long_chain () =
  (* Chains of arbitrary length work (unlike the Exokernel's 8-level cap). *)
  let admin, _, _, _ = Lazy.force identities in
  let d = Drbg.create ~seed:"long-chain-keys" in
  let keys = Array.init 12 (fun _ -> Dsa.generate_key d) in
  let conditions = "app_domain == \"DisCFS\" -> \"R\";" in
  let creds = ref [] in
  let issuer = ref admin in
  Array.iter
    (fun k ->
      creds :=
        Assertion.issue ~key:!issuer ~drbg:(drbg ())
          ~licensees:(quoted k) ~conditions ()
        :: !creds;
      issuer := k)
    keys;
  let final = keys.(Array.length keys - 1) in
  let r =
    Compliance.check ~policy:[ policy_trusting admin ] ~credentials:!creds
      (make_query ~attrs:[ ("app_domain", "DisCFS") ] [ final ])
  in
  Alcotest.(check string) "12-link chain grants" "R" r.Compliance.value

let test_threshold () =
  let admin, bob, alice, carol = Lazy.force identities in
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ())
      ~licensees:
        (Printf.sprintf "2-of(%s, %s, %s)" (quoted bob) (quoted alice) (quoted carol))
      ~conditions:"true -> \"RW\";" ()
  in
  let policy = [ policy_trusting admin ] in
  let r1 = Compliance.check ~policy ~credentials:[ cred ] (make_query [ bob; alice ]) in
  Alcotest.(check string) "two signers pass" "RW" r1.Compliance.value;
  let r2 = Compliance.check ~policy ~credentials:[ cred ] (make_query [ bob ]) in
  Alcotest.(check string) "one signer fails" "false" r2.Compliance.value

let test_conjunction_licensees () =
  let admin, bob, alice, _ = Lazy.force identities in
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ())
      ~licensees:(Printf.sprintf "%s && %s" (quoted bob) (quoted alice))
      ~conditions:"true -> \"R\";" ()
  in
  let policy = [ policy_trusting admin ] in
  let r1 = Compliance.check ~policy ~credentials:[ cred ] (make_query [ bob; alice ]) in
  Alcotest.(check string) "both present" "R" r1.Compliance.value;
  let r2 = Compliance.check ~policy ~credentials:[ cred ] (make_query [ alice ]) in
  Alcotest.(check string) "one missing" "false" r2.Compliance.value

let test_forged_credential_ignored () =
  let admin, bob, alice, _ = Lazy.force identities in
  (* Bob forges a credential claiming to be from admin by taking a
     real admin credential for himself and editing the licensee. *)
  let real =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob)
      ~conditions:"true -> \"RWX\";" ()
  in
  let forged_text =
    Str_replace.replace (Assertion.to_text real)
      ~from:(key_str bob) ~into:(key_str alice)
  in
  let forged = Assertion.parse forged_text in
  let r =
    Compliance.check ~policy:[ policy_trusting admin ] ~credentials:[ forged ]
      (make_query [ alice ])
  in
  Alcotest.(check string) "forged denied" "false" r.Compliance.value;
  Alcotest.(check bool) "trace mentions discard" true
    (List.exists (fun line -> String.length line > 0 && String.sub line 0 9 = "discarded")
       r.Compliance.trace)

let test_delegation_cycle () =
  let admin, bob, alice, _ = Lazy.force identities in
  (* bob delegates to alice, alice delegates back to bob; neither is
     connected to POLICY. The checker must terminate and deny. *)
  let c1 =
    Assertion.issue ~key:bob ~drbg:(drbg ()) ~licensees:(quoted alice) ~conditions:"true;" ()
  in
  let c2 =
    Assertion.issue ~key:alice ~drbg:(drbg ()) ~licensees:(quoted bob) ~conditions:"true;" ()
  in
  let r =
    Compliance.check ~policy:[ policy_trusting admin ] ~credentials:[ c1; c2 ]
      (make_query [])
  in
  Alcotest.(check string) "cycle denied" "false" r.Compliance.value

let test_time_of_day_policy () =
  (* Paper section 3.1: leisure files unavailable during office hours. *)
  let admin, bob, _, _ = Lazy.force identities in
  let cred =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob)
      ~conditions:"(hour < 9 || hour >= 17) && filetype == \"leisure\" -> \"R\";" ()
  in
  let policy = [ policy_trusting admin ] in
  let query hour =
    make_query ~attrs:[ ("hour", string_of_int hour); ("filetype", "leisure") ] [ bob ]
  in
  let at h = (Compliance.check ~policy ~credentials:[ cred ] (query h)).Compliance.value in
  Alcotest.(check string) "evening ok" "R" (at 20);
  Alcotest.(check string) "early ok" "R" (at 7);
  Alcotest.(check string) "office hours denied" "false" (at 11)

let test_empty_licensees_grants_nothing () =
  let admin, bob, _, _ = Lazy.force identities in
  let a = Assertion.policy ~licensees:(quoted admin) ~conditions:"" () in
  let r =
    Compliance.check ~policy:[ a ] ~credentials:[] (make_query [ bob ])
  in
  Alcotest.(check string) "no grant" "false" r.Compliance.value

(* --- Session -------------------------------------------------------- *)

let test_handle_guards () =
  let guard conditions local_constants =
    (Assertion.policy ~local_constants ~licensees:"\"k\"" ~conditions ()).Assertion.handles
  in
  let check name want conditions ?(local_constants = []) () =
    Alcotest.(check (option (list string))) name want (guard conditions local_constants)
  in
  check "server CREATE credential" (Some [ "#17" ])
    "(app_domain == \"DisCFS\") && (HANDLE == \"17\") -> \"RWX\";" ();
  check "numeric spellings share a key" (Some [ "#10"; "#17" ])
    "HANDLE == \"017\" -> \"R\"; (HANDLE == \"1e1\" || HANDLE == 17) -> \"W\";" ();
  check "reversed, string literal" (Some [ "$abc" ]) "\"abc\" == HANDLE;" ();
  check "one clause without a guard" None "HANDLE == \"1\" -> \"R\"; true -> \"X\";" ();
  check "under !" None "!(HANDLE == \"1\");" ();
  check "beside another test in ||" None "HANDLE == \"1\" || app_domain == \"DisCFS\";" ();
  check "HANDLE as a Local-Constant" None "HANDLE == \"1\";" ~local_constants:[ ("HANDLE", "1") ] ();
  check "unconditional" None "" ()

let test_session () =
  let admin, bob, alice, _ = Lazy.force identities in
  let session = Session.create ~values:octal_values () in
  Session.add_policy session (policy_trusting admin);
  let cred_bob =
    Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob)
      ~conditions:"app_domain == \"DisCFS\" -> \"RW\";" ()
  in
  (match Session.add_credential session cred_bob with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* Submitting text over RPC is how the DisCFS utility works. *)
  let cred_alice =
    Assertion.issue ~key:bob ~drbg:(drbg ()) ~licensees:(quoted alice)
      ~conditions:"app_domain == \"DisCFS\" -> \"R\";" ()
  in
  (match Session.add_credential_text session (Assertion.to_text cred_alice) with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check int) "two credentials" 2 (List.length (Session.credentials session));
  let attributes = [ ("app_domain", "DisCFS") ] in
  let r = Session.query session ~requesters:[ key_str alice ] ~attributes in
  Alcotest.(check string) "alice R" "R" r.Compliance.value;
  (* Idempotent re-add. *)
  (match Session.add_credential session cred_bob with Ok () -> () | Error e -> Alcotest.fail e);
  Alcotest.(check int) "still two" 2 (List.length (Session.credentials session));
  (* Revocation: removing Bob's credential breaks Alice's chain. *)
  Alcotest.(check bool) "removed" true
    (Session.remove_credential session ~fingerprint:(Assertion.fingerprint cred_bob));
  let r2 = Session.query session ~requesters:[ key_str alice ] ~attributes in
  Alcotest.(check string) "revoked" "false" r2.Compliance.value;
  (* Garbage text rejected. *)
  (match Session.add_credential_text session "garbage" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "garbage accepted")

let prop_chain_value_is_min =
  (* For a linear chain, the granted value is the minimum along the
     chain (delegation can restrict, never amplify). *)
  let admin, bob, alice, _ = Lazy.force identities in
  QCheck.Test.make ~name:"chain value = min of links" ~count:20
    (QCheck.make QCheck.Gen.(pair (int_bound 7) (int_bound 7)))
    (fun (v1, v2) ->
      let value_at i = List.nth octal_values i in
      let cred1 =
        Assertion.issue ~key:admin ~drbg:(drbg ()) ~licensees:(quoted bob)
          ~conditions:(Printf.sprintf "true -> \"%s\";" (value_at v1)) ()
      in
      let cred2 =
        Assertion.issue ~key:bob ~drbg:(drbg ()) ~licensees:(quoted alice)
          ~conditions:(Printf.sprintf "true -> \"%s\";" (value_at v2)) ()
      in
      let r =
        Compliance.check ~policy:[ policy_trusting admin ] ~credentials:[ cred1; cred2 ]
          (make_query [ alice ])
      in
      r.Compliance.level = min v1 v2)

(* --- Indexed store vs the list-scanning reference ------------------- *)

(* The compliance checker as it was before the credential store was
   indexed: every query rebuilds a by-authorizer table from the whole
   list and walks it from POLICY. Kept verbatim as the oracle the
   indexed evaluator must agree with, including the order in which an
   issuer's assertions are visited (newest first), which decides what
   a delegation cycle cuts. *)
module Reference = struct
  let special_attributes (q : Compliance.query) =
    let n = List.length q.values in
    [
      ("_MIN_TRUST", List.nth q.values 0);
      ("_MAX_TRUST", List.nth q.values (n - 1));
      ("_VALUES", String.concat "," q.values);
      ("_ACTION_AUTHORIZERS", String.concat "," q.requesters);
    ]

  let check ?(assume_verified = false) ~policy ~credentials (q : Compliance.query) =
    let max_index = List.length q.values - 1 in
    let value_index v =
      let rec go i = function
        | [] -> None
        | x :: rest -> if String.equal x v then Some i else go (i + 1) rest
      in
      go 0 q.values
    in
    let trace = ref [] in
    let note fmt = Printf.ksprintf (fun s -> trace := s :: !trace) fmt in
    let by_authorizer : (string, Assertion.t list) Hashtbl.t = Hashtbl.create 16 in
    let add_assertion key a =
      let key = Ast.normalize_principal key in
      Hashtbl.replace by_authorizer key
        (a :: (try Hashtbl.find by_authorizer key with Not_found -> []))
    in
    List.iter (fun a -> add_assertion "POLICY" { a with Assertion.authorizer = "POLICY" }) policy;
    List.iter
      (fun a ->
        if assume_verified || Assertion.verify a then add_assertion a.Assertion.authorizer a
        else note "discarded credential %s: bad or missing signature" (Assertion.fingerprint a))
      credentials;
    let requesters = List.map Ast.normalize_principal q.requesters in
    let specials = special_attributes q in
    let memo : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let in_progress : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    let short_principal p = if String.length p > 24 then String.sub p 0 21 ^ "..." else p in
    let rec principal_value p =
      let p = Ast.normalize_principal p in
      if List.mem p requesters then max_index
      else
        match Hashtbl.find_opt memo p with
        | Some v -> v
        | None ->
          if Hashtbl.mem in_progress p then 0
          else begin
            Hashtbl.replace in_progress p ();
            let assertions = try Hashtbl.find by_authorizer p with Not_found -> [] in
            let v = List.fold_left (fun acc a -> max acc (assertion_value a)) 0 assertions in
            Hashtbl.remove in_progress p;
            Hashtbl.replace memo p v;
            v
          end
    and assertion_value (a : Assertion.t) =
      let env name =
        match List.assoc_opt name a.Assertion.local_constants with
        | Some v -> Some v
        | None ->
          (match List.assoc_opt name q.attributes with
          | Some v -> Some v
          | None -> List.assoc_opt name specials)
      in
      let conditions_value =
        match a.Assertion.conditions with
        | None -> max_index
        | Some prog -> Expr.eval_program env ~value_index ~max_index prog
      in
      if conditions_value = 0 then 0
      else begin
        let licensees_value =
          match a.Assertion.licensees with None -> 0 | Some l -> licensees_value l
        in
        let v = min conditions_value licensees_value in
        if v > 0 then
          note "assertion %s (authorizer %s) contributes %S" (Assertion.fingerprint a)
            (short_principal a.Assertion.authorizer)
            (List.nth q.values v);
        v
      end
    and licensees_value = function
      | Ast.Principal p -> principal_value p
      | Ast.And (a, b) -> min (licensees_value a) (licensees_value b)
      | Ast.Or (a, b) -> max (licensees_value a) (licensees_value b)
      | Ast.Threshold (k, members) ->
        let vs = List.map licensees_value members in
        if List.length vs < k then 0
        else List.nth (List.sort (fun a b -> compare b a) vs) (k - 1)
    in
    let level = principal_value "POLICY" in
    { Compliance.level; value = List.nth q.values level; trace = List.rev !trace }
end

(* Random delegation graphs over a pool of five keys. Key 0 is the
   administrator POLICY trusts outright; POLICY also grants RX on
   HANDLE 1 to (key 1 || key 2). Credentials are issued by any key to
   any licensee structure, so cycles are common. *)
type lic =
  | L_key of int * bool (* key index, rendered uppercase *)
  | L_const of int (* the key, named through a Local-Constants entry *)
  | L_and of lic * lic
  | L_or of lic * lic
  | L_kof of int * lic list

type cred_spec = { issuer : int; lic : lic; cond : int }
type op = Add of int | Remove of int | Revoke of int

let pool_size = 5

let pool =
  lazy
    (let d = Drbg.create ~seed:"keynote-oracle-pool" in
     Array.init pool_size (fun _ -> Dsa.generate_key d))

let conditions_table =
  [|
    ("true;", []);
    ("app_domain == \"DisCFS\" -> \"R\";", []);
    ("HANDLE == \"1\" -> \"RW\"; HANDLE == \"2\" -> \"X\";", []);
    ("lvl == \"hi\" -> \"RWX\"; true -> \"W\";", [ ("lvl", "hi") ]);
    ("app_domain == \"elsewhere\" -> \"RWX\";", []);
    ("_ACTION_AUTHORIZERS ~= \"dsa-hex\" -> \"RX\";", []);
    (* Handle guards: a disjunction beside another conjunct, numeric
       literals in other spellings, a reversed comparison. *)
    ("(HANDLE == \"1\" || HANDLE == \"017\") && app_domain == \"DisCFS\" -> \"RWX\";", []);
    ("HANDLE == \"1e1\" -> \"W\"; \"17\" == HANDLE -> \"R\";", []);
    ("HANDLE == 10 -> \"RX\";", []);
    (* Unguarded: HANDLE bound by a Local-Constant, under [!], beside
       another test at the top of an [||], or a clause without it. *)
    ("HANDLE == \"5\" -> \"RWX\";", [ ("HANDLE", "5") ]);
    ("!(HANDLE == \"1\") -> \"W\";", []);
    ("HANDLE == \"2\" || app_domain == \"DisCFS\" -> \"X\";", []);
    ("HANDLE == \"2\" -> \"RWX\"; lvl == \"hi\" -> \"R\";", [ ("lvl", "hi") ]);
  |]

let gen_lic =
  let open QCheck.Gen in
  let key = int_bound (pool_size - 1) in
  sized_size (int_bound 3)
  @@ fix (fun self n ->
         let leaf =
           frequency
             [ (4, map2 (fun k up -> L_key (k, up)) key (frequency [ (4, return false); (1, return true) ]));
               (1, map (fun k -> L_const k) key) ]
         in
         if n = 0 then leaf
         else
           frequency
             [ (3, leaf);
               (1, map2 (fun a b -> L_and (a, b)) (self (n - 1)) (self (n - 1)));
               (1, map2 (fun a b -> L_or (a, b)) (self (n - 1)) (self (n - 1)));
               (1,
                 list_size (int_range 1 3) (self (n - 1)) >>= fun members ->
                 map (fun k -> L_kof (k, members)) (int_range 1 (List.length members))) ])

let gen_case =
  let open QCheck.Gen in
  list_size (int_range 1 8)
    (map3 (fun issuer lic cond -> { issuer; lic; cond }) (int_bound (pool_size - 1)) gen_lic
       (int_bound (Array.length conditions_table - 1)))
  >>= fun specs ->
  let n = List.length specs in
  list_size (int_range 1 14)
    (frequency
       [ (6, map (fun i -> Add i) (int_bound (n - 1)));
         (2, map (fun i -> Remove i) (int_bound (n - 1)));
         (1, map (fun k -> Revoke k) (int_bound (pool_size - 1))) ])
  >|= fun ops -> (specs, ops)

let rec render_lic keys = function
  | L_key (k, up) ->
    let p = key_str keys.(k) in
    Printf.sprintf "\"%s\"" (if up then String.uppercase_ascii p else p)
  | L_const k -> Printf.sprintf "K%d" k
  | L_and (a, b) -> Printf.sprintf "(%s && %s)" (render_lic keys a) (render_lic keys b)
  | L_or (a, b) -> Printf.sprintf "(%s || %s)" (render_lic keys a) (render_lic keys b)
  | L_kof (k, ms) -> Printf.sprintf "%d-of(%s)" k (String.concat ", " (List.map (render_lic keys) ms))

let rec lic_consts = function
  | L_key _ -> []
  | L_const k -> [ k ]
  | L_and (a, b) | L_or (a, b) -> lic_consts a @ lic_consts b
  | L_kof (_, ms) -> List.concat_map lic_consts ms

let issue_spec keys d s =
  let conditions, cond_consts = conditions_table.(s.cond) in
  let local_constants =
    List.map (fun k -> (Printf.sprintf "K%d" k, key_str keys.(k)))
      (List.sort_uniq Int.compare (lic_consts s.lic))
    @ cond_consts
  in
  Assertion.issue ~key:keys.(s.issuer) ~drbg:d ~local_constants ~licensees:(render_lic keys s.lic)
    ~conditions ()

let print_case (specs, ops) =
  let rec pl = function
    | L_key (k, up) -> Printf.sprintf "k%d%s" k (if up then "^" else "")
    | L_const k -> Printf.sprintf "K%d" k
    | L_and (a, b) -> Printf.sprintf "(%s && %s)" (pl a) (pl b)
    | L_or (a, b) -> Printf.sprintf "(%s || %s)" (pl a) (pl b)
    | L_kof (k, ms) -> Printf.sprintf "%d-of(%s)" k (String.concat ", " (List.map pl ms))
  in
  String.concat "; "
    (List.mapi (fun i s -> Printf.sprintf "c%d: k%d -> %s [cond %d]" i s.issuer (pl s.lic) s.cond) specs)
  ^ " | "
  ^ String.concat " "
      (List.map
         (function
           | Add i -> Printf.sprintf "+c%d" i
           | Remove i -> Printf.sprintf "-c%d" i
           | Revoke k -> Printf.sprintf "revoke k%d" k)
         ops)

let prop_indexed_matches_reference =
  QCheck.Test.make ~name:"indexed session = list reference on random delegation graphs" ~count:40
    (QCheck.make ~print:print_case gen_case)
    (fun (specs, ops) ->
      let keys = Lazy.force pool in
      let d = Drbg.create ~seed:"keynote-oracle-nonces" in
      let creds = Array.of_list (List.map (issue_spec keys d) specs) in
      let policy =
        [ policy_trusting keys.(0);
          Assertion.policy
            ~licensees:(Printf.sprintf "%s || %s" (quoted keys.(1)) (quoted keys.(2)))
            ~conditions:"HANDLE == \"1\" -> \"RX\";" () ]
      in
      let session = Session.create ~values:octal_values ~policy () in
      (* The model store: insertion order, deduplicated by fingerprint. *)
      let model = ref [] in
      let fp = Assertion.fingerprint in
      let apply = function
        | Add i ->
          (match Session.add_credential session creds.(i) with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "add refused: %s" e);
          if not (List.exists (fun a -> fp a = fp creds.(i)) !model) then
            model := !model @ [ creds.(i) ]
        | Remove i ->
          let present = List.exists (fun a -> fp a = fp creds.(i)) !model in
          model := List.filter (fun a -> fp a <> fp creds.(i)) !model;
          if Session.remove_credential session ~fingerprint:(fp creds.(i)) <> present then
            QCheck.Test.fail_reportf "remove c%d: presence disagrees" i
        | Revoke k ->
          let mine, rest =
            List.partition
              (fun a -> Ast.principal_equal a.Assertion.authorizer (key_str keys.(k)))
              !model
          in
          model := rest;
          let n = Session.remove_authored session ~authorizer:(key_str keys.(k)) in
          if n <> List.length mine then
            QCheck.Test.fail_reportf "revoke k%d purged %d, expected %d" k n (List.length mine)
      in
      let requester_sets =
        [] :: [ String.uppercase_ascii (key_str keys.(3)) ] :: [ key_str keys.(1); key_str keys.(2) ]
        :: List.init pool_size (fun k -> [ key_str keys.(k) ])
      in
      let attribute_sets =
        [ [ ("app_domain", "DisCFS"); ("HANDLE", "1") ]; [ ("HANDLE", "2"); ("lvl", "lo") ];
          [ ("app_domain", "DisCFS"); ("HANDLE", "17") ]; [ ("HANDLE", "10.0") ];
          [ ("app_domain", "DisCFS") ] (* no HANDLE *); [ ("HANDLE", "5"); ("app_domain", "DisCFS") ] ]
      in
      let agree () =
        if List.map fp (Session.credentials session) <> List.map fp !model then
          QCheck.Test.fail_report "Session.credentials lost insertion order";
        List.iter
          (fun requesters ->
            List.iter
              (fun attributes ->
                let q = { Compliance.requesters; attributes; values = octal_values } in
                let want = Reference.check ~assume_verified:true ~policy ~credentials:!model q in
                let got = Session.query session ~requesters ~attributes in
                let listed = Compliance.check ~assume_verified:true ~policy ~credentials:!model q in
                if got.Compliance.level <> want.Compliance.level then
                  QCheck.Test.fail_reportf "session level %d, reference %d" got.level want.level;
                if listed <> want then QCheck.Test.fail_report "list entry point disagrees")
              attribute_sets)
          requester_sets
      in
      List.iter (fun op -> apply op; agree ()) ops;
      true)

let suite =
  [
    Alcotest.test_case "numeric operators" `Quick test_numeric_ops;
    Alcotest.test_case "string operators" `Quick test_string_ops;
    Alcotest.test_case "action attributes" `Quick test_attributes;
    Alcotest.test_case "regex operator" `Quick test_regex_op;
    Alcotest.test_case "evaluation errors unsatisfy clause" `Quick test_eval_errors_unsatisfy;
    Alcotest.test_case "program max semantics" `Quick test_program_max_semantics;
    Alcotest.test_case "nested programs" `Quick test_nested_program;
    Alcotest.test_case "special attributes" `Quick test_special_attributes;
    Alcotest.test_case "licensees parsing" `Quick test_licensees_parse;
    Alcotest.test_case "licensees local constants" `Quick test_licensees_resolve;
    Alcotest.test_case "parse figure 5 shape" `Quick test_assertion_parse_figure5;
    Alcotest.test_case "sign and verify" `Quick test_assertion_sign_verify;
    Alcotest.test_case "sha256 signature variant" `Quick test_sha256_signatures;
    Alcotest.test_case "tampered assertion" `Quick test_assertion_tamper;
    Alcotest.test_case "parse errors" `Quick test_assertion_parse_errors;
    Alcotest.test_case "rfc 2704 conformance" `Quick test_rfc2704_conformance;
    Alcotest.test_case "local constants" `Quick test_local_constants;
    Alcotest.test_case "direct authorization" `Quick test_direct_authorization;
    Alcotest.test_case "figure-1 delegation chain" `Quick test_delegation_chain_figure1;
    Alcotest.test_case "12-link chain" `Slow test_long_chain;
    Alcotest.test_case "threshold licensees" `Quick test_threshold;
    Alcotest.test_case "conjunction licensees" `Quick test_conjunction_licensees;
    Alcotest.test_case "forged credential ignored" `Quick test_forged_credential_ignored;
    Alcotest.test_case "delegation cycle terminates" `Quick test_delegation_cycle;
    Alcotest.test_case "time-of-day policy" `Quick test_time_of_day_policy;
    Alcotest.test_case "empty licensees" `Quick test_empty_licensees_grants_nothing;
    Alcotest.test_case "handle guards read off the conditions" `Quick test_handle_guards;
    Alcotest.test_case "persistent session" `Quick test_session;
    QCheck_alcotest.to_alcotest prop_chain_value_is_min;
    QCheck_alcotest.to_alcotest prop_indexed_matches_reference;
  ]
