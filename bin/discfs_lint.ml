(* discfs_lint: the repo's static-analysis driver.

   - check:       run every typed-AST rule over the .cmt files dune
                  produced for lib/, bin/, bench/ and test/, plus the
                  mli-coverage walk over lib/ sources, the races
                  escape analysis (Pass D), the exports that nothing
                  uses or only tests use without a stated reason
                  (Pass E, which also reads examples/ and perfbench/)
                  and the markdown cross-reference pass.
                  Each unit is read once. This is what `dune build
                  @lint` runs; it needs the .cmt files of `dune
                  build @check`.
   - cmt:         lint specific .cmt files under a forced role — used
                  by the fixture tests and the golden report.
   - races:       the spawn-point shared-state escape analysis alone,
                  with its full inventory available as --json.
   - credentials: statically analyze a KeyNote credential store
                  (Pass B) before deployment.
   - docs:        cross-reference the markdown documentation (Pass C)
                  alone; `check` includes this pass unless told not
                  to.

   Exit codes, uniform across passes: 0 clean, 1 findings, 2 usage or
   internal error (Cmdliner's 124/125 are folded into 2). *)

open Cmdliner

let ( // ) = Filename.concat

let print_findings findings =
  List.iter (fun f -> print_endline (Lint.Rules.render_finding f)) findings

let finish ~exit_zero n_findings =
  if n_findings = 0 || exit_zero then 0 else 1

let json_of_rule_findings findings =
  String.concat ","
    (List.map
       (fun f ->
         Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
           (Lint.Source.json_escape f.Lint.Rules.file) f.Lint.Rules.line f.Lint.Rules.col
           (Lint.Rules.rule_name f.Lint.Rules.rule)
           (Lint.Source.json_escape f.Lint.Rules.message))
       findings)

let json_of_doc_findings findings =
  String.concat ","
    (List.map
       (fun f ->
         Printf.sprintf "{\"file\":\"%s\",\"line\":%d,\"rule\":\"doc\",\"message\":\"%s\"}"
           (Lint.Source.json_escape f.Lint.Doccheck.file)
           f.Lint.Doccheck.line
           (Lint.Source.json_escape f.Lint.Doccheck.message))
       findings)

(* --- check ------------------------------------------------------------- *)

let default_scan_dirs = [ "lib"; "bin"; "bench"; "test" ]
let default_excludes = [ "test/lint_fixtures"; "test/race_fixtures"; "test/export_fixtures" ]

(* Pass E reads every tree that may use a library export, whatever
   the directories given to Passes A and D. *)
let reference_dirs = [ "lib"; "bin"; "bench"; "examples"; "perfbench"; "test" ]

let is_under prefix path =
  String.length path >= String.length prefix && String.sub path 0 (String.length prefix) = prefix

(* Pass C over the whole repo: its markdown, and the counter catalogue
   against lib/. *)
let repo_doc_findings root =
  List.sort_uniq Lint.Doccheck.compare_finding
    (Lint.Doccheck.check ~root (Lint.Doccheck.default_files ~root)
    @ Lint.Doccheck.check_counters ~root ~catalogue:Lint.Doccheck.catalogue_file ~src:"lib")

(* Every unit is read once and handed to each pass that wants it:
   Pass A (typed-tree rules) and Pass D (the spawn-point escape
   analysis) over [dirs], Pass E (exports nothing or only tests use)
   over the lib/ interfaces and every implementation under
   [reference_dirs]. *)
let check root dirs excludes exit_zero quiet no_docs json =
  let dirs = if dirs = [] then default_scan_dirs else dirs in
  let excludes = excludes @ default_excludes in
  let excluded f = List.exists (fun e -> is_under e f) excludes in
  let errors = ref [] in
  let findings = ref [] and race_entries = ref [] in
  let n_modules = ref 0 in
  let exports = Lint.Exports.create () in
  let load path k =
    match Lint.Source.load path with Error m -> errors := m :: !errors | Ok u -> k u
  in
  List.iter
    (fun cmti -> load cmti (Lint.Exports.declare exports))
    (Lint.Source.scan ~ext:".cmti" (root // "lib"));
  List.iter
    (fun dir ->
      let linted = List.mem dir dirs in
      List.iter
        (fun cmt ->
          load cmt (fun u ->
              Lint.Exports.reference exports ~test:(is_under "test/" u.Lint.Source.src) u;
              if linted then begin
                (match Lint.Rules.check_unit ~source_root:root u with
                | Error m -> errors := m :: !errors
                | Ok fs ->
                  incr n_modules;
                  findings := List.filter (fun f -> not (excluded f.Lint.Rules.file)) fs @ !findings);
                match Lint.Races.check_unit ~source_root:root u with
                | Error _ -> ()
                | Ok es ->
                  race_entries :=
                    List.filter (fun e -> not (excluded e.Lint.Races.e_file)) es @ !race_entries
              end))
        (Lint.Source.scan ~ext:".cmt" (root // dir)))
    (dirs @ List.filter (fun d -> not (List.mem d dirs)) reference_dirs);
  findings := Lint.Rules.check_mli_coverage ~source_root:root "lib" @ !findings;
  let findings = List.sort_uniq Lint.Rules.compare_finding !findings in
  (* The race inventory's clean entries are dropped here; `discfs_lint
     races --json` has the full listing. *)
  let race_entries = List.sort_uniq Lint.Races.compare_entry !race_entries in
  let race_violations = List.filter Lint.Races.is_violation race_entries in
  let exports = Lint.Exports.exports exports ~source_root:root in
  let export_findings = List.filter Lint.Exports.is_finding exports in
  let doc_findings = if no_docs then [] else repo_doc_findings root in
  if json then
    Printf.printf
      "{\"pass\":\"check\",\"findings\":[%s],\"doc_findings\":[%s],\"races\":%s,\"exports\":%s,\"knobs\":%s,\"modules\":%d}\n"
      (json_of_rule_findings findings)
      (json_of_doc_findings doc_findings)
      (Lint.Races.json_of_entries race_entries)
      (Lint.Exports.json_of_exports exports)
      (Lint.Exports.json_of_knobs exports)
      !n_modules
  else begin
    print_findings findings;
    List.iter (fun e -> print_endline (Lint.Races.render_entry e)) race_violations;
    List.iter (fun x -> print_endline (Lint.Exports.render x)) export_findings;
    List.iter (fun f -> print_endline (Lint.Doccheck.render_finding f)) doc_findings
  end;
  List.iter (fun m -> prerr_endline ("discfs_lint: warning: " ^ m)) (List.rev !errors);
  let total =
    List.length findings + List.length race_violations + List.length export_findings
    + List.length doc_findings
  in
  if not quiet then
    Printf.eprintf
      "discfs_lint: %d finding(s) in %d module(s), %d race finding(s), %d export finding(s), %d \
       doc finding(s)\n%!"
      (List.length findings) !n_modules
      (List.length race_violations)
      (List.length export_findings) (List.length doc_findings);
  finish ~exit_zero total

let root_arg =
  Arg.(
    value & opt dir "."
    & info [ "root" ] ~docv:"DIR"
        ~doc:
          "Root under which sources (for suppression comments and mli coverage) and .cmt \
           trees are resolved. Inside the dune @lint rule this is the build context root.")

let exit_zero_arg =
  Arg.(
    value & flag
    & info [ "exit-zero" ] ~doc:"Report findings but exit 0 anyway (for golden tests).")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Machine-readable JSON on stdout instead of the text report.")

let check_cmd =
  let dirs = Arg.(value & pos_all string [] & info [] ~docv:"DIR") in
  let excludes =
    Arg.(
      value & opt_all string []
      & info [ "exclude" ] ~docv:"PREFIX"
          ~doc:"Drop findings whose source path starts with $(docv). May be repeated.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No summary line on stderr.") in
  let no_docs =
    Arg.(value & flag & info [ "no-docs" ] ~doc:"Skip the markdown cross-reference pass.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Lint the whole repo's typed ASTs and docs (what dune build @lint runs)")
    Term.(const check $ root_arg $ dirs $ excludes $ exit_zero_arg $ quiet $ no_docs $ json_arg)

(* --- cmt --------------------------------------------------------------- *)

let role_conv =
  let parse = function
    | "lib" -> Ok Lint.Rules.Lib
    | "decode" -> Ok Lint.Rules.Decode
    | "data" -> Ok Lint.Rules.Data
    | "kernel" -> Ok Lint.Rules.Kernel
    | "exe" -> Ok Lint.Rules.Exe
    | s -> Error (`Msg ("unknown role: " ^ s))
  in
  let print fmt r =
    Format.pp_print_string fmt
      (match r with
      | Lint.Rules.Lib -> "lib"
      | Lint.Rules.Decode -> "decode"
      | Lint.Rules.Data -> "data"
      | Lint.Rules.Kernel -> "kernel"
      | Lint.Rules.Exe -> "exe")
  in
  Arg.conv (parse, print)

let cmt root role exit_zero json files =
  let findings = ref [] and errors = ref [] in
  List.iter
    (fun file ->
      let files = if Sys.is_directory file then Lint.Source.scan ~ext:".cmt" file else [ file ] in
      List.iter
        (fun f ->
          match Result.bind (Lint.Source.load f) (Lint.Rules.check_unit ?role ~source_root:root) with
          | Ok fs -> findings := fs @ !findings
          | Error m -> errors := m :: !errors)
        files)
    files;
  let findings = List.sort_uniq Lint.Rules.compare_finding !findings in
  if json then
    Printf.printf "{\"pass\":\"cmt\",\"findings\":[%s]}\n" (json_of_rule_findings findings)
  else print_findings findings;
  List.iter (fun m -> prerr_endline ("discfs_lint: warning: " ^ m)) (List.rev !errors);
  finish ~exit_zero (List.length findings)

let cmt_cmd =
  let role =
    Arg.(
      value
      & opt (some role_conv) None
      & info [ "role" ] ~docv:"lib|decode|data|kernel|exe"
          ~doc:"Force the rule set instead of inferring it from the source path.")
  in
  let files =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"CMT" ~doc:".cmt files or directories")
  in
  Cmd.v
    (Cmd.info "cmt" ~doc:"Lint specific .cmt files (fixture tests, golden report)")
    Term.(const cmt $ root_arg $ role $ exit_zero_arg $ json_arg $ files)

(* --- races ------------------------------------------------------------- *)

let races root dirs exit_zero json all files =
  let cmts =
    if files <> [] then
      List.concat_map
        (fun f -> if Sys.is_directory f then Lint.Source.scan ~ext:".cmt" f else [ f ])
        files
    else
      let dirs = if dirs = [] then [ "lib" ] else dirs in
      List.concat_map (fun dir -> Lint.Source.scan ~ext:".cmt" (root // dir)) dirs
  in
  let entries, errors = Lint.Races.scan ~source_root:root cmts in
  let violations = List.filter Lint.Races.is_violation entries in
  if json then print_endline (Lint.Races.json_of_entries entries)
  else
    List.iter
      (fun e -> print_endline (Lint.Races.render_entry e))
      (if all then entries else violations);
  List.iter (fun m -> prerr_endline ("discfs_lint: warning: " ^ m)) errors;
  finish ~exit_zero (List.length violations)

let races_cmd =
  let dirs =
    Arg.(
      value
      & opt_all string []
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Scan the .cmt trees under \\$(i,root)/$(docv) (default: lib). May repeat.")
  in
  let all =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Print the full inventory (mailbox-mediated, atomic-section and suppressed \
             entries included), not just the violations.")
  in
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"CMT" ~doc:"Specific .cmt files or directories (overrides --dir).")
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:
         "Shared-state escape analysis at spawn points (Pass D): mutable values captured \
          by closures handed to the scheduler, classified against the approved mediation \
          surfaces")
    Term.(const races $ root_arg $ dirs $ exit_zero_arg $ json_arg $ all $ files)

(* --- docs -------------------------------------------------------------- *)

let docs root exit_zero json files =
  let findings =
    if files = [] then repo_doc_findings root else Lint.Doccheck.check ~root files
  in
  if json then
    Printf.printf "{\"pass\":\"docs\",\"findings\":[%s]}\n" (json_of_doc_findings findings)
  else List.iter (fun f -> print_endline (Lint.Doccheck.render_finding f)) findings;
  finish ~exit_zero (List.length findings)

let docs_cmd =
  let files =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "Repo-relative markdown files (default: root *.md plus docs/, and the counter \
             catalogue against lib/).")
  in
  Cmd.v
    (Cmd.info "docs"
       ~doc:
         "Cross-reference the markdown docs (dead links, bad anchors, stale code refs, the \
          counter catalogue)")
    Term.(const docs $ root_arg $ exit_zero_arg $ json_arg $ files)

(* --- credentials ------------------------------------------------------- *)

let credentials dir now no_verify revoked_keys revoked_fps values exit_zero json =
  let config =
    {
      Credgraph.values =
        (match values with [] -> Credgraph.default_values | v -> v);
      now;
      revoked_keys;
      revoked_fingerprints = revoked_fps;
      verify_signatures = not no_verify;
    }
  in
  match Credgraph.run_dir ~config dir with
  | Error m ->
    prerr_endline ("discfs_lint: " ^ m);
    2
  | Ok report ->
    if json then
      Printf.printf
        "{\"pass\":\"credentials\",\"findings\":[%s],\"credentials\":%d,\"principals\":%d}\n"
        (String.concat ","
           (List.map
              (fun f ->
                Printf.sprintf
                  "{\"kind\":\"%s\",\"fingerprint\":%s,\"subject\":\"%s\",\"message\":\"%s\"}"
                  (Credgraph.kind_name f.Credgraph.kind)
                  (match f.Credgraph.fingerprint with
                  | None -> "null"
                  | Some fp -> Printf.sprintf "\"%s\"" (Lint.Source.json_escape fp))
                  (Lint.Source.json_escape f.Credgraph.subject)
                  (Lint.Source.json_escape f.Credgraph.message))
              report.Credgraph.findings))
        report.Credgraph.n_credentials report.Credgraph.n_principals
    else print_string (Credgraph.render report);
    finish ~exit_zero (List.length report.Credgraph.findings)

let credentials_cmd =
  let dir = Arg.(required & pos 0 (some dir) None & info [] ~docv:"STORE") in
  let now =
    Arg.(
      value
      & opt (some float) None
      & info [ "now" ] ~docv:"T"
          ~doc:"Virtual time for expiry checks; omit to skip the expired rule.")
  in
  let no_verify =
    Arg.(value & flag & info [ "no-verify" ] ~doc:"Skip DSA signature verification.")
  in
  let revoked_keys =
    Arg.(
      value & opt_all string []
      & info [ "revoked-key" ] ~docv:"PRINCIPAL" ~doc:"Treat this key as revoked. May repeat.")
  in
  let revoked_fps =
    Arg.(
      value & opt_all string []
      & info [ "revoked-fp" ] ~docv:"FINGERPRINT"
          ~doc:"Treat this credential fingerprint as revoked. May repeat.")
  in
  let values =
    Arg.(
      value
      & opt (list string) []
      & info [ "values" ] ~docv:"V1,V2,..."
          ~doc:"Ordered compliance values, lowest first (default the DisCFS set).")
  in
  Cmd.v
    (Cmd.info "credentials"
       ~doc:"Statically analyze a KeyNote credential store (cycles, dead and escalated chains)")
    Term.(
      const credentials $ dir $ now $ no_verify $ revoked_keys $ revoked_fps $ values
      $ exit_zero_arg $ json_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "discfs_lint" ~version:"1.0"
       ~doc:"Static analysis for the DisCFS tree and its credential stores")
    [ check_cmd; cmt_cmd; races_cmd; docs_cmd; credentials_cmd ]

(* Fold Cmdliner's cli-error (124) and internal-error (125) statuses
   into the documented "2 = usage or internal error" contract. *)
let () =
  let code = Cmd.eval' main_cmd in
  exit (if code >= 124 then 2 else code)
