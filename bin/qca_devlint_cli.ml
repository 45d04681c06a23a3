(* Domain-safety / concurrency-discipline linter over the project's own
   sources (see Devlint for the rule catalogue and waiver syntax).

   Exit codes: 0 clean, 1 findings (unwaived violations), 3 invalid
   input (unreadable path, unknown flag). *)

open Cmdliner
module Devlint = Qca_analysis.Devlint

let run format rules paths =
  match Devlint.lint_paths paths with
  | exception Sys_error msg ->
    prerr_endline ("error: " ^ msg);
    3
  | findings ->
    if rules then
      List.iter
        (fun (id, doc) -> Format.printf "%-12s %s@." id doc)
        Devlint.rule_catalogue;
    (match format with
    | `Json -> print_string (Devlint.to_json findings)
    | `Text ->
      Format.printf "%a" Devlint.pp_text findings;
      if findings = [] then Format.printf "qca-devlint: clean@."
      else begin
        let n = List.length findings in
        let nf =
          List.length
            (List.sort_uniq compare
               (List.map (fun f -> f.Devlint.f_file) findings))
        in
        Format.printf "qca-devlint: %d finding%s in %d file%s@." n
          (if n = 1 then "" else "s")
          nf
          (if nf = 1 then "" else "s")
      end);
    if findings = [] then 0 else 1

let format_arg =
  let doc = "Output format: $(b,text) (one file:line:col line per finding) \
             or $(b,json) (array of finding objects, for CI annotation)." in
  let fmt = Arg.enum [ ("text", `Text); ("json", `Json) ] in
  Arg.(value & opt fmt `Text & info [ "format" ] ~docv:"FMT" ~doc)

let rules_arg =
  let doc = "Print the rule catalogue before the findings." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let paths_arg =
  let doc =
    "Files or directory trees to lint (every .ml file, recursively; \
     _build and dot-directories are skipped)."
  in
  Arg.(value & pos_all string [ "lib"; "bin" ] & info [] ~docv:"PATH" ~doc)

let cmd =
  let doc = "lint the project sources for domain-safety violations" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses the project's own .ml sources and enforces the \
         concurrency-correctness rules: top-level mutable state must be \
         mutex-guarded, Atomic, or carry an explicit [@@qca.domain_safe \
         \"why\"] waiver (QCA-MUT-001); no blocking calls inside a \
         Mutex.lock..unlock span (QCA-LCK-002); raw data-plane Unix \
         syscalls in lib/serve must go through Io (QCA-IO-003); no \
         Printf/Format, Trace spans, Array.blit or Array.sort inside \
         [@qca.hot] regions (QCA-HOT-004); every \
         waiver needs a justification string (QCA-WVR-005).";
      `P "The tree is kept lint-clean: any finding is a regression and the \
          exit code is 1.";
    ]
  in
  Cmd.v (Cmd.info "qca-devlint" ~doc ~man)
    Term.(const run $ format_arg $ rules_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
