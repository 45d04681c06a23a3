(* Static model linter / adaptation certifier.

   Without --certify: partition the circuit, enumerate the substitution
   space and lint the SMT model inputs (precedence acyclicity, block
   coverage, Eq. 1 mutual-exclusion pairs, delta sanity vs Table I).

   With --certify: additionally run the governed adaptation and check
   the result end to end (native gates, unitary equivalence, recomputed
   duration/fidelity vs the solver's claim).

   Exit codes: 0 clean (warnings allowed), 1 lint/certification errors,
   3 invalid input. *)

open Cmdliner
module Block = Qca_circuit.Block
module Parse = Qca_circuit.Parse
module Solver = Qca_sat.Solver
module Trace = Qca_obs.Trace
module Cli = Qca_obs.Cli
open Qca_adapt

let report name issues =
  List.iter (fun i -> Format.printf "%s: %a@." name Lint.pp_issue i) issues;
  Lint.errors issues <> []

let run input hw_name certify method_name timeout_ms metrics trace_out =
  Cli.obs_start ~metrics ~trace_out;
  let ( let* ) = Result.bind in
  let result =
    let* hw = Hardware.of_string hw_name in
    let* method_ = Pipeline.method_of_string method_name in
    let* text = Cli.read_input input in
    let* circuit =
      match Trace.span "parse" (fun () -> Parse.parse text) with
      | Ok c -> Ok c
      | Error msg -> Error ("parse error: " ^ msg)
    in
    let part = Trace.span "partition" (fun () -> Block.partition circuit) in
    let subs = Trace.span "match" (fun () -> Rules.find_all hw part) in
    let model_issues =
      Trace.span "lint" (fun () -> Lint.check_model hw part subs)
    in
    let model_bad = report input model_issues in
    Format.printf "%s: model lint: %d block(s), %d substitution(s), %d issue(s)@."
      input
      (Array.length part.Block.blocks)
      (List.length subs) (List.length model_issues);
    let certify_bad =
      if not certify then false
      else begin
        let budget = Solver.budget ?timeout_ms () in
        let o = Pipeline.adapt_governed ~budget hw method_ circuit in
        let issues =
          Trace.span "certify" (fun () ->
              Lint.certify_adaptation hw ~original:circuit
                ~adapted:o.Pipeline.circuit
                ?claimed_makespan:o.Pipeline.claimed_makespan ())
        in
        let bad = report input issues in
        Format.printf "%s: %s adaptation (tier %s): %s@." input
          (Pipeline.method_name method_)
          (Pipeline.tier_name o.Pipeline.tier)
          (if bad then "NOT certified" else "certified");
        bad
      end
    in
    Ok (if model_bad || certify_bad then 1 else 0)
  in
  Cli.obs_stop ~metrics ~trace_out;
  match result with
  | Ok code -> code
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3

let input_arg =
  let doc = "Input circuit file in the textual format, or - for stdin." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let hw_arg =
  let doc = "Hardware timing variant (Table I): d0 or d1." in
  Arg.(value & opt string "d0" & info [ "hw" ] ~docv:"HW" ~doc)

let certify_arg =
  let doc =
    "Also run the adaptation and certify the result end to end (unitary \
     equivalence, recomputed metrics vs the claimed objective)."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let method_arg =
  let doc =
    "Adaptation method certified under --certify: "
    ^ String.concat ", " Pipeline.method_names
    ^ "."
  in
  Arg.(value & opt string "sat-p" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let timeout_arg =
  let doc = "Wall-clock budget for --certify's adaptation, milliseconds." in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let metrics_arg =
  let doc = "Print the metrics-registry summary to stderr on exit." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_out_arg =
  let doc =
    "Write a Chrome trace_event JSON trace of the run to $(docv) \
     (open in chrome://tracing or Perfetto)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "lint the SMT adaptation model and certify adaptations" in
  Cmd.v (Cmd.info "qca-lint" ~doc)
    Term.(
      const run $ input_arg $ hw_arg $ certify_arg $ method_arg $ timeout_arg
      $ metrics_arg $ trace_out_arg)

let () = exit (Cmd.eval' cmd)
