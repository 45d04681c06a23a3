(* Command-line circuit adaptation: read a circuit in the textual
   format (see lib/circuit/parse.mli), adapt it to the spin-qubit
   hardware with the chosen method, print the adapted circuit and the
   before/after metrics.

   Exit codes: 0 full service, 2 degraded (a budget tripped and a
   fallback tier or incumbent served the request), 3 invalid input,
   1 certification failure under --certify. *)

open Cmdliner
module Circuit = Qca_circuit.Circuit
module Parse = Qca_circuit.Parse
module Solver = Qca_sat.Solver
module Trace = Qca_obs.Trace
module Cli = Qca_obs.Cli
open Qca_adapt

let run method_name hw_name input show_circuit timeout_ms max_conflicts
    certify metrics trace_out =
  Cli.obs_start ~metrics ~trace_out;
  let ( let* ) = Result.bind in
  let result =
    let* method_ = Pipeline.method_of_string method_name in
    let* hw = Hardware.of_string hw_name in
    let* text = Cli.read_input input in
    let* circuit =
      match Trace.span "parse" (fun () -> Parse.parse text) with
      | Ok c -> Ok c
      | Error msg -> Error ("parse error: " ^ msg)
    in
    let budget =
      Solver.budget ?timeout_ms
        ?max_conflicts:(Option.map (fun n -> max 0 n) max_conflicts)
        ()
    in
    let o = Pipeline.adapt_governed ~budget hw method_ circuit in
    let baseline =
      Metrics.summarize hw (Pipeline.adapt hw Pipeline.Direct circuit)
    in
    let s = Metrics.summarize hw o.Pipeline.circuit in
    if show_circuit then print_string (Parse.to_text o.Pipeline.circuit);
    Format.printf "method       : %s (hardware %s)@."
      (Pipeline.method_name method_) hw.Hardware.name;
    Format.printf "served       : tier %s%s@."
      (Pipeline.tier_name o.Pipeline.tier)
      (match o.Pipeline.reason with
      | None -> ""
      | Some r -> Printf.sprintf " (%s)" (Solver.string_of_stop_reason r));
    Format.printf "budget spent : %d conflicts, %d propagations, %.1f ms@."
      o.Pipeline.spent.Pipeline.conflicts
      o.Pipeline.spent.Pipeline.propagations
      o.Pipeline.spent.Pipeline.elapsed_ms;
    Format.printf "adapted      : %a@." Metrics.pp s;
    Format.printf "vs direct    : fidelity %+.2f%%, idle time %+.2f%%@."
      (Metrics.fidelity_change_pct ~baseline s)
      (-.Metrics.idle_decrease_pct ~baseline s);
    let info = o.Pipeline.info in
    if info.Pipeline.substitutions_considered > 0 then
      Format.printf "substitutions: %d considered, %d chosen (%d OMT rounds, %s)@."
        info.Pipeline.substitutions_considered
        info.Pipeline.substitutions_chosen info.Pipeline.omt_rounds
        (match info.Pipeline.gap_pct with
        | _ when info.Pipeline.proven_optimal -> "proven optimal"
        | Some g -> Printf.sprintf "anytime, gap %.1f%%" g
        | None -> "anytime");
    let cert_bad =
      certify
      &&
      let issues =
        Trace.span "certify" (fun () ->
            Lint.certify_adaptation hw ~original:circuit
              ~adapted:o.Pipeline.circuit
              ?claimed_makespan:o.Pipeline.claimed_makespan ())
      in
      List.iter (fun i -> Format.printf "certify      : %a@." Lint.pp_issue i) issues;
      Format.printf "certificate  : %s@."
        (if Lint.errors issues = [] then "certified" else "NOT certified");
      Lint.errors issues <> []
    in
    Ok (if cert_bad then 1 else if Pipeline.degraded o then 2 else 0)
  in
  Cli.obs_stop ~metrics ~trace_out;
  match result with
  | Ok code -> code
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3

let method_arg =
  let doc =
    "Adaptation method: " ^ String.concat ", " Pipeline.method_names ^ "."
  in
  Arg.(value & opt string "sat-p" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let hw_arg =
  let doc = "Hardware timing variant (Table I): d0 or d1." in
  Arg.(value & opt string "d0" & info [ "hw" ] ~docv:"HW" ~doc)

let input_arg =
  let doc = "Input circuit file in the textual format, or - for stdin." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let show_arg =
  let doc = "Print the adapted circuit." in
  Arg.(value & flag & info [ "c"; "circuit" ] ~doc)

let timeout_arg =
  let doc =
    "Wall-clock budget in milliseconds. On exhaustion the degradation \
     ladder serves the request from a cheaper tier (exit code 2)."
  in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let conflicts_arg =
  let doc = "Cap on CDCL conflicts across all solver calls." in
  Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N" ~doc)

let certify_arg =
  let doc =
    "Certify the adapted circuit end to end: unitary equivalence with the \
     input and recomputed metrics against the claimed objective. A failed \
     certificate exits 1."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

let metrics_arg =
  let doc = "Print the metrics-registry summary to stderr on exit." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_out_arg =
  let doc =
    "Record a trace of every pipeline phase and write it as Chrome \
     trace_event JSON to $(docv) (open in chrome://tracing or Perfetto). \
     Implies $(b,--metrics) collection; the snapshot is embedded in the \
     trace."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "adapt a quantum circuit to the spin-qubit gate set" in
  Cmd.v (Cmd.info "qca-adapt" ~doc)
    Term.(
      const run $ method_arg $ hw_arg $ input_arg $ show_arg $ timeout_arg
      $ conflicts_arg $ certify_arg $ metrics_arg $ trace_out_arg)

let () = exit (Cmd.eval' cmd)
