(* Stand-alone DIMACS front end for the CDCL solver, with
   SAT-competition-style output.

   Exit codes: 10 SAT, 20 UNSAT, 2 unknown (budget exhausted),
   3 invalid input, 1 certification failure under --certify. *)

open Cmdliner
module Dimacs = Qca_sat.Dimacs
module Solver = Qca_sat.Solver
module Drup = Qca_check.Drup
module Trace = Qca_obs.Trace
module Cli = Qca_obs.Cli

let run input no_vsids no_restarts no_phase_saving stats timeout_ms
    max_conflicts certify metrics trace_out =
  Cli.obs_start ~metrics ~trace_out;
  match
    Result.bind (Cli.read_input input) (fun text ->
        Trace.span "parse" (fun () -> Dimacs.parse text))
  with
  | Error msg ->
    prerr_endline ("c parse error: " ^ msg);
    3
  | Ok problem -> (
    let options =
      {
        Solver.default_options with
        use_vsids = not no_vsids;
        use_restarts = not no_restarts;
        use_phase_saving = not no_phase_saving;
      }
    in
    let budget =
      Solver.budget ?timeout_ms
        ?max_conflicts:(Option.map (fun n -> max 0 n) max_conflicts)
        ()
    in
    let solver =
      Trace.span "encode" (fun () -> Dimacs.load ~options ~proof:certify problem)
    in
    let result = Trace.span "solve" (fun () -> Solver.solve ~budget solver) in
    (* Independent certification of the verdict: model evaluation for
       SAT, DRUP proof replay for UNSAT. The check runs under the same
       budget as the search, so it degrades to "unchecked" rather than
       hang past a deadline. *)
    let cert_exit =
      if not certify then None
      else begin
        let o =
          Trace.span "certify" (fun () ->
              Drup.certify ~budget ~num_vars:problem.Dimacs.num_vars
                problem.Dimacs.clauses ~solver result)
        in
        Printf.printf "c certificate: %s\n"
          (Format.asprintf "%a" Drup.pp_verdict o.Drup.verdict);
        if o.Drup.additions + o.Drup.deletions + o.Drup.propagations > 0 then
          Printf.printf "c proof: %d additions, %d deletions, %d propagations\n"
            o.Drup.additions o.Drup.deletions o.Drup.propagations;
        match o.Drup.verdict with Drup.Refuted _ -> Some 1 | _ -> None
      end
    in
    if stats then begin
      let st = Solver.stats solver in
      Printf.printf "c conflicts    %d\n" st.Solver.conflicts;
      Printf.printf "c decisions    %d\n" st.Solver.decisions;
      Printf.printf "c propagations %d\n" st.Solver.propagations;
      Printf.printf "c restarts     %d\n" st.Solver.restarts;
      Printf.printf "c learnt       %d (deleted %d)\n" st.Solver.learnt_clauses
        st.Solver.deleted_clauses;
      Printf.printf "c minimized    %d literals\n" st.Solver.minimized_literals;
      Printf.printf "c arena gcs    %d\n" st.Solver.arena_gcs;
      Printf.printf "c avg lbd      %.2f\n" st.Solver.avg_lbd
    end;
    let verdict_exit =
      match result with
      | Solver.Unsat ->
        print_endline "s UNSATISFIABLE";
        20
      | Solver.Sat ->
        print_endline "s SATISFIABLE";
        let model = Solver.model solver in
        let buf = Buffer.create 256 in
        Buffer.add_string buf "v";
        Array.iteri
          (fun v b ->
            Buffer.add_string buf (Printf.sprintf " %d" (if b then v + 1 else -(v + 1))))
          model;
        Buffer.add_string buf " 0";
        print_endline (Buffer.contents buf);
        10
      | Solver.Unknown reason ->
        Printf.printf "c stopped: %s\n" (Solver.string_of_stop_reason reason);
        print_endline "s UNKNOWN";
        2
    in
    Cli.obs_stop ~metrics ~trace_out;
    match cert_exit with Some code -> code | None -> verdict_exit)

let input_arg =
  let doc = "DIMACS CNF file, or - for stdin." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let no_vsids = Arg.(value & flag & info [ "no-vsids" ] ~doc:"Disable VSIDS.")
let no_restarts = Arg.(value & flag & info [ "no-restarts" ] ~doc:"Disable restarts.")

let no_phase_saving =
  Arg.(
    value & flag
    & info [ "no-phase-saving" ]
        ~doc:"Disable phase saving (decisions use the fixed initial polarity).")

let stats = Arg.(value & flag & info [ "s"; "stats" ] ~doc:"Print solver statistics.")

let timeout_arg =
  let doc = "Wall-clock budget in milliseconds (exit 2 on exhaustion)." in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let conflicts_arg =
  let doc = "Cap on CDCL conflicts (exit 2 on exhaustion)." in
  Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N" ~doc)

let certify_arg =
  let doc =
    "Record a DRUP proof and independently certify the verdict (model \
     evaluation for SAT, proof replay for UNSAT). A refuted certificate \
     exits 1."
  in
  Arg.(value & flag & info [ "certify" ] ~doc)

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
  let doc = "CDCL SAT solver (DIMACS CNF)" in
  Cmd.v (Cmd.info "qca-sat" ~doc)
    Term.(
      const run $ input_arg $ no_vsids $ no_restarts $ no_phase_saving
      $ stats $ timeout_arg
      $ conflicts_arg $ certify_arg $ metrics_arg $ trace_out_arg)

let () = exit (Cmd.eval' cmd)
