(* Regenerate the paper's evaluation artifacts from the command line.

   Exit codes: 0 full service, 2 at least one row was served degraded
   under --timeout-ms, 3 invalid input (unknown artifact/hardware). *)

open Cmdliner
module E = Qca_experiments.Experiments
module Workloads = Qca_workloads.Workloads
module Hardware = Qca_adapt.Hardware
module Clock = Qca_util.Clock
module Trace = Qca_obs.Trace
module Cli = Qca_obs.Cli

let fmt = Format.std_formatter

(* One line per completed adaptation so long matrix runs show motion;
   stderr keeps the artifact tables on stdout clean. Under --jobs the
   callback fires from worker domains; each line is a single atomic
   flushed write, so lines interleave but never tear. *)
let progress_line t_start p =
  Printf.eprintf "[%8.1fs] %-18s %-10s tier=%-16s %8.1f ms\n%!"
    (Clock.ms_between t_start (Clock.now ()) /. 1000.0)
    p.E.p_case p.E.p_method p.E.p_tier p.E.p_elapsed_ms

let artifacts = [ "table1"; "eq11"; "fig5"; "fig6"; "fig7"; "all" ]

let suite fast =
  if fast then Workloads.simulation_suite () else Workloads.evaluation_suite ()

let run what hw_name fast timeout_ms jobs csv_out metrics trace_out =
  Cli.obs_start ~metrics ~trace_out;
  let checked =
    if List.mem what artifacts then Hardware.of_string hw_name
    else
      Error
        (Printf.sprintf "unknown artifact %S (expected %s)" what
           (String.concat ", " artifacts))
  in
  match checked with
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3
  | Ok hw ->
    let on_progress = progress_line (Clock.now ()) in
    let some_degraded = ref false in
    let note rows =
      if List.exists (fun r -> r.E.degraded) rows then some_degraded := true;
      (match csv_out with
      | None -> ()
      | Some file ->
        Out_channel.with_open_text file (fun oc ->
            Out_channel.output_string oc (E.csv_of_rows rows)));
      rows
    in
    let note_sim rows =
      if List.exists (fun r -> r.E.sim_degraded) rows then some_degraded := true;
      rows
    in
    let figs56 () =
      note
        (Trace.span "fig5_fig6" (fun () ->
             E.fig5_fig6 ?timeout_ms ~jobs ~on_progress hw (suite fast)))
    in
    let sim () =
      note_sim
        (Trace.span "fig7" (fun () ->
             E.fig7 ?timeout_ms ~jobs ~on_progress hw
               (Workloads.simulation_suite ())))
    in
    (match what with
    | "table1" -> E.print_table1 fmt
    | "eq11" -> E.print_eq11_example fmt
    | "fig5" -> E.print_fig5 fmt (figs56 ())
    | "fig6" -> E.print_fig6 fmt (figs56 ())
    | "fig7" -> E.print_fig7 fmt (sim ())
    | _ ->
      E.print_table1 fmt;
      E.print_eq11_example fmt;
      let rows = figs56 () in
      E.print_fig5 fmt rows;
      E.print_fig6 fmt rows;
      let sim_rows = sim () in
      E.print_fig7 fmt sim_rows;
      E.print_headline fmt (E.headline_of rows sim_rows));
    Cli.obs_stop ~metrics ~trace_out;
    if !some_degraded then begin
      prerr_endline "warning: some rows were served degraded under the budget";
      2
    end
    else 0

let what_arg =
  let doc = "Artifact: table1, eq11, fig5, fig6, fig7, or all." in
  Arg.(value & pos 0 string "all" & info [] ~docv:"WHAT" ~doc)

let hw_arg =
  let doc = "Hardware timing variant: d0 or d1." in
  Arg.(value & opt string "d0" & info [ "hw" ] ~docv:"HW" ~doc)

let fast_arg =
  let doc = "Use the smaller simulation suite for fig5/fig6 too." in
  Arg.(value & flag & info [ "fast" ] ~doc)

let timeout_arg =
  let doc =
    "Per-adaptation wall-clock budget in milliseconds; degraded rows \
     are flagged and the exit code becomes 2."
  in
  Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)

let jobs_arg =
  let doc =
    "Spread the (case × method) adaptation matrix over $(docv) OCaml \
     domains. Row order is unchanged; progress lines may interleave. \
     1 = sequential. Defaults to $(b,QCA_JOBS) when set."
  in
  Arg.(value & opt int Cli.default_jobs & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let csv_arg =
  let doc =
    "Also write the Fig. 5/6 rows as CSV to $(docv), including the \
     telemetry columns (tier, elapsed_ms, conflicts, omt_rounds)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

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
  let doc = "regenerate the evaluation tables and figures" in
  Cmd.v
    (Cmd.info "qca-experiments" ~doc)
    Term.(
      const run $ what_arg $ hw_arg $ fast_arg $ timeout_arg $ jobs_arg
      $ csv_arg $ metrics_arg $ trace_out_arg)

let () = exit (Cmd.eval' cmd)
