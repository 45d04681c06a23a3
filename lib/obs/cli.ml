let default_jobs =
  match Option.bind (Sys.getenv_opt "QCA_JOBS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 1

let obs_stop ~metrics ~trace_out =
  (match trace_out with Some file -> Trace.write_chrome file | None -> ());
  if metrics then Format.eprintf "%a@." Metrics.pp_summary ()

(* An interrupted run must not lose its trace: flush the observability
   output on SIGINT/SIGTERM as well as on the normal exit path. *)
let obs_start ~metrics ~trace_out =
  if metrics || trace_out <> None then begin
    Metrics.set_enabled true;
    Sigexit.install ~flush:(fun () -> obs_stop ~metrics ~trace_out)
  end;
  if trace_out <> None then Trace.set_enabled true

let read_input = function
  | "-" -> Ok (In_channel.input_all stdin)
  | path -> (
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error msg -> Error msg)
