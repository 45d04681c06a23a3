(* The adaptation-as-a-service daemon and its companion client.

   `qca-serve daemon` runs the long-lived HTTP/1.1 server; `qca-serve
   adapt`, `ping` and `metrics` are one-shot clients of its `POST
   /adapt`, `GET /healthz` and `GET /metrics?format=human` endpoints,
   for scripting and smoke tests.

   Client exit codes mirror qca-adapt: 0 full service, 2 degraded
   (fallback tier or shed), 3 invalid input / transport failure. *)

open Cmdliner
module Fault = Qca_util.Fault
open Qca_serve

let host_arg =
  let doc = "Bind/connect address." in
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR" ~doc)

let port_arg =
  let doc = "TCP port (daemon: 0 picks an ephemeral port)." in
  Arg.(value & opt int 7333 & info [ "p"; "port" ] ~docv:"PORT" ~doc)

(* {1 daemon} *)

let daemon host port workers certify fault_spec dump_dir watchdog_ms =
  match
    match fault_spec with
    | None -> Ok Fault.none
    | Some spec -> Fault.of_spec spec
  with
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3
  | Ok fault ->
    let cfg =
      {
        Server.host;
        port;
        workers;
        certify;
        fault;
        dump_dir =
          (match dump_dir with
          | Some _ -> dump_dir
          | None -> Server.default_config.Server.dump_dir);
        watchdog_period_ms = watchdog_ms;
      }
    in
    (try
       Server.run cfg;
       0
     with Unix.Unix_error (e, _, _) ->
       Printf.eprintf "error: cannot listen on %s:%d: %s\n" host port
         (Unix.error_message e);
       3)

let daemon_cmd =
  let workers =
    let doc = "Request-handling worker domains." in
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N" ~doc)
  in
  let certify =
    let doc =
      "Certify every successful response end to end before sending it; a \
       refuted certificate becomes a typed internal error, never a wrong \
       answer."
    in
    Arg.(value & flag & info [ "certify" ] ~doc)
  in
  let fault =
    let doc =
      "Deterministic fault-injection plan (SITE:N:ACTION, see qca-sat \
       --fault) — exercises the serve-side robustness paths."
    in
    Arg.(value & opt (some string) None & info [ "fault" ] ~docv:"SPEC" ~doc)
  in
  let dump_dir =
    let doc =
      "Arm anomaly auto-capture: degraded, deadline-breached or faulted \
       requests dump a forensic JSON (ring slice, span tree, metrics \
       delta) into $(docv); also the SIGUSR1 live-dump target. Defaults to \
       $(b,QCA_DUMP_DIR) when set."
    in
    Arg.(value & opt (some string) None & info [ "dump-dir" ] ~docv:"DIR" ~doc)
  in
  let watchdog_ms =
    let doc =
      "Stuck-solver watchdog sampling period in ms (0 disables): flags \
       requests in flight while solver conflicts and propagations stay \
       flat, and dumps them when --dump-dir is armed."
    in
    Arg.(value & opt float 0.0 & info [ "watchdog-ms" ] ~docv:"MS" ~doc)
  in
  let doc =
    "run the adaptation service (a queue of 16, a result cache of 256, a 2 s \
     default and 30 s maximum request deadline)"
  in
  Cmd.v (Cmd.info "daemon" ~doc)
    Term.(
      const daemon $ host_arg $ port_arg $ workers $ certify $ fault $ dump_dir
      $ watchdog_ms)

(* {1 client subcommands} *)

let adapt host port method_name hw_name format_name input show_circuit
    timeout_ms max_conflicts no_cache traceparent =
  let ( let* ) = Result.bind in
  let result =
    let* method_ = Qca_adapt.Pipeline.method_of_string method_name in
    let* hardware = Qca_adapt.Hardware.of_string hw_name in
    let* format =
      match format_name with
      | "text" -> Ok Protocol.Text
      | "qasm" -> Ok Protocol.Qasm
      | other -> Error (Printf.sprintf "unknown format %S" other)
    in
    let* circuit_text = Qca_obs.Cli.read_input input in
    Client.adapt ~host ~port
      {
        Protocol.method_;
        hardware;
        format;
        timeout_ms;
        max_conflicts;
        use_cache = not no_cache;
        traceparent;
        circuit_text;
      }
  in
  match result with
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3
  | Ok (Protocol.Error_resp { code; message; retry_after_ms }) ->
    Printf.eprintf "error [%s]: %s%s\n"
      (Protocol.error_code_to_string code)
      message
      (match retry_after_ms with
      | Some ms -> Printf.sprintf " (retry after %d ms)" ms
      | None -> "");
    3
  | Ok (Protocol.Result p) ->
    if show_circuit then print_string p.Protocol.adapted_text;
    Format.printf "served   : tier %s%s@."
      (Protocol.tier_to_string p.Protocol.tier)
      (match p.Protocol.reason with
      | None -> ""
      | Some r -> Printf.sprintf " (%s)" r);
    Format.printf "shed     : %s@." (Protocol.shed_to_string p.Protocol.shed);
    Format.printf "cache    : %s (key %s)@."
      (match p.Protocol.cache with
      | Protocol.Cache_hit -> "hit"
      | Protocol.Cache_miss -> "miss"
      | Protocol.Cache_revalidated -> "hit, revalidated")
      p.Protocol.cache_key;
    Format.printf "spent    : %d conflicts, %d propagations, %.1f ms@."
      p.Protocol.conflicts p.Protocol.propagations p.Protocol.elapsed_ms;
    Format.printf "queued   : %.1f ms@." p.Protocol.queue_ms;
    if p.Protocol.trace_id <> "" then
      Format.printf "trace    : %s@." p.Protocol.trace_id;
    (match p.Protocol.makespan with
    | Some m -> Format.printf "makespan : %d@." m
    | None -> ());
    Format.printf "proven   : %s@." (if p.Protocol.proven then "yes" else "no");
    (match p.Protocol.certified with
    | Some b -> Format.printf "certified: %s@." (if b then "yes" else "NO")
    | None -> ());
    if
      p.Protocol.tier <> Qca_adapt.Pipeline.Full
      || p.Protocol.shed <> Protocol.No_shed
    then 2
    else 0

let adapt_cmd =
  let method_ =
    let doc =
      "Adaptation method: "
      ^ String.concat ", " Qca_adapt.Pipeline.method_names
      ^ "."
    in
    Arg.(value & opt string "sat-p" & info [ "m"; "method" ] ~docv:"METHOD" ~doc)
  in
  let hw =
    let doc = "Hardware timing variant (Table I): d0 or d1." in
    Arg.(value & opt string "d0" & info [ "hw" ] ~docv:"HW" ~doc)
  in
  let format =
    let doc = "Circuit input format: text or qasm." in
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let input =
    let doc = "Input circuit file, or - for stdin." in
    Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)
  in
  let show =
    let doc = "Print the adapted circuit." in
    Arg.(value & flag & info [ "c"; "circuit" ] ~doc)
  in
  let timeout =
    let doc = "Per-request deadline in ms (the server caps it)." in
    Arg.(value & opt (some float) None & info [ "timeout-ms" ] ~docv:"MS" ~doc)
  in
  let conflicts =
    let doc = "Cap on CDCL conflicts for this request." in
    Arg.(value & opt (some int) None & info [ "max-conflicts" ] ~docv:"N" ~doc)
  in
  let no_cache =
    let doc = "Bypass the server-side result cache." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let traceparent =
    let doc =
      "W3C trace context to propagate (00-<32 hex>-<16 hex>-<2 hex>); the \
       server adopts the trace id so its spans, ring events and any \
       forensic dump correlate with the caller's trace."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "traceparent" ] ~docv:"CTX" ~doc)
  in
  let doc = "send one adaptation request to a running daemon" in
  Cmd.v (Cmd.info "adapt" ~doc)
    Term.(
      const adapt $ host_arg $ port_arg $ method_ $ hw $ format $ input $ show
      $ timeout $ conflicts $ no_cache $ traceparent)

let ping host port =
  match Client.ping ~host ~port () with
  | Ok () ->
    print_endline "pong";
    0
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3

let ping_cmd =
  let doc = "check that a daemon is alive" in
  Cmd.v (Cmd.info "ping" ~doc) Term.(const ping $ host_arg $ port_arg)

let metrics host port =
  match Client.metrics ~host ~port () with
  | Ok text ->
    print_string text;
    0
  | Error msg ->
    prerr_endline ("error: " ^ msg);
    3

let metrics_cmd =
  let doc = "fetch the daemon's metrics-registry summary" in
  Cmd.v (Cmd.info "metrics" ~doc) Term.(const metrics $ host_arg $ port_arg)

let cmd =
  let doc = "quantum circuit adaptation as a service" in
  Cmd.group (Cmd.info "qca-serve" ~doc)
    [ daemon_cmd; adapt_cmd; ping_cmd; metrics_cmd ]

let () =
  (* a server that hangs up mid-request must surface as an error, not
     kill the client *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  exit (Cmd.eval' cmd)
