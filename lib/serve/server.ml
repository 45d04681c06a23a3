module Circuit = Qca_circuit.Circuit
module Parse = Qca_circuit.Parse
module Qasm = Qca_circuit.Qasm
module Wire = Qca_circuit.Wire
module Solver = Qca_sat.Solver
module Fault = Qca_util.Fault
module Clock = Qca_util.Clock
module Chan = Qca_par.Chan
module Obs = Qca_obs.Metrics
module Trace = Qca_obs.Trace
module Ring = Qca_obs.Ring
module Tracectx = Qca_obs.Tracectx
module Prom = Qca_obs.Prom
open Qca_adapt

(* {1 Telemetry} *)

let m_accepted = Obs.counter "serve.accepted"
let m_accept_faults = Obs.counter "serve.accept_faults"
let m_refused = Obs.counter "serve.refused"
let m_shed = Obs.counter "serve.shed"
let m_requests = Obs.counter "serve.requests"
let m_ok = Obs.counter "serve.ok"
let m_failed = Obs.counter "serve.errors"
let m_crashes = Obs.counter "serve.crashes"
let m_cancelled = Obs.counter "serve.cancelled"
let m_refuted = Obs.counter "serve.refuted_certificates"
let m_revalidations = Obs.counter "serve.cache.revalidations"
let m_revalidation_failures = Obs.counter "serve.cache.revalidation_failures"
let m_queue_depth = Obs.gauge "serve.queue_depth"
let m_request_ms = Obs.histogram "serve.request_ms"
let m_queue_wait = Obs.histogram "serve.queue_wait_ms"
let m_inflight = Obs.gauge "serve.inflight"
let k_request = Ring.kind "serve.request"

type config = {
  host : string;
  port : int;
  workers : int;
  certify : bool;
  fault : Fault.t;
  dump_dir : string option;
  watchdog_period_ms : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7333;
    workers = 2;
    certify = false;
    fault = Fault.none;
    dump_dir = Sys.getenv_opt "QCA_DUMP_DIR";
    watchdog_period_ms = 0.0;
  }

(* {1 Fixed serving parameters} *)

let queue_capacity = 16
let shed_fraction = 0.5
let direct_fraction = 0.875
let cache_capacity = 256
let default_timeout_ms = 2_000.0
let max_timeout_ms = 30_000.0
let io_timeout_s = 10.0
let revalidate_period = 8
let dump_max_files = 32
let dump_min_interval_ms = 1_000.0

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  queue : (Unix.file_descr * Protocol.shed * float) Chan.t;
      (** fd, admission decision, enqueue time (for queue-wait) *)
  cache : Cache.t;
  shutdown : bool Atomic.t;
  cache_hits_seen : int Atomic.t;
  inflight : int Atomic.t;
  mutable acceptor : unit Domain.t option;
  mutable workers : unit Domain.t list;
  mutable watchdog : unit Domain.t option;
  joined : bool Atomic.t;
}

(* Raised when the fault plan simulates a client gone mid-request: the
   connection is abandoned without a response, and the worker lives. *)
exception Client_cancelled

(* Raised when the fault plan simulates a handler crash: the isolation
   layer must convert it into a typed Internal response. *)
exception Injected_crash

(* {1 The request core} *)

let fail code message = Protocol.Error_resp { code; message; retry_after_ms = None }

let demote shed method_ =
  match (shed, method_) with
  | Protocol.No_shed, m -> m
  | Protocol.Shed_greedy, Pipeline.Sat obj -> Pipeline.Greedy obj
  | Protocol.Shed_greedy, m -> m
  | Protocol.Shed_direct, (Pipeline.Sat _ | Pipeline.Greedy _) ->
    Pipeline.Direct
  | Protocol.Shed_direct, m -> m

(* One solve per request. The search is deterministic, so a request
   stopped by its conflict cap would stop the same way again. *)
let solve t ~circuit ~eff_method ~deadline_at (r : Protocol.adapt_request) =
  Trace.span "serve.solve" @@ fun () ->
  match Fault.check t.cfg.fault Fault.Serve_request with
  | Some Fault.Cancel -> raise Client_cancelled
  | Some Fault.Spurious_conflict -> raise Injected_crash
  | Some Fault.Exhaust ->
    (* simulated conflict exhaustion: the ladder's floor serves *)
    {
      Pipeline.circuit =
        Pipeline.adapt r.Protocol.hardware Pipeline.Direct circuit;
      requested = eff_method;
      tier = Pipeline.Direct_fallback;
      reason = Some Solver.Out_of_conflicts;
      spent = { Pipeline.conflicts = 0; propagations = 0; elapsed_ms = 0.0 };
      info = Pipeline.no_info;
      claimed_makespan = None;
    }
  | None ->
    let budget =
      Solver.budget
        ~timeout_ms:(Clock.ms_between (Clock.now ()) deadline_at)
        ?max_conflicts:r.Protocol.max_conflicts ()
    in
    Pipeline.adapt_governed ~budget r.Protocol.hardware eff_method circuit

let serve_adapt t ~shed ~queue_ms (r : Protocol.adapt_request) =
  let cfg = t.cfg in
  let hw = r.Protocol.hardware in
  let started = Clock.now () in
  let trace_id =
    match Tracectx.current () with
    | Some c -> c.Tracectx.trace_id
    | None -> ""
  in
  Trace.span "serve.request"
    ~args:
      [
        ("method", Pipeline.method_to_string r.Protocol.method_);
        ("shed", Protocol.shed_to_string shed);
      ]
  @@ fun () ->
  let parsed =
    Trace.span "serve.parse" @@ fun () ->
    match r.Protocol.format with
    | Protocol.Text ->
      Parse.parse_untrusted ~max_bytes:Wire.default_max_bytes
        r.Protocol.circuit_text
    | Protocol.Qasm ->
      Qasm.of_qasm_untrusted ~max_bytes:Wire.default_max_bytes
        r.Protocol.circuit_text
  in
  match parsed with
  | Error (`Wire (Wire.Too_large _ as e)) -> fail Protocol.Too_large (Wire.describe e)
  | Error (`Wire e) -> fail Protocol.Invalid_circuit (Wire.describe e)
  | Error (`Syntax msg) -> fail Protocol.Invalid_circuit msg
  | Ok circuit -> (
    let eff_method = demote shed r.Protocol.method_ in
    let canonical = Parse.to_text circuit in
    let ckey =
      Cache.key ~hardware:hw.Hardware.name
        ~method_:(Pipeline.method_to_string eff_method)
        ~circuit:canonical
    in
    let digest = Cache.digest_hex ckey in
    let cacheable =
      r.Protocol.use_cache
      && match eff_method with Pipeline.Sat _ -> true | _ -> false
    in
    let timeout_ms =
      Float.min
        (Option.value r.Protocol.timeout_ms ~default:default_timeout_ms)
        max_timeout_ms
    in
    let deadline_at = started +. (timeout_ms /. 1000.0) in
    let elapsed () = Clock.ms_between started (Clock.now ()) in
    let from_cache (entry : Cache.entry) status certified =
      Protocol.Result
        {
          Protocol.tier = Pipeline.Full;
          reason = None;
          shed;
          cache = status;
          cache_key = digest;
          conflicts = 0;
          propagations = 0;
          elapsed_ms = elapsed ();
          queue_ms;
          trace_id;
          makespan = entry.Cache.makespan;
          proven = entry.Cache.proven;
          certified;
          adapted_text = Parse.to_text entry.Cache.adapted;
        }
    in
    let solve_fresh ~cache_status () =
      let outcome = solve t ~circuit ~eff_method ~deadline_at r in
      let certified =
        if not cfg.certify then None
        else begin
          let issues =
            Trace.span "serve.certify" (fun () ->
                Lint.certify_adaptation hw ~original:circuit
                  ~adapted:outcome.Pipeline.circuit
                  ?claimed_makespan:outcome.Pipeline.claimed_makespan ())
          in
          Some (Lint.errors issues = [])
        end
      in
      match certified with
      | Some false ->
        Obs.incr m_refuted;
        fail Protocol.Internal
          "refuted certificate: the adapted circuit failed end-to-end \
           certification"
      | _ ->
        if
          cacheable
          && outcome.Pipeline.tier = Pipeline.Full
          && outcome.Pipeline.reason = None
        then
          Cache.add t.cache ~key:ckey ~adapted:outcome.Pipeline.circuit
            ~makespan:outcome.Pipeline.claimed_makespan
            ~proven:outcome.Pipeline.info.Pipeline.proven_optimal;
        Protocol.Result
          {
            Protocol.tier = outcome.Pipeline.tier;
            reason =
              Option.map Solver.string_of_stop_reason outcome.Pipeline.reason;
            shed;
            cache = cache_status;
            cache_key = digest;
            conflicts = outcome.Pipeline.spent.Pipeline.conflicts;
            propagations = outcome.Pipeline.spent.Pipeline.propagations;
            elapsed_ms = elapsed ();
            queue_ms;
            trace_id;
            makespan = outcome.Pipeline.claimed_makespan;
            proven = outcome.Pipeline.info.Pipeline.proven_optimal;
            certified;
            adapted_text = Parse.to_text outcome.Pipeline.circuit;
          }
    in
    match (if cacheable then Cache.find t.cache ckey else None) with
    | Some entry ->
      let nth = Atomic.fetch_and_add t.cache_hits_seen 1 in
      let revalidate =
        cfg.certify
        || nth mod revalidate_period = 0
      in
      if not revalidate then from_cache entry Protocol.Cache_hit None
      else begin
        Obs.incr m_revalidations;
        let issues =
          Trace.span "serve.revalidate" (fun () ->
              Lint.certify_adaptation hw ~original:circuit
                ~adapted:entry.Cache.adapted
                ?claimed_makespan:entry.Cache.makespan ())
        in
        if Lint.errors issues = [] then
          from_cache entry Protocol.Cache_revalidated (Some true)
        else begin
          (* a poisoned or stale entry: drop it and solve honestly *)
          Obs.incr m_revalidation_failures;
          Cache.invalidate t.cache ckey;
          solve_fresh ~cache_status:Protocol.Cache_miss ()
        end
      end
    | None -> solve_fresh ~cache_status:Protocol.Cache_miss ())

(* Crash isolation: everything a request can throw — a parse-bomb
   exception we missed, a solver invariant violation, an injected
   crash — becomes a typed Internal response; only the deliberate
   abandon signal passes through. *)
let protected_serve t ~shed ~queue_ms r =
  try serve_adapt t ~shed ~queue_ms r with
  | Client_cancelled -> raise Client_cancelled
  | e ->
    Obs.incr m_crashes;
    fail Protocol.Internal (Printexc.to_string e)

(* The anomaly gate: what makes a finished request worth a dump. *)
let anomaly_reason = function
  | Protocol.Result p when p.Protocol.tier <> Pipeline.Full -> Some "degraded"
  | Protocol.Result p when p.Protocol.reason <> None -> Some "budget"
  | Protocol.Error_resp { code = Protocol.Internal; _ } -> Some "fault"
  | Protocol.Result _ | Protocol.Error_resp _ -> None

(* Trace-scoped request wrapper: installs the request's trace context
   (adopted from a valid [traceparent], generated otherwise), times
   the request, and — when a dump directory is armed — captures
   forensics for any anomalous outcome. Returns the served result and
   the context so the caller can stamp the trace headers. *)
let serve_tracked t ~shed ~queue_ms r =
  Obs.incr m_requests;
  let ctx =
    match Option.map Tracectx.parse_traceparent r.Protocol.traceparent with
    | Some (Ok c) -> Tracectx.child c
    | Some (Error _) | None -> Tracectx.generate ()
  in
  let armed = t.cfg.dump_dir <> None in
  let before = if armed then Some (Forensics.snapshot ()) else None in
  let since_us = Ring.now_us () in
  let started = Clock.now () in
  Atomic.incr t.inflight;
  Obs.set m_inflight (float_of_int (Atomic.get t.inflight));
  let finish served =
    Atomic.decr t.inflight;
    Obs.set m_inflight (float_of_int (Atomic.get t.inflight));
    let elapsed_ms = Clock.ms_between started (Clock.now ()) in
    Obs.observe m_request_ms elapsed_ms;
    Ring.record k_request
      (match served with
      | Some (Protocol.Result _) -> 0
      | Some (Protocol.Error_resp _) -> 1
      | None -> 2)
      (int_of_float elapsed_ms) (int_of_float queue_ms);
    match (served, t.cfg.dump_dir) with
    | Some s, Some dir -> (
      match anomaly_reason s with
      | None -> ()
      | Some reason ->
        let describe =
          [
            ("method", Pipeline.method_to_string r.Protocol.method_);
            ("shed", Protocol.shed_to_string shed);
            ("elapsed_ms", Printf.sprintf "%.3f" elapsed_ms);
            ("queue_ms", Printf.sprintf "%.3f" queue_ms);
            ( "outcome",
              match s with
              | Protocol.Result p ->
                "done tier=" ^ Protocol.tier_to_string p.Protocol.tier
              | Protocol.Error_resp { code; _ } ->
                "failed " ^ Protocol.error_code_to_string code );
          ]
        in
        ignore
          (Forensics.write_dump ~dir ~max_files:dump_max_files
             ~min_interval_ms:dump_min_interval_ms ~reason
             ~trace:(Some ctx) ~request:describe ~since_us ~before ()))
    | _ -> ()
  in
  match
    Tracectx.with_ctx ctx (fun () -> protected_serve t ~shed ~queue_ms r)
  with
  | served ->
    finish (Some served);
    (served, ctx)
  | exception e ->
    (* Client_cancelled passes through; record the abandonment first *)
    finish None;
    raise e

(* {1 Connection: read the HTTP head, then route} *)

let send fd (status, headers, body) =
  ignore (Io.write_all fd (Http.response ~status ~headers body))

let send_error fd ?retry_after_ms code message =
  send fd
    (Protocol.http_of_response
       (Protocol.Error_resp { code; message; retry_after_ms }))

(* The head and any body bytes read with it. Refuses as soon as the
   bytes cannot be a request (or outgrow the head cap), so garbage is
   answered without waiting out the socket timeout. *)
let read_http_head fd =
  let chunk = Bytes.create 1024 in
  let rec loop acc =
    match Http.scan_head acc with
    | `Complete head_rest -> Ok head_rest
    | `Bad msg -> Error (Some msg)
    | `Need_more -> (
      match Io.read_chunk fd chunk 1024 with
      | Some n -> loop (acc ^ Bytes.sub_string chunk 0 n)
      | None when acc = "" -> Error None  (* connected, sent nothing *)
      | None -> Error (Some "incomplete request head"))
  in
  loop ""

let handle_adapt t fd shed ~queue_ms ~params ~headers leftover =
  match Http.content_length headers with
  | Error msg -> send_error fd Protocol.Bad_frame msg
  | Ok None -> send_error fd Protocol.Bad_frame "missing Content-Length"
  | Ok (Some n) when n > Wire.default_max_bytes ->
    (* refused from the head alone: a length bomb's body is never read *)
    send_error fd Protocol.Too_large
      (Printf.sprintf "body of %d bytes exceeds the %d byte cap" n
         Wire.default_max_bytes)
  | Ok (Some n) -> (
    let body =
      if String.length leftover >= n then Some (String.sub leftover 0 n)
      else
        Option.map
          (fun rest -> leftover ^ rest)
          (Io.read_exact fd (n - String.length leftover))
    in
    match body with
    | None -> ()
    | Some body -> (
      match Protocol.adapt_request_of_http ~params ~headers body with
      | Error (code, msg) -> send_error fd code msg
      | Ok r ->
        let response, ctx = serve_tracked t ~shed ~queue_ms r in
        let status, headers, body = Protocol.http_of_response response in
        let headers =
          match response with
          | Protocol.Result _ ->
            Obs.incr m_ok;
            headers
          | Protocol.Error_resp _ ->
            Obs.incr m_failed;
            Protocol.trace_headers ~trace_id:ctx.Tracectx.trace_id ~queue_ms
            @ headers
        in
        send fd (status, headers, body)))

let handle_connection t fd shed ~queue_ms =
  match read_http_head fd with
  | Error None -> ()
  | Error (Some msg) -> send_error fd Protocol.Bad_frame msg
  | Ok (head, leftover) -> (
    match Http.parse_head head with
    | Error msg -> send_error fd Protocol.Bad_frame msg
    | Ok (meth, target, headers) -> (
      let path, params = Http.split_target target in
      match (meth, path) with
      | "GET", "/metrics" ->
        (* Prometheus exposition by default; ?format=human keeps the
           pp_summary table reachable *)
        if List.assoc_opt "format" params = Some "human" then
          send fd (200, [], Format.asprintf "%a" Obs.pp_summary ())
        else send fd (200, [], Prom.exposition ())
      | "GET", "/healthz" ->
        send fd
          ( 200,
            [],
            Printf.sprintf "ok queue=%d/%d\n" (Chan.length t.queue) queue_capacity )
      | "POST", "/adapt" ->
        handle_adapt t fd shed ~queue_ms ~params ~headers leftover
      | _, ("/metrics" | "/healthz" | "/adapt") ->
        send fd (405, [], "method not allowed\n")
      | _ -> send fd (404, [], "not found\n")))

let worker_loop t =
  let rec loop () =
    match Chan.pop t.queue with
    | None -> ()
    | Some (fd, shed, enqueued_at) ->
      Obs.set m_queue_depth (float_of_int (Chan.length t.queue));
      let queue_ms = Clock.ms_between enqueued_at (Clock.now ()) in
      Obs.observe m_queue_wait queue_ms;
      (try handle_connection t fd shed ~queue_ms with
      | Client_cancelled -> Obs.incr m_cancelled
      | _ ->
        (* last-resort isolation: protocol-layer crashes (the request
           layer already answered typed Internal errors) *)
        Obs.incr m_crashes);
      Io.close_quiet fd;
      loop ()
  in
  loop ()

(* A refusal is written without reading the request: the socket goes
   non-blocking first, so the acceptor never blocks on a slow peer. *)
let refuse_and_close fd ~retry_after_ms ~shutting_down =
  (try
     Unix.set_nonblock fd;
     send_error fd ~retry_after_ms
       (if shutting_down then Protocol.Shutting_down else Protocol.Overloaded)
       "admission control refused the request"
   with Unix.Unix_error (_, _, _) -> ());
  Io.close_quiet fd

let handle_accept t fd =
  Obs.incr m_accepted;
  match Fault.check t.cfg.fault Fault.Serve_accept with
  | Some (Fault.Spurious_conflict | Fault.Cancel) ->
    (* transient socket error / client gone before its request *)
    Obs.incr m_accept_faults;
    Io.close_quiet fd
  | (Some Fault.Exhaust | None) as f -> (
    let depth = Chan.length t.queue in
    let decision =
      if f = Some Fault.Exhaust then
        Admission.Refuse { retry_after_ms = Admission.retry_hint_ms ~depth }
      else
        Admission.decide ~depth ~capacity:queue_capacity ~shed_fraction
          ~direct_fraction
    in
    match decision with
    | Admission.Refuse { retry_after_ms } ->
      Obs.incr m_refused;
      refuse_and_close fd ~retry_after_ms ~shutting_down:false
    | Admission.Admit shed ->
      if shed <> Protocol.No_shed then Obs.incr m_shed;
      (try
         Unix.setsockopt_float fd Unix.SO_RCVTIMEO io_timeout_s;
         Unix.setsockopt_float fd Unix.SO_SNDTIMEO io_timeout_s
       with Unix.Unix_error (_, _, _) -> ());
      Obs.set m_queue_depth (float_of_int (depth + 1));
      if not (Chan.try_push t.queue (fd, shed, Clock.now ())) then begin
        (* raced to full (or closed for drain) since the decision *)
        Obs.incr m_refused;
        refuse_and_close fd
          ~retry_after_ms:(Admission.retry_hint_ms ~depth)
          ~shutting_down:(Atomic.get t.shutdown)
      end)

let accept_loop t =
  let rec loop () =
    if Atomic.get t.shutdown then ()
    else begin
      (match Unix.select [ t.listen_fd ] [] [] 0.2 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | fd, _ -> handle_accept t fd
        | exception
            Unix.Unix_error
              ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
          -> ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Io.close_quiet t.listen_fd;
  (* queued connections are still drained by the workers *)
  Chan.close t.queue

(* {1 Stuck-solver watchdog}

   A sampling domain: every [watchdog_period_ms] it services any
   pending SIGUSR1 dump request and asks {!Forensics.watch_step}
   whether the solver counters moved while requests were in flight.
   A confirmed stall becomes a rate-limited "stuck" dump — the request
   is still running, so this is the only artifact that captures it. *)

let watchdog_loop t =
  let period_s = Float.max 0.01 (t.cfg.watchdog_period_ms /. 1000.0) in
  let st = Forensics.watch_state () in
  let rec loop () =
    if Atomic.get t.shutdown then ()
    else begin
      (try Unix.sleepf period_s
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      (match t.cfg.dump_dir with
      | Some dir -> (
        match
          Forensics.service_live_dump ~dir ~max_files:dump_max_files
        with
        | Some path -> Printf.eprintf "qca-serve: dumped %s\n%!" path
        | None -> ())
      | None -> ());
      let stuck =
        Forensics.watch_step st ~inflight:(Atomic.get t.inflight)
      in
      (if stuck then
         match t.cfg.dump_dir with
         | Some dir ->
           ignore
             (Forensics.write_dump ~dir ~max_files:dump_max_files
                ~min_interval_ms:dump_min_interval_ms ~reason:"stuck"
                ~trace:None
                ~request:
                  [
                    ("scope", "watchdog");
                    ( "inflight",
                      string_of_int (Atomic.get t.inflight) );
                  ]
                ~since_us:0 ~before:None ())
         | None -> ());
      loop ()
    end
  in
  loop ()

(* {1 Lifecycle} *)

let start (cfg : config) =
  if cfg.workers < 1 then invalid_arg "Server.start: workers < 1";
  (* a client that hangs up mid-write must never kill the daemon *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Obs.set_enabled true;
  (* the flight recorder is bounded and contention-free: always on *)
  Ring.set_enabled true;
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd
       (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
     Unix.listen listen_fd 64
   with e ->
     Io.close_quiet listen_fd;
     raise e);
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  let t =
    {
      cfg;
      listen_fd;
      bound_port;
      queue = Chan.create ~capacity:queue_capacity;
      cache = Cache.create ~capacity:cache_capacity;
      shutdown = Atomic.make false;
      cache_hits_seen = Atomic.make 0;
      inflight = Atomic.make 0;
      acceptor = None;
      workers = [];
      watchdog = None;
      joined = Atomic.make false;
    }
  in
  t.acceptor <- Some (Domain.spawn (fun () -> accept_loop t));
  t.workers <- List.init cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t));
  if cfg.watchdog_period_ms > 0.0 then
    t.watchdog <- Some (Domain.spawn (fun () -> watchdog_loop t));
  t

let port t = t.bound_port
let queue_depth t = Chan.length t.queue
let request_shutdown t = Atomic.set t.shutdown true

let stop t =
  request_shutdown t;
  if not (Atomic.exchange t.joined true) then begin
    (match t.acceptor with Some d -> Domain.join d | None -> ());
    List.iter Domain.join t.workers;
    (match t.watchdog with Some d -> Domain.join d | None -> ());
    t.acceptor <- None;
    t.workers <- [];
    t.watchdog <- None
  end

let run (cfg : config) =
  let t = start cfg in
  Printf.eprintf "qca-serve: listening on %s:%d (%d workers, queue %d, cache %d)\n%!"
    cfg.host t.bound_port cfg.workers queue_capacity cache_capacity;
  let stop_requested = Atomic.make false in
  let handler _ = Atomic.set stop_requested true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle handler);
  Sys.set_signal Sys.sigint (Sys.Signal_handle handler);
  Forensics.install_sigusr1 ();
  let rec wait () =
    if not (Atomic.get stop_requested) then begin
      (try Unix.sleepf 0.1 with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      (match cfg.dump_dir with
      | Some dir -> (
        match
          Forensics.service_live_dump ~dir ~max_files:dump_max_files
        with
        | Some path -> Printf.eprintf "qca-serve: dumped %s\n%!" path
        | None -> ())
      | None -> ());
      wait ()
    end
  in
  wait ();
  Printf.eprintf "qca-serve: draining (finishing %d queued requests)...\n%!"
    (Chan.length t.queue);
  stop t;
  Printf.eprintf "qca-serve: drained\n%!"
