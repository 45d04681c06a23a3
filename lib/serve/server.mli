(** The adaptation-as-a-service daemon.

    One acceptor domain plus a fixed pool of worker domains around a
    bounded {!Qca_par.Chan}: the acceptor admits, sheds or refuses
    connections by queue depth ({!Admission}), workers read one HTTP
    request ({!Protocol} maps it), solve under the request's deadline
    mapped onto a {!Qca_sat.Solver.budget}, and answer — through the {!Cache}
    when the content address matches. A cache miss runs
    {!Qca_adapt.Pipeline.adapt_governed}, which builds and solves a
    fresh model per request, so an unbudgeted SMT reply is the circuit
    [qca-adapt] returns for the same input.

    Robustness invariants, each deterministically testable through
    {!Qca_util.Fault} injection at [Serve_accept]/[Serve_request]:

    - a poisoned request (oversized head or body, non-HTTP bytes, parse
      bomb, handler crash) gets a typed error response and never takes
      a worker down;
    - a client that disappears mid-solve costs its worker nothing
      beyond the solve (writes are best-effort, SIGPIPE is ignored);
    - {!stop} (and SIGTERM/SIGINT under {!run}) drains gracefully:
      accepting stops, queued and in-flight requests finish, workers
      join, and — under {!run} — metrics/trace flush before exit 0.

    Each request is solved once: the search is deterministic, so a
    request stopped by its conflict cap would stop the same way on a
    second attempt, and it is served at the ladder's degraded tier
    with its reason.

    The serving parameters are fixed: a queue of 16 connections that
    sheds SAT requests to greedy at half full and everything to direct
    at 7/8 full, a 256-entry result cache whose every 8th hit is
    re-certified, a 2 s default and 30 s maximum request deadline, the
    {!Qca_circuit.Wire.default_max_bytes} body cap, a 10 s socket
    timeout, metrics and the flight recorder on, and at most 32 dump
    files written at least 1 s apart. *)

type config = {
  host : string;  (** bind address, default 127.0.0.1 *)
  port : int;  (** 0 = ephemeral (read it back with {!port}) *)
  workers : int;  (** request-handling domains *)
  certify : bool;  (** certify every response; refuted → [Internal] *)
  fault : Qca_util.Fault.t;  (** serve-site injection plan *)
  dump_dir : string option;
      (** arm anomaly auto-capture: anomalous requests (degraded,
          deadline-breached or faulted) write a forensic dump here (see
          {!Forensics}); also the target of the SIGUSR1 live dump under
          {!run} *)
  watchdog_period_ms : float;
      (** stuck-solver sampling period; 0 disables the watchdog domain *)
}

val default_config : config
(** 127.0.0.1:7333, 2 workers, certify off, no faults, [dump_dir] from
    [QCA_DUMP_DIR] (unset otherwise), watchdog off. *)

type t

val start : config -> t
(** Binds, then spawns the acceptor and worker domains. Ignores
    SIGPIPE process-wide (a dying client must never kill the daemon).
    Raises [Unix.Unix_error] when the bind fails. *)

val port : t -> int
(** The bound port (useful with [port = 0]). *)

val queue_depth : t -> int

val request_shutdown : t -> unit
(** Signal-safe: flips the shutdown flag; the acceptor notices within
    its poll interval. *)

val stop : t -> unit
(** {!request_shutdown}, then joins the acceptor and every worker —
    returns once all queued and in-flight requests have been served
    and every connection is closed. Idempotent. *)

val run : config -> unit
(** The daemon main: {!start}, print the bound address, install
    SIGTERM/SIGINT handlers that trigger a graceful drain, block until
    drained. Returns normally (exit code is the CLI's concern). *)
