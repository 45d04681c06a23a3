open Qca_sat

(** The adaptation-as-a-service daemon.

    One acceptor domain plus a fixed pool of worker domains around a
    bounded {!Qca_par.Chan}: the acceptor admits, sheds or refuses
    connections by queue depth ({!Admission}), workers read one HTTP
    request ({!Protocol} maps it), solve under the request's deadline
    mapped onto a {!Solver.budget}, and answer — through the {!Cache}
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
    - requests degraded by {e transient} budget exhaustion (conflict /
      propagation caps, not deadlines) are retried with exponential
      backoff while the deadline allows, at most [retries] times;
    - {!stop} (and SIGTERM/SIGINT under {!run}) drains gracefully:
      accepting stops, queued and in-flight requests finish, workers
      join, and — under {!run} — metrics/trace flush before exit 0. *)

type config = {
  host : string;  (** bind address, default 127.0.0.1 *)
  port : int;  (** 0 = ephemeral (read it back with {!port}) *)
  workers : int;  (** request-handling domains *)
  queue_capacity : int;  (** admission bound *)
  shed_fraction : float;  (** queue fill ratio demoting SAT → greedy *)
  direct_fraction : float;  (** queue fill ratio demoting to direct *)
  cache_capacity : int;  (** result-cache entries *)
  default_timeout_ms : float;  (** deadline when the request names none *)
  max_timeout_ms : float;  (** hard per-request deadline cap *)
  max_request_bytes : int;  (** request body byte cap *)
  io_timeout_s : float;  (** socket read/write timeout *)
  retries : int;  (** bounded retry on transient exhaustion *)
  retry_backoff_ms : float;  (** base backoff, doubled per attempt *)
  certify : bool;  (** certify every response; refuted → [Internal] *)
  revalidate_period : int;
      (** re-certify every [n]th cache hit (0 = never; [certify]
          re-checks every hit regardless) *)
  metrics : bool;  (** enable the metrics registry at start *)
  fault : Qca_util.Fault.t;  (** serve-site injection plan *)
  options : Solver.options;
  dump_dir : string option;
      (** arm anomaly auto-capture: anomalous requests (degraded,
          deadline-breached, faulted, or slower than [slow_ms]) write a
          forensic dump here (see {!Forensics}); also the target of the
          SIGUSR1 live dump under {!run} *)
  dump_max_files : int;  (** dump-directory bound (oldest pruned) *)
  dump_min_interval_ms : float;  (** process-wide dump rate limit *)
  slow_ms : float option;  (** latency threshold that counts as anomalous *)
  watchdog_period_ms : float;
      (** stuck-solver sampling period; 0 disables the watchdog domain *)
}

val default_config : config
(** 127.0.0.1:7333, 2 workers, queue 16, shed at 50% / direct at 87%,
    cache 256, 2 s default / 30 s max deadline, 1 MiB cap, 10 s socket
    timeout, 2 retries from 25 ms, certify off, revalidate every 8th
    hit, metrics on, no faults, default solver options. Forensics:
    [dump_dir] from [QCA_DUMP_DIR], [slow_ms] from [QCA_SLOW_MS]
    (unset otherwise), 32 dump files max, one dump per second,
    watchdog off. *)

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
