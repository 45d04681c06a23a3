module Ring = Qca_obs.Ring
module Tracectx = Qca_obs.Tracectx

(** Anomaly auto-capture for the daemon: when a request breaches its
    deadline, degrades below [Full] or faults, its ring
    slice + span tree (both from the one {!Ring} event log, on one
    clock) + metrics delta are written as one JSON document
    ([qca.dump.v1], see DESIGN.md section 7.9) into a bounded,
    rate-limited dump directory — plus a SIGUSR1 dump-everything
    handler and a stuck-solver watchdog.

    Dump files are named [qca-dump-<16-digit µs>-<reason>-<trace>.json]
    so lexicographic order is chronological order; the directory is
    pruned to [max_files] after every write, and a process-wide rate
    limiter keeps a failure storm from turning the dump directory into
    the failure. *)

(** {1 Metrics snapshots} *)

type snapshot

val snapshot : unit -> snapshot
(** Counter values and histogram count/sum pairs, for computing what a
    single request consumed. Take one per request only when forensics
    is armed. *)

(** {1 Writing dumps} *)

val write_dump :
  dir:string ->
  max_files:int ->
  min_interval_ms:float ->
  reason:string ->
  trace:Tracectx.t option ->
  request:(string * string) list ->
  since_us:int ->
  before:snapshot option ->
  unit ->
  string option
(** Captures one request's forensics from one {!Ring.events} read:
    the point events carrying the request's trace word (plus every
    point event recorded since [since_us]), its span tree (spans are
    recorded only while the tracer is armed), and the metrics moved since
    [before]. Returns the path written, or [None] when rate-limited or
    the write failed. *)

val dump_all : dir:string -> max_files:int -> reason:string -> string option
(** Whole-process dump (every ring event, every span), bypassing the
    rate limiter — SIGUSR1 and shutdown forensics. *)

val reset_limiter : unit -> unit
(** Re-arms the rate limiter (tests). *)

val is_dump_file : string -> bool
(** Whether a directory entry looks like a dump this module wrote. *)

(** {1 SIGUSR1} *)

val install_sigusr1 : unit -> unit
(** Installs a handler that only flips an atomic flag; service it with
    {!service_live_dump} from the serve loop. *)

val request_live_dump : unit -> unit
(** What the handler does — callable directly (tests). *)

val service_live_dump : dir:string -> max_files:int -> string option
(** Writes the requested whole-process dump if the flag is set;
    clears the flag. *)

(** {1 Stuck-solver watchdog} *)

type watch_state

val watch_state : unit -> watch_state

val watch_step : watch_state -> inflight:int -> bool
(** One watchdog sample: reads the solver's conflict/propagation
    counters and returns [true] when requests are in flight but both
    have been flat for 3 consecutive samples — the caller records the
    stuck event's dump. Also bumps [serve.watchdog.stuck] and records
    a [serve.stuck] ring event. *)
