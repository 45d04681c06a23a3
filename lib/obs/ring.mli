(** Per-domain event log: the one store of every recorded event —
    flight-recorder point events and the {!Trace} spans alike.

    Each domain records into its own ring of slots — a µs timestamp,
    an interned {!kind}, the current {!Tracectx} correlation word, and
    three int payload words. Recording takes no lock, allocates nothing
    on the OCaml heap (the clock stub's boxed float aside), and while
    the log is off every {!record} site costs exactly one predictable
    branch, like {!Metrics} and {!Trace}.

    Two switches turn it on. The flight recorder ({!set_enabled}) is
    meant to be left on in production: bounded memory, no contention,
    overwriting the oldest slot once a ring is full, and dumped only
    when a request misbehaves. An armed tracer ({!set_keep_all}) keeps
    every event instead — a full ring doubles — so a traced run loses
    nothing. Either switch alone keeps the log recording, and both
    count time from one origin, so spans and point events share a
    clock. {!events} merges every domain's ring chronologically at read
    time.

    Reading another domain's ring while it records is deliberately
    unsynchronized: a forensic dump may catch at most the slot being
    overwritten mid-write. A domain reading its own ring (the
    per-request dump path) sees exactly what it wrote. *)

val kind : string -> int
(** Interns an event kind name (idempotent). Do this once at module
    initialization, never on the hot path. *)

val kind_name : int -> string

(** {1 Enabling} *)

val live : bool Atomic.t
(** Hot-path guard: on while either switch below is on. *)

val set_enabled : bool -> unit
(** Arms or disarms the flight recorder. *)

val set_keep_all : bool -> unit
(** Keep every event (grow instead of overwriting) and record while
    on; {!Trace.set_enabled} drives it. Turning it off returns to the
    flight recorder's setting and wraps at the grown capacity. *)

val default_capacity : int
(** 4096 events per domain until the ring grows or after {!reset}
    (~224 KiB per domain: 6 words/event plus an args cell). *)

(** {1 Recording} *)

val record : int -> int -> int -> int -> unit
(** [record kind a b c] appends an event to this domain's ring:
    timestamp and trace word are captured implicitly. Hot-safe. *)

val open_span : int -> depth:int -> int
(** [open_span kind ~depth] claims this domain's next slot for a span
    starting now and returns its sequence number for {!close_span}.
    Recorded whether or not the log is live; {!Trace} calls it only
    while armed. *)

val close_span : int -> (string * string) list -> unit
(** [close_span seq args] stamps the span's duration, the trace word
    current at close time and its args. A no-op when the slot is no
    longer retained. *)

val now_us : unit -> int
(** The log's current timestamp (µs since process start or the last
    {!reset}) — compare with [e_ts_us] to slice a window. *)

(** {1 Reading} *)

type event = {
  e_ts_us : int;  (** µs since process start or the last {!reset} *)
  e_kind : string;
  e_trace : int;  (** {!Tracectx.word} at record time; 0 = none *)
  e_a : int;
  e_b : int;
  e_c : int;
  e_dom : int;  (** recording domain's id *)
  e_span : (string * string) list option;
      (** [Some args] for a closed span: then [e_ts_us] is its start,
          [e_a] its duration in µs, [e_b] its depth and [e_trace] the
          trace word at close time. [None] for a point event. *)
}

val events : ?trace:int -> unit -> event list
(** Every retained point event and closed span across all domains,
    merged in timestamp order (ties broken by domain, then start
    order). [trace] keeps only events carrying that correlation
    word. *)

val total_recorded : unit -> int
(** Slots ever claimed (including overwritten ones and open spans),
    summed over domains. *)

val reset : unit -> unit
(** Empties every ring, shrinks it back to {!default_capacity} and
    re-zeroes the clock. Management operation: call while no domain
    is recording. *)

(** {1 Export} *)

val events_json : event list -> string
(** JSON array of point events, the [ring] field of a forensic dump. *)
