(** Span-based tracer with Chrome [trace_event] export.

    Spans are stored in the {!Ring} event log, one slot per span, on
    the log's clock: timestamps are microseconds since process start
    or the last {!reset}, the same axis as every flight-recorder
    event. Arming the tracer switches the log to keeping every event,
    so a traced run loses no span; disarming it leaves an armed flight
    recorder recording. When disabled (the default) every entry point
    is a single predictable branch and the traced code runs
    bit-identically.

    The recorded trace can be rendered as a human-readable tree
    ({!pp_summary}) or exported as Chrome [trace_event] JSON
    ({!to_chrome_json} / {!write_chrome}) loadable in
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}: spans
    as complete events and the log's point events as counter rows. The
    export embeds a {!Metrics} snapshot under ["otherData"].

    The [QCA_TRACE] environment variable arms the tracer for a whole
    process: [QCA_TRACE=1] prints the tree summary to stderr at exit,
    any other non-empty value (except [0]) is a file path that receives
    the Chrome JSON at exit. Both forms also enable the metrics
    registry.

    Recording is domain-safe and lock-free apart from interning the
    span name: each domain keeps its own open-span stack (spans nest
    within a domain and never migrate) and records into its own ring.
    A span carries the recording domain's id, which becomes the [tid]
    in the Chrome export (with a [thread_name] metadata row per
    domain). {!set_enabled} and {!reset} are management operations for
    the coordinating domain. *)

val enabled : unit -> bool
val set_enabled : bool -> unit

(** {1 Recording spans} *)

val span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span. The span is closed (and
    recorded) even when [f] raises. When the tracer is disabled this is
    exactly [f ()]. *)

val begin_span : ?args:(string * string) list -> string -> unit

val end_span : ?args:(string * string) list -> string -> unit
(** Closes the innermost open span. Raises [Invalid_argument] when no
    span is open or the innermost open span has a different name (an
    orphan close — the mismatch is reported rather than silently
    mis-nesting the trace). [args] are appended to the begin-side
    args. *)

(** {1 Reading} *)

type span_record = {
  s_name : string;
  s_ts_us : int;  (** start, µs on the {!Ring} clock *)
  s_dur_us : int;
  s_depth : int;  (** nesting depth at begin time, within [s_tid] *)
  s_tid : int;  (** recording domain's id (0 = main) *)
  s_trace : int;
      (** {!Tracectx.current_word} at close time (0 = no request
          context) — lets a forensic dump slice one request's span
          tree out of a shared trace *)
  s_args : (string * string) list;
}

val of_event : Ring.event -> span_record option
(** The span a {!Ring.events} entry holds, or [None] for a point
    event. *)

val spans : unit -> span_record list
(** Completed spans in start order. *)

val open_depth : unit -> int
(** Number of spans currently open in this domain. *)

(** {1 Export} *)

val pp_summary : Format.formatter -> unit -> unit
(** Indented tree of completed spans with durations. *)

val to_chrome_json : unit -> string
(** The whole event log as a Chrome [trace_event] JSON object:
    [{"traceEvents": [...], "displayTimeUnit": "ms",
    "otherData": {"metrics": {...}}}]. *)

val write_chrome : string -> unit
(** Writes {!to_chrome_json} to a file. *)

val reset : unit -> unit
(** {!Ring.reset} (every span and point event goes, and the clock
    re-zeroes) plus this domain's open spans. *)
