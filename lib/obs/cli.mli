(** Process plumbing shared by the command-line tools: the [--jobs]
    default, the [--metrics]/[--trace-out] lifecycle and input reading.
    Each helper has exactly one definition here so the CLIs cannot
    drift apart. *)

val default_jobs : int
(** [$QCA_JOBS] when it is a positive integer, else 1. *)

val obs_start : metrics:bool -> trace_out:string option -> unit
(** Enables the metrics registry when [metrics] or [trace_out] is set
    ([--trace-out] implies [--metrics]: the Chrome export embeds the
    metrics snapshot) and tracing when [trace_out] is set, and arms
    {!Sigexit} so a SIGINT/SIGTERM still runs {!obs_stop}. *)

val obs_stop : metrics:bool -> trace_out:string option -> unit
(** Writes the Chrome trace to [trace_out] (when set) and prints the
    metrics summary to stderr (when [metrics]). *)

val read_input : string -> (string, string) result
(** The whole of stdin for ["-"], else the named file's contents;
    [Error msg] when the file cannot be read. *)
