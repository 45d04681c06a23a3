(** Process-wide metrics registry: counters, gauges, and histograms
    with logarithmic (power-of-two) buckets.

    Metric names are interned once — usually at module initialization —
    into integer ids; hot-path updates ({!incr}, {!add}, {!set},
    {!observe}) are then plain array operations guarded by a single
    boolean load, so a disabled registry costs one predictable branch
    per site and allocates nothing.

    The registry is global on purpose: several solvers, models and
    pipeline phases in one process accumulate into the same series,
    which is what the CLI `--metrics` report and the Chrome-trace
    export want.

    Updates are domain-safe: every cell is an [Atomic.t] (int cells
    use fetch-and-add, float cells a CAS retry loop) and interning is
    mutex-guarded, so concurrent pool and serve workers never lose
    increments. Reads ({!export}, {!summarize}) take no global
    snapshot — a histogram exported mid-update may be off by the
    in-flight sample, which is fine for reporting. {!set_enabled} and
    {!reset} are management operations: call them from one domain while
    no workers are updating. *)

type id
(** An interned metric. Ids stay valid across {!reset}. *)

type kind = Counter | Gauge | Histogram

val counter : string -> id
(** Interns [name] as a counter (idempotent). Raises
    [Invalid_argument] if [name] is already interned with a different
    kind. *)

val gauge : string -> id
val histogram : string -> id

(** {1 Enabling} *)

val live : bool Atomic.t
(** The hot-path guard. Treat as read-only outside this module; flip it
    through {!set_enabled}. Instrumentation sites may read
    [Atomic.get live] directly to skip argument computation when the
    registry is off. *)

val enabled : unit -> bool
val set_enabled : bool -> unit
(** Enabling also (re)starts the {!elapsed_s} stopwatch used for rate
    gauges. *)

val elapsed_s : unit -> float
(** Seconds since the registry was last enabled (0 when disabled). *)

(** {1 Hot-path updates (no-ops while disabled)} *)

val incr : id -> unit
val add : id -> int -> unit
val set : id -> float -> unit

val observe : id -> float -> unit
(** Records a sample into a histogram. Negative (and NaN) samples are
    clamped to 0; samples ≥ 2{^30} land in the overflow bucket. *)

(** {1 Buckets} *)

val num_buckets : int
(** 32: bucket 0 holds samples < 1, bucket [i] (1 ≤ i ≤ 30) holds
    [2{^i-1}, 2{^i}), bucket 31 is the overflow bucket. *)

val bucket_of : float -> int
val bucket_bounds : int -> float * float
(** [(lo, hi)] of a bucket; the overflow bucket's [hi] is [infinity]. *)

(** {1 Reading} *)

val name : id -> string
val kind_of : id -> kind
val value : id -> int  (** counter value *)

val gauge_value : id -> float
val bucket_counts : id -> int array  (** copy, length {!num_buckets} *)

type hist_summary = {
  h_count : int;
  h_sum : float;
  h_max : float;
  h_p50 : float;
      (** quantiles interpolate within the power-of-two bucket holding
          the target rank and never exceed [h_max] *)
  h_p90 : float;
  h_p95 : float;
  h_p99 : float;
}

val summarize : id -> hist_summary

type export =
  | Counter_v of string * int
  | Gauge_v of string * float
  | Histogram_v of string * hist_summary

val export : unit -> export list
(** Every registered metric, in registration order (zero-valued ones
    included, so dashboards see a stable schema). *)

val pp_summary : Format.formatter -> unit -> unit
(** Human-readable table of every metric. *)

val json_object : unit -> string
(** The registry as one JSON object
    [{"name": value, ..., "hist": {"count":..,"sum":..,"p50":..,
    "p90":..,"p95":..,"p99":..,"max":..}}] — embedded under ["otherData"] by
    {!Trace.to_chrome_json} and usable standalone. *)

val reset : unit -> unit
(** Zeroes every value (counts, gauges, buckets); interned ids remain
    valid. Also restarts the stopwatch. *)

(** {1 JSON helpers (shared with {!Trace})} *)

val json_escape : string -> string
val json_float : float -> string
