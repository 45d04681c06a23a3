(** Fixed-size domain pool with one work-stealing deque per worker.

    [create ~jobs] spawns [jobs - 1] long-lived worker domains; the
    caller itself acts as worker 0 for the duration of each
    {!parallel_map}, so a pool of [jobs] uses exactly [jobs] domains
    including the caller's. Tasks are dealt round-robin onto per-worker
    deques (lock-guarded: the owner works the tail, thieves steal from
    the head) — a worker that empties its own deque steals from the
    others, so an unbalanced batch still keeps every domain busy.

    With [jobs = 1] no domain is ever spawned and {!parallel_map} is
    exactly [Array.map] — the bit-identical sequential path.

    Telemetry (when {!Qca_obs.Metrics} is live): [par.tasks] and
    [par.steals] counters, and a [par.worker] span per worker per batch
    in the trace.

    One batch at a time: {!parallel_map} raises [Invalid_argument] if
    the pool is already running a batch (the pool parallelises the
    outermost loop only, e.g. the case batch of [qca-experiments
    --jobs]; each task solves on its own domain alone). *)

type t

val create : jobs:int -> t
(** Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int

val live_workers : t -> int
(** Number of worker domains currently alive (0 after {!shutdown};
    [jobs - 1] otherwise). For tests. *)

val parallel_map : t -> f:('a -> 'b) -> 'a array -> 'b array
(** Order-preserving map. Runs the [f arr.(i)] as pool tasks and blocks
    until all finish. If one or more tasks raise, every task still runs
    to completion (or failure) and the first exception (in completion
    order) is re-raised with its backtrace. *)

val shutdown : t -> unit
(** Joins every worker domain. The pool must not be used afterwards. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, and {!shutdown} on every exit path. *)
