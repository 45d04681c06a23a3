(** Order-preserving parallel map over OCaml domains.

    The one caller is [qca-experiments --jobs], whose tasks are whole
    adaptations (milliseconds to seconds each), so a shared next-index
    counter keeps the domains balanced without per-worker queues. *)

val parallel_map : jobs:int -> f:('a -> 'b) -> 'a array -> 'b array
(** [parallel_map ~jobs ~f arr] is [Array.map f arr], computed by the
    caller and [min jobs (Array.length arr) - 1] spawned domains that
    each take the next unclaimed index from one [Atomic] counter until
    none is left. At most [Domain.recommended_domain_count () - 1]
    domains are spawned, whatever [jobs] asks for: more would only
    contend for the cores. Every spawned domain is joined before it
    returns.

    With [jobs <= 1] (or at most one element) no domain is spawned and
    the call is exactly [Array.map f arr]. If tasks raise, every task
    still runs, and then the first exception (in completion order) is
    re-raised with its backtrace. *)
