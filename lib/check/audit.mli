(** Solver state invariant auditor.

    Walks a {!Qca_sat.Solver.view} snapshot and cross-checks the data
    structures against each other: arena headers and wasted-word
    accounting, watch-list/arena consistency (every live clause watched
    exactly once on each of its first two literals, blockers drawn from
    the clause), trail/assignment/decision-level coherence, reason
    clauses actually implying their literal, and the VSIDS heap
    property. Used by tests at quiescent points and — via {!install} —
    as the periodic in-search hook behind [QCA_AUDIT]. *)

val check : Qca_sat.Solver.t -> string list
(** All invariant violations found, empty when the state is coherent. *)

exception Violation of string list

val check_exn : Qca_sat.Solver.t -> unit
(** Raises {!Violation} when {!check} finds anything. *)

val install : unit -> unit
(** Registers {!check_exn} as the process-wide
    {!Qca_sat.Solver.set_audit_hook}, so a solver run under
    [QCA_AUDIT=1] aborts on the first corrupted state. *)
