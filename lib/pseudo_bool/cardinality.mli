(** Cardinality constraints over literals (sequential-counter encoding).

    These add hard CNF constraints to a {!Qca_sat.Solver.t}. The
    adaptation model does not use them (its Eq. 1 exclusions are plain
    binary clauses); the test suite does, for the encodings' own checks
    and as the cardinality bound in the SAT suite's non-decision
    auxiliaries property. The counter registers are non-decision
    variables ({!Qca_sat.Solver.new_var}). *)

open Qca_sat

val at_most : Solver.t -> Lit.t list -> int -> unit
(** [at_most s lits k] enforces [Σ lits ≤ k] (Sinz sequential counter,
    O(n·k) clauses and auxiliaries). *)

val at_least : Solver.t -> Lit.t list -> int -> unit
(** [Σ lits ≥ k], via [at_most] on the negations. *)

val exactly_one : Solver.t -> Lit.t list -> unit
(** [Σ lits = 1]: one "or" clause plus pairwise exclusions. *)

val at_most_one_pairwise : Solver.t -> Lit.t list -> unit
