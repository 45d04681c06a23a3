(** DIMACS CNF interchange for the SAT solver.

    Lets the CDCL core be exercised on standard benchmark instances and
    makes the solver usable as a stand-alone tool (see the
    [qca-sat] executable). *)

type problem = { num_vars : int; clauses : Lit.t list list }

val parse : string -> (problem, string) result
(** Parses a DIMACS CNF document ([c] comment lines, a [p cnf V C]
    header, clauses as zero-terminated integer lists possibly spanning
    lines). Variables beyond the declared count grow the problem. *)

val parse_exn : string -> problem

val to_dimacs : problem -> string

val load : ?options:Solver.options -> ?proof:bool -> problem -> Solver.t
(** Builds a fresh solver containing the problem. [proof] (default
    false) enables DRUP proof logging {e before} the clauses are added,
    so root-level conflicts found while adding them are recorded. *)

val solve : ?options:Solver.options -> problem -> Solver.result * bool array option
(** Solves and returns the model when satisfiable. *)
