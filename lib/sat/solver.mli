(** CDCL SAT solver.

    A MiniSat-style conflict-driven clause-learning solver: two-watched-
    literal propagation, first-UIP clause learning, VSIDS decision
    order with phase saving, Luby restarts, and LBD/activity-based
    learnt clause deletion. Incremental use is supported through
    [solve ~assumptions] and adding clauses between calls; an
    unsatisfiable core over the assumptions is available after an UNSAT
    answer.

    Clause storage is a flat integer arena ({!Arena}): clauses are
    addressed by integer reference, watch lists carry blocker literals,
    binary clauses are propagated without touching clause memory, and
    the learnt database is compacted by garbage collection after each
    reduction (see DESIGN.md section 7 for the internals).

    The heuristic components can be switched off individually (see
    {!options}) — the evaluation harness uses this for the solver
    ablation benchmarks. *)

type t

type options = {
  use_vsids : bool;  (** VSIDS decision order (else lowest-index-first) *)
  use_restarts : bool;
  use_clause_deletion : bool;
  use_minimization : bool;  (** recursive learnt-clause minimization *)
  use_phase_saving : bool;
      (** decide with the last-assigned polarity (progress saving); off:
          always decide [phase_init] *)
  var_decay : float;  (** VSIDS decay, e.g. 0.95 *)
  clause_decay : float;
  restart_base : int;  (** conflicts per Luby unit *)
  phase_init : bool;  (** initial / fixed decision polarity *)
}

val default_options : options

(** {1 Resource governance}

    A {!budget} bounds a whole request: a conflict cap, a propagation
    cap, an absolute wall-clock deadline, a cooperative cancellation
    flag, and a {!Qca_util.Fault} plan for deterministic fault
    injection. The CDCL loop checks it once per iteration; when it
    trips, {!solve} answers [Unknown reason] (and the partial
    assignment is retracted, so the solver stays reusable). The
    [_spent] accounts are cumulative across every call that shares the
    budget — the OMT drivers re-solve many times against one budget.

    Without a budget (the default) [solve] never answers [Unknown] and
    behaves exactly as before the governance layer existed. *)

type stop_reason =
  | Out_of_conflicts
  | Out_of_propagations
  | Deadline
  | Cancelled
  | Out_of_rounds  (** an OMT round budget stopped the search *)
  | Unverified_schedule
      (** the difference-logic check rejected an optimized schedule *)

val string_of_stop_reason : stop_reason -> string

type budget = {
  max_conflicts : int;
  max_propagations : int;
  deadline : float;  (** absolute {!Qca_util.Clock.now} seconds; [infinity] = none *)
  cancelled : unit -> bool;
      (** polled cooperatively at each budget check of the CDCL loop
          and by every {!budget_status} poll; a caller stops a solve
          from outside by making it return [true]. It must be
          domain-safe if another domain flips it. *)
  fault : Qca_util.Fault.t;
  created : float;
  mutable conflicts_spent : int;
  mutable propagations_spent : int;
}

val no_budget : budget
(** Unlimited; shared constant ([solve]'s default — detected by
    physical identity and never written to). *)

val budget :
  ?timeout_ms:float ->
  ?max_conflicts:int ->
  ?max_propagations:int ->
  ?cancelled:(unit -> bool) ->
  ?fault:Qca_util.Fault.t ->
  unit ->
  budget
(** A fresh budget; [timeout_ms] is converted to an absolute deadline
    at creation time. *)

val budget_status : budget -> stop_reason option
(** Caps, deadline and cancellation only; never advances the fault
    plan. [None] means the budget still has headroom. *)

val budget_elapsed_ms : budget -> float
(** Milliseconds since the budget was created (0 for {!no_budget}). *)

type result = Sat | Unsat | Unknown of stop_reason

val create : ?options:options -> unit -> t

val new_var : ?decision:bool -> t -> Lit.var
(** A fresh variable. [decision] (default [true]) says whether the
    search may branch on it. A non-decision variable never enters the
    VSIDS order: it is only ever assigned by propagation or as an
    assumption, {!solve} answers [Sat] while it is still unassigned, and
    {!value} reads it as [false] then. Encodings use it for auxiliary
    variables (totalizer and counter outputs, assumption literals)
    whose value any model of the inputs determines.

    That false completion is a model of every original clause as long
    as no clause holds two positive non-decision literals: {!add_clause}
    turns such variables back into decision variables, so the flag can
    cost neither soundness nor completeness. *)

val is_decision : t -> Lit.var -> bool
(** Whether the search may branch on the variable now (a clause may
    have promoted it since {!new_var}). *)

val num_vars : t -> int
val num_clauses : t -> int

val add_clause : t -> Lit.t list -> unit
(** Adds a clause (permanently). Tautologies are dropped; duplicate
    literals merged. Adding the empty clause (or deriving a root-level
    conflict) makes every future {!solve} return [Unsat]. When the
    kept literals include two or more positive literals over
    non-decision variables, those variables become decision variables
    (see {!new_var}). The solver keeps no copy of the clause as given:
    it stores only the simplified clause (or root unit) it derives.
    Raises [Invalid_argument] when a literal's variable was never
    created by {!new_var}; the solver is then left unchanged. *)

val solve : ?assumptions:Lit.t list -> ?budget:budget -> t -> result
(** Solves under the optional assumptions. With a [budget], may answer
    [Unknown reason] when a cap, the deadline, the cancellation flag or
    an injected fault stops the search; the partial assignment is
    retracted and the solver can be reused. Without a budget the answer
    is always [Sat] or [Unsat]. [Sat] is answered once every decision
    variable is assigned and propagation reaches a fixpoint without a
    conflict; non-decision variables may still be unassigned. *)

val value : t -> Lit.var -> bool
(** Model value after [Sat]; raises [Invalid_argument] otherwise. A
    non-decision variable the search left unassigned reads [false]. *)

val lit_value : t -> Lit.t -> bool

val model : t -> bool array
(** Copy of the full model after [Sat]. *)

val unsat_core : t -> Lit.t list
(** After [Unsat] under assumptions: a subset of the assumptions that is
    already unsatisfiable together with the clauses. *)

(** {1 DRUP proof logging}

    With {!enable_proof} the CDCL loop records every learnt-clause
    addition (including derived units and the empty clause on UNSAT)
    and every clause-database deletion into a growable int buffer, in
    the order they happen — a DRUP proof. The log is an event stream:
    a header word [n lsl 1 lor is_delete] followed by [n] literals in
    the internal {!Lit.t} encoding. Replaying the additions against the
    original CNF with an independent unit-propagation engine (see
    [Qca_check.Drup]) certifies an [Unsat] answer; [Sat] answers are
    certified by evaluating the model.

    Logging is off by default and the search is bit-identical either
    way: emission sites only append to the buffer, never read it.
    Assumption-based UNSAT answers are {e not} covered (the formula
    itself need not be unsatisfiable); no empty clause is emitted for
    them. Enable the log {e before} adding clauses — root-level
    conflicts during {!add_clause} already emit proof events. *)

val enable_proof : t -> unit
val proof_enabled : t -> bool

val proof_log : t -> int array
(** Copy of the raw event stream recorded so far. *)

val proof_words : t -> int
(** Current size of the log in words (header words + literals). *)

val proof_fold :
  init:'a -> f:('a -> delete:bool -> int array -> 'a) -> int array -> 'a
(** Decodes a raw event stream: [f] is applied per event with the
    literal array (internal encoding). Raises [Invalid_argument] on a
    truncated stream. *)

(** {1 Invariant auditing}

    The solver invokes a registered hook every [QCA_AUDIT] conflicts
    ([QCA_AUDIT] unset or [0] disables the calls; a value [> 1] is the
    period in conflicts; any other non-empty value selects the default
    period of 256). The hook itself — which walks watch lists, trail,
    heap and arena accounting through {!view} — lives in [Qca_check]
    so the solver shares no code with its auditor. *)

val set_audit_hook : (t -> unit) -> unit
(** Registers the process-wide audit hook. *)

val audit : t -> unit
(** Invokes the registered hook once, immediately (used by tests at
    hand-picked quiescent points). No-op when no hook is installed. *)

type view = {
  v_nvars : int;
  v_use_vsids : bool;
  v_arena_data : int array;
  v_arena_used : int;
  v_arena_wasted : int;
  v_clauses : int array;  (** crefs of problem clauses *)
  v_learnts : int array;  (** crefs of learnt clauses *)
  v_wdata : int array array;  (** per-literal [(blocker, word)] pairs *)
  v_wsize : int array;
  v_assigns : int array;  (** var -> -1 undef / 1 true / 0 false *)
  v_reason : int array;  (** var -> implying cref, or -1 *)
  v_level : int array;
  v_trail : int array;
  v_trail_size : int;
  v_trail_lim : int array;
  v_trail_lim_size : int;
  v_qhead : int;
  v_hheap : int array;
  v_hsize : int;
  v_hindex : int array;
  v_hact : float array;
  v_decision : bool array;  (** var -> {!is_decision} *)
}
(** Read-only snapshot for the auditor: scalars are copied, arrays are
    shared with the live solver. *)

val view : t -> view

val force_reduce_db : t -> unit
(** Debug/test entry point: run a learnt-database reduction (with its
    arena GC) now, regardless of the learnt limit. *)

val force_gc : t -> unit
(** Debug/test entry point: compact the clause arena now. *)

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learnt_clauses : int;
  deleted_clauses : int;
  minimized_literals : int;
      (** literals removed from learnt clauses by minimization *)
  arena_gcs : int;  (** clause-arena compactions *)
  avg_lbd : float;  (** mean literal-block-distance of learnt clauses *)
}

val stats : t -> stats
