module Block = Qca_circuit.Block
open Qca_sat

(** The SMT model of section IV-C, solved without an SMT solver.

    The paper's model has a Boolean [c_s] per substitution (set C), a
    start-time integer [e_b] per block (set E) and the circuit duration
    [D], under mutual exclusion of overlapping substitutions (Eq. 1),
    block dependencies (Eq. 2) and duration/fidelity accumulation
    (Eq. 3–6, log-fidelities in 1e6·ln fixed point). Here only the
    [c_s] and the Eq. 1 clauses live in the CDCL solver: for any choice
    the start times and [D] are a longest path over the block DAG.
    {!optimize} minimizes Eq. 8–10 by branch and bound over that solver,
    pruned by lazily added critical-path cuts and stopped at the
    separable {!lower_bound}; {!verify_schedule} checks the final
    schedule with the difference-logic solver. *)

type objective =
  | Sat_f  (** fidelity objective, Eq. 8 *)
  | Sat_r  (** qubit-idle-time objective, Eq. 9 *)
  | Sat_p  (** combined objective, Eq. 10 *)

val objective_name : objective -> string

type t
(** A built model. One-shot: each {!optimize} call consumes it. *)

val build :
  ?options:Solver.options -> Hardware.t -> Block.t -> Rules.t list -> t
(** Encodes the substitutions of {!Rules.find_all}. Each must cover a
    contiguous run of its block's gates (asserted; {!block_min} relies
    on it). *)

val duration_terms : t -> int -> int * (int * int) list
(** [duration_terms t b] is [(D(b), [(sub id, 𝔻(s)); ...])] — the Eq. 3
    right-hand side of block [b] (used by the paper-example test that
    reproduces Eq. 11). *)

type solution = {
  chosen : Rules.t list;  (** substitutions with [c_s = true] *)
  objective_value : int;  (** minimized integer objective *)
  makespan : int;  (** optimal circuit duration for the chosen set *)
  rounds : int;  (** OMT improvement rounds *)
  path_cuts : int;  (** critical-path cuts added during the search *)
  proven_optimal : bool;
      (** true when the incumbent reached [lower_bound] or the search
          closed with an UNSAT certificate; false when the anytime round
          budget stopped it at the incumbent *)
  lower_bound : int;
      (** {!lower_bound} of the model and objective: the optimum lies in
          [lower_bound, objective_value] *)
  stopped : Solver.stop_reason option;
      (** set when the resource budget (or an injected fault) stopped
          the search at the incumbent; [None] for a normal anytime stop
          on the driver's own round budget *)
}

type error =
  [ `Already_consumed  (** the one-shot model was optimized before *)
  | `Budget_exhausted of Solver.stop_reason
    (** the budget tripped before any incumbent existed (during the
        warm start) — no solution at all is available from this tier *)
  | `Unverified_schedule
    (** {!verify_schedule} rejected the final schedule (a model bug) *)
  ]

type greedy_result = {
  mask : bool array;  (** chosen substitutions, indexed by id *)
  value : int;  (** exact integer objective of [mask] *)
  makespan : int;  (** circuit duration of [mask] *)
  interrupted : Solver.stop_reason option;
      (** set when the budget or a fault stopped the search; [mask] is
          then the conflict-free prefix chosen so far *)
}

val greedy :
  ?budget:Solver.budget ->
  site:Qca_util.Fault.site ->
  t ->
  objective ->
  greedy_result
(** Best improvement from the empty choice: each step adds the
    compatible substitution with the strictly lowest exact objective
    (lowest id on ties) until none improves. {!optimize}'s warm start
    and the pipeline's [Greedy] method and ladder rung. Scoring a
    candidate is one allocation-free longest-path pass:
    O(steps·S·(B+E)) for S substitutions, B blocks, E edges.

    Each step consults [budget] and the fault plan at [site] once
    ([Warm_start] from {!optimize}, [Greedy_step] from the pipeline;
    [Exhaust] reads as [Deadline]); inside a step, every 64 candidates
    poll {!Solver.budget_status}. A stop discards the unfinished step.
    Pure: works on a consumed model. *)

val optimize :
  ?round_budget:int ->
  ?budget:Solver.budget ->
  t ->
  objective ->
  (solution, error) result
(** Optimizes the objective: {!greedy} warm start, then branch-and-bound
    over the CDCL solver. Each round is a plain {!Solver.solve}; its
    model becomes the incumbent when it is better, its exact choice is
    excluded by a no-good clause, and while the objective weighs the
    makespan, the critical path of the incumbent's schedule enters as a
    pseudo-Boolean cut that every better choice must satisfy. Before
    each CDCL call the incumbent is compared with {!lower_bound}: once
    it reaches the bound it is optimal, and the search stops there with
    [proven_optimal = true] without calling the solver (the round cap
    and the budget poll still come first). For SAT F the bound is the
    exact optimum and {!block_min}'s per-block choices attain it: when
    the greedy misses the bound, that choice replaces the greedy's, so
    SAT F always closes at round 1 without a CDCL call. Otherwise the
    search runs to an UNSAT proof unless the anytime round cap runs out
    first, in which case the incumbent is returned with
    [proven_optimal = false]. The cap is [round_budget], by default
    [max 16 (min 120 (4000 / S))] for S substitutions, so deep circuits
    can stop at the cap. A resource [budget] governs the warm start,
    the OMT rounds and every CDCL call (fault sites
    {!Qca_util.Fault.Warm_start}, [Omt_round] and [Sat_step]); when it
    trips after an incumbent exists the incumbent is returned with
    [stopped] set, before one exists the typed [`Budget_exhausted]
    error is returned; a schedule that {!verify_schedule} rejects,
    [`Unverified_schedule]. Never raises.

    Every round solves on the model's own solver, which stays alive
    across the rounds, so learnt clauses, saved phases and VSIDS
    activities carry from round to round. The no-goods and path cuts
    stay in that solver, so the call consumes the model: a second call
    answers [`Already_consumed]. *)

val lower_bound : t -> objective -> int
(** An admissible lower bound on the integer objective: every block at
    the least Σ w_s over its conflict-free substitution sets, plus
    [d_weight] times the longest path over the block DAG where a block
    weighs what its duration can add on top of that least sum. Eq. 1
    only pairs substitutions of one block, so for SAT F ([d_weight = 0])
    it is the exact optimum. It touches no solver state, so it also
    works on a consumed model. *)

val block_min : t -> (Rules.t -> int) -> int -> int * Rules.t list
(** [block_min t w b]: the least Σ [w s] over the conflict-free subsets
    of block [b]'s substitutions (the empty set included, so never
    positive), and one such subset attaining it, in gate order. Every
    substitution covers a contiguous run of its block's gates ({!build}
    asserts it), so this is weighted interval scheduling over gate
    positions, O(k+S) for k gates and S substitutions. *)

val evaluate_choice : t -> objective -> Rules.t list -> int
(** Exact integer objective of an arbitrary conflict-free choice of
    substitutions, from scratch in O(B+E+S). *)

val verify_schedule : t -> bool array -> int -> bool
(** [verify_schedule t mask makespan]: whether the difference-logic
    solver finds Eq. 2 start times, under the durations of the choice
    [mask] (by id), that finish every block by [makespan]. *)

val sat_stats : t -> Solver.stats
(** Counters of the model's CDCL solver (conflicts, propagations,
    learnt-clause minimization, arena GCs, ...). Valid before and after
    {!optimize}. *)
