module Circuit = Qca_circuit.Circuit
open Qca_sat

(** End-to-end quantum circuit adaptation.

    Takes an IBM-basis input circuit and produces a circuit over the
    spin-qubit native gate set using one of the studied methods:

    - {!Direct}: direct basis translation (the paper's comparison
      baseline);
    - {!Kak_only_cz} / {!Kak_only_cz_db}: KAK decomposition of every
      two-qubit block over (diabatic) CZ;
    - {!Template_f} / {!Template_r}: greedy local template optimization
      targeting fidelity / duration (section III);
    - {!Sat}: the SMT model with objective SAT F / SAT R / SAT P
      (section IV);
    - {!Greedy}: the future-work heuristic — globally evaluated greedy
      selection over the same substitution space as {!Sat}. It runs
      {!Model.greedy}, the same code as the SMT warm start, with fault
      site [Greedy_step]; under {!adapt_governed} an interruption keeps
      the conflict-free prefix chosen so far.

    Every {!Sat} or {!Greedy} adaptation partitions, matches and encodes
    its circuit afresh and builds one {!Model.t}, which the OMT search
    consumes; nothing carries over between calls, so the same input
    always gets the same answer. *)

type method_ =
  | Direct
  | Kak_only_cz
  | Kak_only_cz_db
  | Template_f
  | Template_r
  | Sat of Model.objective
  | Greedy of Model.objective

val method_name : method_ -> string
(** Display name, as in the paper's figures ("SAT P"). *)

val method_names : string list
(** The command-line/wire names of all eleven methods: direct, kak-cz,
    kak-czdb, tmp-f, tmp-r, sat-f, sat-r, sat-p, greedy-f, greedy-r,
    greedy-p. *)

val method_of_string : string -> (method_, string) result
(** Inverse of {!method_to_string}; case-sensitive. *)

val method_to_string : method_ -> string

val all_methods : method_ list
(** The seven methods evaluated in the paper's figures, in plot order
    (excluding {!Greedy}). *)

type info = {
  substitutions_considered : int;
  substitutions_chosen : int;
  omt_rounds : int;  (** 0 for non-SAT methods *)
  path_cuts : int;  (** critical-path cuts added by the OMT search *)
  proven_optimal : bool;
      (** the SMT optimum was proven ({!Model.solution}'s flag); [false]
          when the anytime round cap ended the search and for every
          tier that did not run the OMT search to completion *)
  gap_pct : float option;
      (** how far the served objective value may be from the optimum:
          its distance to {!Model.solution}'s [lower_bound], in percent
          of its magnitude; [Some 0.] when proven optimal, [None] when no
          OMT search produced the circuit *)
}

val no_info : info
(** All counts 0, [proven_optimal = false], no gap: the info of a
    circuit that no substitution search produced. *)

val adapt :
  ?options:Solver.options -> Hardware.t -> method_ -> Circuit.t -> Circuit.t
(** Adapts the circuit; the result contains only native gates and is
    unitary-equivalent to the input (up to global phase). *)

val adapt_with_info :
  ?options:Solver.options ->
  Hardware.t ->
  method_ ->
  Circuit.t ->
  Circuit.t * info

val apply_substitutions :
  Qca_circuit.Block.t -> Rules.t list -> Circuit.t
(** Materializes a conflict-free substitution choice: chosen
    replacements are spliced in, all remaining gates go through direct
    basis translation, blocks are emitted in dependency order, and
    single-qubit runs are merged. *)

(** {1 Resource-governed adaptation}

    {!adapt_governed} wraps adaptation in a degradation ladder so a
    request under a {!Solver.budget} never hangs and never raises:

    - [Sat obj] is attempted first (budget-governed OMT); a budget
      stop before the model exists (at entry, or while
      {!Rules.find_all} matches) goes straight to the direct rung;
    - if the budget stops the search after an incumbent exists, the
      incumbent is served ({!Incumbent});
    - if it stops before any incumbent exists, the greedy heuristic
      over the same substitution space runs with the remaining budget
      ({!Greedy_fallback}); so it does, with reason
      [Unverified_schedule], when the difference-logic check rejects
      the SMT tier's schedule ({!Model.verify_schedule});
    - if even that is impossible, direct basis translation — always
      valid, always fast — serves the request ({!Direct_fallback}).

    Each rung is exercised deterministically in the test suite through
    {!Qca_util.Fault} injection. *)

type tier = Full | Incumbent | Greedy_fallback | Direct_fallback

val tier_name : tier -> string

type spent = {
  conflicts : int;  (** CDCL conflicts charged to the budget *)
  propagations : int;
  elapsed_ms : float;  (** wall-clock since the budget was created *)
}

type outcome = {
  circuit : Circuit.t;  (** the adapted circuit (always valid) *)
  requested : method_;
  tier : tier;  (** which rung of the ladder served the request *)
  reason : Solver.stop_reason option;
      (** why the request degraded (or, for a partially-run [Greedy]
          request, why it stopped early); [None] = full service *)
  spent : spent;
  info : info;
  claimed_makespan : int option;
      (** the SMT solution's circuit duration, when an SMT tier served
          the request — checkable with {!Lint.certify_adaptation} *)
}

val degraded : outcome -> bool
(** [true] when the request was not served at full fidelity. *)

val adapt_governed :
  ?options:Solver.options ->
  ?budget:Solver.budget ->
  ?jobs:int ->
  Hardware.t ->
  method_ ->
  Circuit.t ->
  outcome
(** Adapt under a resource budget (default: a fresh unlimited budget,
    so [spent] is still reported). With an unlimited budget the served
    circuit is identical to {!adapt}'s. Never hangs, and never raises
    but for a [jobs] other than 1 — see the ladder above. [jobs]
    (default 1) raises [Invalid_argument] at any other value: every
    OMT round runs on the model's one solver, and the label stays only
    for callers that pass [~jobs:1]. *)
