(** Weighted pseudo-Boolean bounds via the generalized totalizer
    encoding (Joshi, Martins, Manquinho 2015).

    Builds, for a weighted sum [Σ wᵢ·ℓᵢ] with positive weights, a CNF
    structure whose output literal witnesses [sum ≥ bound]; asserting
    its negation therefore enforces [sum ≤ bound − 1]. Sums are clamped
    at the bound of interest, which keeps the per-node weight sets small
    on the instances of this repository.

    The OMT drivers use {!assume_at_most} to perform objective
    strengthening with a fresh removable selector per bound.

    Every variable an encoding creates (node outputs, counter registers,
    assumption selectors) is a non-decision variable
    ({!Qca_sat.Solver.new_var}): the search branches only on the
    caller's literals. *)

open Qca_sat

type linear = (Lit.t * int) list
(** Terms [wᵢ·ℓᵢ]; weights may be negative. *)

val normalize : linear -> (Lit.t * int) list * int
(** Rewrites terms so that all weights are strictly positive (negating
    literals as needed), returning the added constant offset:
    [Σ old = Σ new + offset]. Zero-weight terms are dropped. *)

val marker_geq : Solver.t -> (Lit.t * int) list -> int -> Lit.t option
(** [marker_geq s terms bound] (positive weights, bound ≥ 1) adds
    clauses such that whenever [Σ ≥ bound] in a model, the returned
    marker literal is forced true. Returns [None] when the sum can
    never reach [bound] (marker would be constant-false). *)

val assume_at_most : Solver.t -> linear -> int -> Lit.t option
(** [assume_at_most s terms k] returns an assumption literal [a] such
    that assuming [a] enforces [Σ terms ≤ k]. Returns [None] when the
    constraint is vacuously true. Raises [Invalid_argument] when it is
    plainly unsatisfiable (even the all-false assignment exceeds [k]). *)

val assume_at_most_approx :
  ?resolution:int -> Solver.t -> linear -> int -> Lit.t option
(** Like {!assume_at_most} but with weights divided by a granularity
    chosen so the clamped totalizer stays below [resolution] (default
    256) distinct levels. The encoded constraint
    [Σ ⌊wᵢ/g⌋·ℓᵢ ≤ ⌊k/g⌋] is implied by the exact one, so using it as a
    branch-and-bound prune never cuts off a feasible improving solution
    — it is merely (boundedly) weaker. Keeps encodings small when
    weights are large and heterogeneous. *)

type selector
(** A reusable upper-bound structure: one totalizer whose root outputs
    can be turned into assumption literals for {e any} bound below the
    construction maximum — the OMT driver's pruning bound shrinks every
    round, so one build serves the whole optimization. *)

val at_most_selector :
  ?resolution:int -> Solver.t -> linear -> max:int -> selector
(** Builds the structure able to enforce [Σ terms ≤ k] for any
    [k ≤ max]. *)

val select : selector -> int -> Lit.t option option
(** [select sel k]: [None] when the bound is vacuous (always true);
    [Some None] when it is infeasible (even the minimum sum exceeds
    [k]); [Some (Some a)] an assumption literal enforcing an
    admissible (implied-by-exact) relaxation of [Σ ≤ k]. *)

val enforce_at_most :
  ?resolution:int -> Solver.t -> linear -> int -> unit
(** Adds [Σ terms ≤ k] as a hard (approximate, implied-by-exact)
    constraint: an {!assume_at_most_approx} selector asserted as a unit
    clause. Used for lazily generated objective cuts. *)
