(** Weighted pseudo-Boolean bounds via the generalized totalizer
    encoding (Joshi, Martins, Manquinho 2015).

    Builds, for a weighted sum [Σ wᵢ·ℓᵢ] with positive weights, a CNF
    structure whose output literal witnesses [sum ≥ bound]; asserting
    its negation therefore enforces [sum ≤ bound − 1]. Sums are clamped
    at the bound of interest, which keeps the per-node weight sets small
    on the instances of this repository.

    The OMT driver asserts its critical-path cuts with
    {!enforce_at_most}.

    Every variable an encoding creates (node outputs, counter registers,
    assumption literals) is a non-decision variable
    ({!Qca_sat.Solver.new_var}): the search branches only on the
    caller's literals. *)

open Qca_sat

type linear = (Lit.t * int) list
(** Terms [wᵢ·ℓᵢ]; weights may be negative. *)

val normalize : linear -> (Lit.t * int) list * int
(** Rewrites terms so that all weights are strictly positive (negating
    literals as needed), returning the added constant offset:
    [Σ old = Σ new + offset]. Zero-weight terms are dropped. *)

val assume_at_most : Solver.t -> linear -> int -> Lit.t option
(** [assume_at_most s terms k] returns an assumption literal [a] such
    that assuming [a] enforces [Σ terms ≤ k]. Returns [None] when the
    constraint is vacuously true. Raises [Invalid_argument] when it is
    plainly unsatisfiable (even the all-false assignment exceeds [k]). *)

val assume_at_most_approx :
  ?resolution:int -> Solver.t -> linear -> int -> Lit.t option
(** Like {!assume_at_most} but every totalizer node keeps at most
    [resolution] (default 256) output weights, evenly spaced; an
    implication whose target weight was dropped concludes at the
    nearest kept weight below it. The encoded constraint is therefore
    implied by the exact one: used as a branch-and-bound prune it never
    cuts off a feasible improving solution, it is merely weaker. Keeps
    encodings small when weights are large and heterogeneous. *)

val enforce_at_most :
  ?resolution:int -> Solver.t -> linear -> int -> unit
(** Adds [Σ terms ≤ k] as a hard (approximate, implied-by-exact)
    constraint: an {!assume_at_most_approx} literal asserted as a unit
    clause. Used for lazily generated objective cuts. *)
