(** KAK (Cartan) decomposition of two-qubit unitaries.

    Every [u ∈ U(4)] factors as
    [u = e^{iφ} · (k1l ⊗ k1r) · exp(i(x·XX + y·YY + z·ZZ)) · (k2l ⊗ k2r)]
    with single-qubit unitaries [k1l, k1r, k2l, k2r] and interaction
    coefficients [(x, y, z)]. The algorithm works in the magic (Bell)
    basis, where local gates become real orthogonal matrices and the
    canonical interaction becomes diagonal; the complex symmetric matrix
    [MᵀM] is diagonalized by simultaneously diagonalizing its commuting
    real and imaginary parts ({!Qca_linalg.Eig.simultaneous_diagonalize}).

    The arithmetic runs on fixed-size kernels over flat float arrays
    that repeat the floating-point operations of the generic {!Mat}
    path in the same order, so every output is bit-identical to it
    (DESIGN §7.11). *)

open Qca_linalg

type t = {
  phase : float;  (** global phase φ *)
  k1l : Mat.t;  (** left factor on qubit 0 (2x2) *)
  k1r : Mat.t;  (** left factor on qubit 1 (2x2) *)
  x : float;
  y : float;
  z : float;  (** interaction coefficients (not Weyl-canonicalized) *)
  k2l : Mat.t;  (** right factor on qubit 0 (2x2) *)
  k2r : Mat.t;  (** right factor on qubit 1 (2x2) *)
}

val magic_basis : Mat.t
(** The magic/Bell basis change [B]; [B†·(SU(2)⊗SU(2))·B ⊆ SO(4)]. *)

val decompose : Mat.t -> t
(** [decompose u] computes the KAK decomposition of a 4x4 unitary.
    Raises [Invalid_argument] if [u] is not unitary. The reconstruction
    {!rebuild} matches [u] to ~1e-8. *)

val rebuild : t -> Mat.t
(** Reassembles the unitary from its factors. *)

val factor_tensor_product : Mat.t -> (Mat.t * Mat.t) option
(** [factor_tensor_product m] splits a 4x4 matrix into [Some (a, b)]
    with [m = a ⊗ b] ([a], [b] unitary when [m] is, with the phase
    split arbitrarily between them), or [None] when [m] is not a tensor
    product (checked to 1e-6). *)

val makhlin_invariants : Mat.t -> Cx.t * float
(** Local invariants [(G1, G2)] of a two-qubit gate: two unitaries are
    equivalent up to single-qubit gates iff their invariants agree. *)

val locally_equivalent : ?tol:float -> Mat.t -> Mat.t -> bool

type canonical = {
  cx : float;
  cy : float;
  cz : float;
      (** Weyl-chamber coordinates: [π/4 ≥ cx ≥ cy ≥ |cz|], [cy ≥ 0],
          and [cz ≥ 0] whenever [cx = π/4]. *)
  c_phase : float;
  cl : Mat.t;  (** left 4x4 local correction (a tensor product) *)
  cr : Mat.t;  (** right 4x4 local correction (a tensor product) *)
}
(** Witnesses
    [canonical_gate (x,y,z) = e^{i·c_phase} · cl · canonical_gate (cx,cy,cz) · cr]. *)

val canonicalize : float -> float -> float -> canonical
(** Maps raw interaction coefficients into the Weyl chamber, tracking the
    exact local corrections (Clifford conjugations and ±π/2 shifts). *)

val weyl_coordinates : Mat.t -> float * float * float
(** Canonical interaction coefficients of an arbitrary 4x4 unitary. *)

val cnot_cost : Mat.t -> int
(** Minimal number of CNOT/CZ-class gates needed to implement the given
    two-qubit unitary: 0, 1, 2 or 3 (by the standard Weyl-chamber
    criterion: 0 iff local, 1 iff coordinates [(π/4,0,0)], 2 iff
    [cz = 0], else 3). *)
