(** Two-qubit circuit synthesis from a unitary (KAK-based).

    Given an arbitrary 4x4 unitary, produces an equivalent (up to global
    phase) circuit over a chosen entangling gate plus arbitrary
    single-qubit [Su2] gates, using the minimal number of entanglers
    determined by the Weyl-chamber coordinates (0, 1, 2 or 3).

    The entangler core for the generic (3-gate) case is the
    Vatan-Williams template; its parameter convention is calibrated
    by checking canonical coordinates (the variant found is kept in a
    {!hint} for the next block of the circuit), and every synthesis
    result is verified against the input unitary before being returned,
    so a wrong template can never produce an incorrect circuit. *)

open Qca_linalg

type entangler = Use_cx | Use_cz | Use_cz_db

val entangler_gate : entangler -> Gate.two

type hint
(** The three-CX template variant that aligned last. Several variants
    can align with one block, and they give different (equally correct)
    circuits, so the variant tried first decides the result. A
    synthesis that passes one hint to every block of a circuit searches
    the 48 variants about once per circuit instead of once per block,
    and its result depends on that circuit alone. *)

val hint : unit -> hint
(** A fresh hint: the first three-CX block searches from variant 0. *)

val two_qubit : hint:hint -> entangler -> Mat.t -> Gate.t list
(** [two_qubit ent u] synthesizes [u] on local wires 0 (most
    significant) and 1. Single-qubit gates come out merged as [Su2].
    Raises [Invalid_argument] if the final verification fails. *)

val two_qubit_on :
  hint:hint -> entangler -> Mat.t -> a:int -> b:int -> Gate.t list
(** Same, with local wires mapped to circuit wires [a] (msb) and [b]. *)

val two_qubit_each : hint:hint -> entangler list -> Mat.t -> Gate.t list list
(** One synthesis per entangler, sharing a single KAK decomposition
    and template alignment (the entangler only affects the final
    lowering). Each result is verified independently; equivalent to
    [List.map (fun e -> two_qubit ~hint e u) ents] but roughly half the cost
    for two entanglers. *)

val two_qubit_on_each :
  hint:hint -> entangler list -> Mat.t -> a:int -> b:int -> Gate.t list list
(** {!two_qubit_each} with local wires mapped to circuit wires [a]
    (msb) and [b]. *)

val entangler_count : Mat.t -> int
(** Number of entangling gates {!two_qubit} will use (= KAK CNOT cost). *)

val two_qubit_approx :
  hint:hint -> entangler -> max_entanglers:int -> Mat.t -> Gate.t list * float
(** Approximate synthesis under an entangler budget: the canonical
    interaction coefficients are projected onto the nearest class
    implementable with at most [max_entanglers] two-qubit gates
    (3 → exact; 2 → [cz ≈ 0]; 1 → CNOT class; 0 → local), keeping the
    exact local factors. Returns the circuit and the average gate
    fidelity of the approximation (1.0 when the budget suffices for an
    exact synthesis). *)
