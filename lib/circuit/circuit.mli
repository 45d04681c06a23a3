(** Quantum circuits as ordered gate sequences.

    A circuit is an immutable sequence of gates over [num_qubits] wires.
    The full unitary (qubit 0 = most significant bit) is available for
    circuits of up to {!max_unitary_qubits} qubits, which covers the
    whole evaluation of the paper (≤ 4 qubits).

    Storage is packed: one int per gate (its kind and wires) and one
    flat float array with every gate's parameters in gate order (a
    rotation 1 float, [U3] 3, [Su2] 8, [U4] 32). {!gates} decodes a
    fresh array on each call, bit for bit what was stored; callers that
    index gates repeatedly keep the decoded array (as {!Block.t} does).
    Every builder but {!add} is bulk; {!add} copies the circuit, so
    building one gate at a time is quadratic. *)

open Qca_linalg

type t

val create : int -> t
(** Empty circuit on the given number of qubits (≥ 1, ≤ 2{^28}). *)

val num_qubits : t -> int
val gates : t -> Gate.t array
(** The gates in order, decoded into a fresh array. *)

val length : t -> int
val is_empty : t -> bool

val add : t -> Gate.t -> t
(** Appends one gate; validates wire indices. Copies the circuit. *)

val add_list : t -> Gate.t list -> t
(** Appends the gates, validating wires; raises [Invalid_argument] also
    for an [Su2]/[U4] matrix that is not 2x2/4x4. *)

val of_gates : int -> Gate.t list -> t
val append : t -> t -> t
(** Concatenation; both circuits must have the same width. *)

val single : t -> Gate.single -> int -> t
(** Convenience: [single c g q] appends a single-qubit gate. *)

val two : t -> Gate.two -> int -> int -> t

val max_unitary_qubits : int
(** Currently 10; the evaluation uses ≤ 4. *)

val embed : Mat.t -> int list -> int -> Mat.t
(** [embed m wires n] lifts a gate matrix acting on [wires] (given most
    significant first) to the full [2ⁿ x 2ⁿ] space. *)

val unitary : t -> Mat.t
(** Full circuit unitary. Raises [Invalid_argument] beyond
    {!max_unitary_qubits} qubits. *)

val unitary_of_gates : int -> Gate.t array -> Mat.t
(** [unitary_of_gates n gates] is {!unitary} of the [n]-qubit circuit
    with these gates, for callers that already hold the decoded array. *)

val equivalent : ?up_to_phase:bool -> t -> t -> bool
(** Unitary equivalence (default up to global phase). *)

val same_unitary : ?up_to_phase:bool -> Mat.t -> Mat.t -> bool
(** The comparison {!equivalent} makes on two unitaries (tolerance
    1e-7, default up to global phase). *)

val count_two_qubit : t -> int
val count_single_qubit : t -> int

val merge_single_qubit_runs : t -> t
(** Fuses maximal runs of single-qubit gates on the same wire into one
    [Su2] gate, dropping runs that amount to the identity (up to global
    phase). Used to model hardware with a native arbitrary-SU(2) gate. *)

val map_gates : (Gate.t -> Gate.t list) -> t -> t
(** Rewrites each gate into a list of replacement gates. *)

val inverse : t -> t
(** The adjoint circuit: gates reversed and individually inverted, so
    that [append c (inverse c)] is the identity (up to global phase). *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
