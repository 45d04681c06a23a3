(** Dense complex matrices.

    Row-major dense storage sized for quantum operators on up to a
    handful of qubits (2x2 ... 16x16 in this repository). Every operation
    allocates a fresh result; matrices are treated as immutable values by
    the rest of the code base. *)

type t

val create : int -> int -> t
(** [create rows cols] is the zero matrix. *)

val init : int -> int -> (int -> int -> Cx.t) -> t

val rows : t -> int
val cols : t -> int

val get : t -> int -> int -> Cx.t
val set : t -> int -> int -> Cx.t -> unit
(** Mutation is only used locally while building a matrix. *)

val identity : int -> t
val zeros : int -> int -> t

val of_lists : Cx.t list list -> t
(** Rows as lists. All rows must have equal length. *)

val of_real_lists : float list list -> t

val copy : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : Cx.t -> t -> t
val mul : t -> t -> t
(** Matrix product. Dimensions must agree. *)

val mul3 : t -> t -> t -> t
(** [mul3 a b c] is [a·b·c]. *)

val kron : t -> t -> t
(** Kronecker (tensor) product. *)

val transpose : t -> t
val conj : t -> t
val adjoint : t -> t
(** Conjugate transpose. *)

val trace : t -> Cx.t
val det4 : t -> Cx.t
(** Determinant by cofactor expansion; matrix must be at most 4x4. *)

val apply_vec : t -> Cx.t array -> Cx.t array
(** Matrix-vector product. *)

val frobenius_norm : t -> float
val max_abs_diff : t -> t -> float
(** Entrywise max modulus of the difference. *)

val approx_equal : ?tol:float -> t -> t -> bool

val equal_up_to_global_phase : ?tol:float -> t -> t -> bool
(** [equal_up_to_global_phase a b] holds when [a = e^{iφ}·b] for some
    real [φ]. *)

val is_unitary : ?tol:float -> t -> bool
val is_hermitian : ?tol:float -> t -> bool
val is_real : ?tol:float -> t -> bool
val is_diagonal : ?tol:float -> t -> bool

val map : (Cx.t -> Cx.t) -> t -> t

val pp : Format.formatter -> t -> unit
