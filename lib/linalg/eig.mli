(** Eigendecomposition of small real symmetric matrices.

    A cyclic Jacobi eigensolver, plus simultaneous diagonalization of two
    commuting real symmetric matrices — the numerical core of the KAK
    (Cartan) decomposition in {!Qca_quantum.Kak}.

    A real [n×n] matrix is a flat row-major [float array] of length [n²]
    (entry [(i, j)] at index [i·n + j]), the layout of [Kak]'s
    fixed-size kernels. Every function raises [Invalid_argument] on an
    array whose length is not a positive square. *)

val jacobi : float array -> float array * float array
(** [jacobi a] diagonalizes the real symmetric matrix [a], returning
    [(eigenvalues, v)] with [v] orthogonal, columns are eigenvectors:
    [aᵀ = a = v · diag(eigenvalues) · vᵀ]. [a] is not modified.
    Eigenvalues are not sorted. *)

val simultaneous_diagonalize : float array -> float array -> float array
(** [simultaneous_diagonalize a b] returns an orthogonal [p] such that
    both [pᵀ·a·p] and [pᵀ·b·p] are diagonal. [a] and [b] must be real
    symmetric and commute; raises [Invalid_argument] otherwise (checked
    numerically). Strategy: diagonalize [a], then re-diagonalize [b]
    restricted to each (clustered) eigenspace of [a]. *)

val mat_mul : float array -> float array -> float array
(** Real matrix product. *)

val mat_transpose : float array -> float array

val det : float array -> float
(** Determinant via LU with partial pivoting. *)

val is_diagonal : ?tol:float -> float array -> bool
