module Gate = Qca_circuit.Gate
module Block = Qca_circuit.Block

(** Substitution-rule evaluation (step (b) of the paper's workflow).

    Each rule of Fig. 3 is matched against the partitioned circuit; a
    match [s] records the substituted source gates [p_s], the
    replacement native gates [g_s], the affected block, and the duration
    / log-fidelity deltas of Eq. 4 and Eq. 6 relative to the direct
    basis translation. *)

type kind =
  | Cond_rot  (** one [cx] → CROT(π) + S on the control (Fig. 3b) *)
  | Swap_native_d  (** three alternating [cx] → [Swap_d] (Fig. 3d) *)
  | Swap_native_c  (** three alternating [cx] → [Swap_c] *)
  | Kak_cz  (** whole block → KAK circuit over CZ (Fig. 3c) *)
  | Kak_cz_db  (** whole block → KAK circuit over diabatic CZ *)

type t = {
  id : int;
  kind : kind;
  block_id : int;
  substituted : int list;  (** gate indices in the original circuit, p_s *)
  replacement : Gate.t list;  (** native replacement gates g_s, on circuit wires *)
  delta_duration : int;  (** 𝔻(s), Eq. 4 *)
  delta_log_fid : int;  (** 𝔽(s), Eq. 6, fixed-point (1e6·ln) *)
}

val kind_name : kind -> string

val reference_duration : Hardware.t -> Gate.t -> int
(** Duration of a source gate under direct basis translation (sum of the
    translated gates' durations). *)

val reference_log_fid : Hardware.t -> Gate.t -> int

exception Stopped of Qca_sat.Solver.stop_reason
(** Raised by {!find_all} when its budget runs out. *)

val find_all : ?budget:Qca_sat.Solver.budget -> Hardware.t -> Block.t -> t list
(** All rule matches on the partitioned circuit, with fresh ids
    [0..n-1]. KAK substitutions are only generated for two-qubit blocks
    whose KAK circuit actually differs from the reference cost profile
    is well-defined (i.e. every [Pair] block). [budget] (default
    {!Qca_sat.Solver.no_budget}) is polled before each block; when
    {!Qca_sat.Solver.budget_status} reports a stop, [find_all] raises
    {!Stopped} with its reason. *)

val conflicts : t list -> (int * int) list
(** Pairs of substitution ids with overlapping [substituted] sets
    (Eq. 1). *)

val block_reference : Hardware.t -> Block.t -> int -> int * int
(** [block_reference hw part b] translates block [b] directly once and
    returns [(D(b), log F(b))]: the critical path of that translation
    (the paper's reference block duration) and the Σ of its gates'
    fixed-point log-fidelities. *)
