(** Two-qubit block partitioning and the block dependency graph
    (preprocessing step (a) of the paper, section IV-A).

    Gates are grouped greedily into maximal blocks acting on a single
    qubit pair; single-qubit gates are absorbed into the current block of
    their wire (or attached to the next block created on that wire when
    they precede every two-qubit gate). The block dependency graph has an
    edge [b' → b] whenever [b] consumes a qubit previously used by [b']
    (per-qubit chains, Eq. 2 of the paper). *)

type wires =
  | Pair of int * int  (** a two-qubit block, wires in first-use order *)
  | Solo of int  (** a wire that never meets a two-qubit gate *)

type block = {
  id : int;
  wires : wires;
  gate_ids : int list;  (** indices into the circuit's gate array, ascending *)
}

type t = {
  circuit : Circuit.t;
  gates : Gate.t array;
      (** [Circuit.gates circuit], decoded once: [gate_ids] index it *)
  blocks : block array;
  deps : (int * int) list;  (** edges (b', b): b' must finish before b starts *)
  gate_block : int array;  (** gate index -> owning block id *)
  preds : int array array;  (** block id -> predecessor ids, ascending *)
  succs : int array array;  (** block id -> successor ids, ascending *)
  order : int array;
      (** block ids in dependency order (Kahn's algorithm, FIFO queue
          seeded in id order, successors visited ascending) *)
}

val partition : Circuit.t -> t

val block_circuit : t -> block -> Circuit.t
(** The block's gates as a standalone 2-qubit (or 1-qubit for [Solo])
    circuit, wires renumbered to 0 (and 1). *)

val block_unitary : t -> block -> Qca_linalg.Mat.t

val predecessors : t -> int -> int list
(** [Array.to_list t.preds.(bid)]: the sources of [bid]'s edges in
    [deps] order. *)

val successors : t -> int -> int list
(** [Array.to_list t.succs.(bid)]: the targets of [bid]'s edges in
    [deps] order. *)

val topological_order : t -> int list
(** [Array.to_list t.order]. *)

val pp : Format.formatter -> t -> unit
