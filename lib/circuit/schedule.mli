(** As-soon-as-possible scheduling of a circuit given gate durations.

    Durations are integer nanoseconds. Each gate occupies all of its
    wires for its whole duration; a gate starts as soon as every wire it
    touches is free. This yields the circuit duration (critical path),
    per-qubit busy/idle times, and the explicit idle windows used by the
    noisy simulator's thermal-relaxation channels. *)

type t = {
  starts : int array;  (** per gate index *)
  finishes : int array;
  makespan : int;  (** total circuit duration *)
  busy : int array;  (** per qubit: time spent inside gates *)
  idle : int array;  (** per qubit: makespan − busy *)
}

val schedule : dur:(Gate.t -> int) -> Circuit.t -> t

val schedule_gates : dur:(Gate.t -> int) -> num_qubits:int -> Gate.t array -> t
(** {!schedule} of the circuit with these gates, for callers that
    already hold the decoded array ({!Circuit.gates} decodes afresh on
    every call). *)

val total_idle : t -> int
(** Sum of per-qubit idle times. *)

val idle_windows : dur:(Gate.t -> int) -> Circuit.t -> (int * int) list array
(** Per qubit, the maximal intervals (start, stop) during which the
    qubit sits idle, including the leading window before its first gate
    and the trailing window up to the makespan. *)

val alap : dur:(Gate.t -> int) -> Circuit.t -> t
(** As-late-as-possible schedule with the ASAP makespan as the
    deadline: every gate is pushed to its latest feasible start. The
    makespan is unchanged. *)

val slack : dur:(Gate.t -> int) -> Circuit.t -> int array
(** Per-gate scheduling slack [alap start − asap start]; gates with
    zero slack form the critical path of the circuit. *)

val critical_gates : dur:(Gate.t -> int) -> Circuit.t -> int list
(** Indices of zero-slack gates, in circuit order. *)
