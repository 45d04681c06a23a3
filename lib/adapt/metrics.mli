module Circuit = Qca_circuit.Circuit

(** Realized-circuit metrics, computed on adapted (native-gate)
    circuits: the quantities plotted in Fig. 5 (circuit fidelity as the
    product of gate fidelities) and Fig. 6 (qubit idle time). *)

type summary = {
  duration : int;  (** ASAP makespan, ns *)
  fidelity : float;  (** Π gate fidelities *)
  log_fidelity : float;
  idle_total : int;  (** Σ_q (makespan − busy_q), ns *)
  idle_per_qubit : int array;
  gates : int;
  two_qubit_gates : int;
}

val summarize : Hardware.t -> Circuit.t -> summary
(** The circuit must contain only native gates. Decodes it once. *)

val summarize_gates :
  Hardware.t -> num_qubits:int -> Qca_circuit.Gate.t array -> summary
(** {!summarize} of the circuit with these gates, for callers that
    already hold the decoded array. *)

val fidelity_change_pct : baseline:summary -> summary -> float
(** Percentage change in circuit fidelity vs the baseline (Fig. 5's
    y-axis; positive is better). *)

val idle_decrease_pct : baseline:summary -> summary -> float
(** Percentage decrease in total qubit idle time (Fig. 6's y-axis;
    positive is better). A baseline with zero idle time yields 0. *)

val pp : Format.formatter -> summary -> unit
