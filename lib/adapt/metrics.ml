module Circuit = Qca_circuit.Circuit
module Schedule = Qca_circuit.Schedule
module Gate = Qca_circuit.Gate

type summary = {
  duration : int;
  fidelity : float;
  log_fidelity : float;
  idle_total : int;
  idle_per_qubit : int array;
  gates : int;
  two_qubit_gates : int;
}

let summarize_gates hw ~num_qubits gates =
  let sch = Schedule.schedule_gates ~dur:(Hardware.duration hw) ~num_qubits gates in
  let log_fidelity =
    Array.fold_left
      (fun acc g -> acc +. log (Hardware.fidelity hw g))
      0.0 gates
  in
  {
    duration = sch.Schedule.makespan;
    fidelity = exp log_fidelity;
    log_fidelity;
    idle_total = Schedule.total_idle sch;
    idle_per_qubit = sch.Schedule.idle;
    gates = Array.length gates;
    two_qubit_gates =
      Array.fold_left
        (fun acc g -> match g with Gate.Two _ -> acc + 1 | Gate.Single _ -> acc)
        0 gates;
  }

let summarize hw circuit =
  summarize_gates hw ~num_qubits:(Circuit.num_qubits circuit)
    (Circuit.gates circuit)

let fidelity_change_pct ~baseline s =
  Qca_util.Numeric.percent_change ~baseline:baseline.fidelity s.fidelity

let idle_decrease_pct ~baseline s =
  if baseline.idle_total = 0 then 0.0
  else
    float_of_int (baseline.idle_total - s.idle_total)
    /. float_of_int baseline.idle_total *. 100.0

let pp fmt s =
  Format.fprintf fmt
    "duration %dns, fidelity %.5f, idle %dns, %d gates (%d two-qubit)"
    s.duration s.fidelity s.idle_total s.gates s.two_qubit_gates
