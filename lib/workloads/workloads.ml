module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Synth = Qca_circuit.Synth
module Basis = Qca_adapt.Basis
module Rng = Qca_util.Rng

(* A random maximal-ish matching of adjacent pairs on the line. *)
let random_matching rng n =
  let pairs = ref [] in
  let q = ref 0 in
  while !q < n - 1 do
    if Rng.bool rng then begin
      pairs := (!q, !q + 1) :: !pairs;
      q := !q + 2
    end
    else incr q
  done;
  match !pairs with
  | [] -> [ (Rng.int rng (n - 1), Rng.int rng (n - 1) + 1) ] |> List.map (fun (a, _) -> (a, a + 1))
  | ps -> List.rev ps

let quantum_volume ~seed ~num_qubits ~layers =
  if num_qubits < 2 then invalid_arg "Workloads.quantum_volume: need ≥ 2 qubits";
  let rng = Rng.create seed in
  let hint = Synth.hint () in
  let gates = ref [] in
  for _ = 1 to layers do
    let matching = random_matching rng num_qubits in
    List.iter
      (fun (a, b) ->
        let u = Random_unitary.su4 rng in
        List.iter
          (fun g -> gates := g :: !gates)
          (Synth.two_qubit_on ~hint Synth.Use_cx u ~a ~b))
      matching
  done;
  Basis.to_ibm (Circuit.of_gates num_qubits (List.rev !gates))

let random_template ~seed ~num_qubits ~depth =
  if num_qubits < 2 then invalid_arg "Workloads.random_template: need ≥ 2 qubits";
  let rng = Rng.create seed in
  let gates = ref [] in
  let emit g = gates := g :: !gates in
  let random_single q =
    match Rng.int rng 4 with
    | 0 -> emit (Gate.Single (Gate.Rz (Rng.float rng (2.0 *. Float.pi)), q))
    | 1 -> emit (Gate.Single (Gate.Sx, q))
    | 2 -> emit (Gate.Single (Gate.X, q))
    | _ -> ()
  in
  let two_qubit_count = ref 0 in
  while !two_qubit_count < depth do
    let a = Rng.int rng (num_qubits - 1) in
    let a, b = if Rng.bool rng then (a, a + 1) else (a + 1, a) in
    random_single a;
    random_single b;
    if Rng.int rng 5 = 0 && depth - !two_qubit_count >= 3 then begin
      (* a swap pattern: three alternating CNOTs *)
      emit (Gate.Two (Gate.Cx, a, b));
      emit (Gate.Two (Gate.Cx, b, a));
      emit (Gate.Two (Gate.Cx, a, b));
      two_qubit_count := !two_qubit_count + 3
    end
    else begin
      emit (Gate.Two (Gate.Cx, a, b));
      incr two_qubit_count
    end
  done;
  Circuit.of_gates num_qubits (List.rev !gates)

let mirror ~seed ~num_qubits ~depth =
  let half = random_template ~seed ~num_qubits ~depth in
  Basis.to_ibm (Circuit.append half (Circuit.inverse half))

type case = { label : string; circuit : Circuit.t }

let qv_case seed n layers =
  {
    label = Printf.sprintf "qv n=%d layers=%d" n layers;
    circuit = quantum_volume ~seed ~num_qubits:n ~layers;
  }

let mirror_case seed n depth =
  {
    label = Printf.sprintf "mirror n=%d depth=%d" n depth;
    circuit = mirror ~seed ~num_qubits:n ~depth;
  }

let rand_case seed n depth =
  {
    label = Printf.sprintf "rand n=%d depth=%d" n depth;
    circuit = random_template ~seed ~num_qubits:n ~depth;
  }

let evaluation_suite () =
  [
    qv_case 101 2 2;
    qv_case 102 2 6;
    qv_case 103 3 3;
    qv_case 104 3 6;
    qv_case 105 4 3;
    qv_case 106 4 6;
    qv_case 107 4 10;
    rand_case 201 2 10;
    rand_case 202 2 40;
    rand_case 203 3 20;
    rand_case 204 3 80;
    rand_case 205 4 40;
    rand_case 206 4 160;
  ]

let simulation_suite () =
  [
    qv_case 101 2 2;
    qv_case 103 3 3;
    qv_case 108 3 8;
    qv_case 105 4 3;
    rand_case 201 2 10;
    rand_case 203 3 20;
    rand_case 302 3 60;
    rand_case 301 4 12;
    rand_case 303 4 40;
    mirror_case 401 3 20;
    mirror_case 402 4 16;
  ]
