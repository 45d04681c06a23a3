(* Operator fidelity measures and approximate synthesis. *)

open Qca_linalg
open Qca_quantum
module Circuit = Qca_circuit.Circuit
module Gate = Qca_circuit.Gate
module Synth = Qca_circuit.Synth
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checkf tol = Alcotest.check (Alcotest.float tol)

let random_su2 rng =
  Mat.mul3
    (Gates.rz (Rng.float rng 6.28))
    (Gates.ry (Rng.float rng 6.28))
    (Gates.rz (Rng.float rng 6.28))

let random_u4 rng =
  Mat.mul3
    (Mat.kron (random_su2 rng) (random_su2 rng))
    (Gates.canonical (Rng.float rng 0.7) (Rng.float rng 0.5) (Rng.float rng 0.3))
    (Mat.kron (random_su2 rng) (random_su2 rng))

let test_fidelity_identity () =
  checkf 1e-12 "F_pro(u,u) = 1" 1.0 (Fidelity.process_fidelity Gates.cx Gates.cx);
  checkf 1e-12 "F_avg(u,u) = 1" 1.0 (Fidelity.average_gate_fidelity Gates.cz Gates.cz);
  checkf 1e-12 "distance 0" 0.0 (Fidelity.trace_distance_bound Gates.cz Gates.cz)

let test_fidelity_phase_invariance () =
  let u = Gates.canonical 0.3 0.2 0.1 in
  let v = Mat.scale (Cx.exp_i 1.234) u in
  checkf 1e-12 "phase invariant" 1.0 (Fidelity.process_fidelity u v);
  checkf 1e-12 "phase invariant distance" 0.0 (Fidelity.trace_distance_bound u v)

let test_fidelity_orthogonal () =
  (* tr(I†·XX-canonical at π/4...) pick u, v with zero overlap: I vs X⊗X *)
  checkf 1e-12 "disjoint" 0.0
    (Fidelity.process_fidelity (Mat.identity 4) (Mat.kron Gates.x Gates.x))

let test_fidelity_symmetry () =
  let rng = Rng.create 3 in
  let u = random_u4 rng and v = random_u4 rng in
  checkf 1e-9 "symmetric" (Fidelity.process_fidelity u v) (Fidelity.process_fidelity v u)

let test_avg_vs_process_relation () =
  let rng = Rng.create 4 in
  let u = random_u4 rng and v = random_u4 rng in
  let d = 4.0 in
  checkf 1e-9 "F_avg = (d F_pro + 1)/(d+1)"
    ((d *. Fidelity.process_fidelity u v +. 1.0) /. (d +. 1.0))
    (Fidelity.average_gate_fidelity u v)

(* {1 Approximate synthesis} *)

let count2 gates = List.length (List.filter Gate.is_two_qubit gates)
let approx_cz ~max_entanglers u =
  Synth.two_qubit_approx ~hint:(Synth.hint ()) Synth.Use_cz ~max_entanglers u

let test_approx_exact_when_budget_suffices () =
  let rng = Rng.create 7 in
  let u = random_u4 rng in
  let gates, f = approx_cz ~max_entanglers:3 u in
  checkf 1e-9 "budget 3 is exact" 1.0 f;
  checkb "equivalent" true
    (Mat.equal_up_to_global_phase ~tol:1e-6
       (Circuit.unitary (Circuit.of_gates 2 gates))
       u)

let test_approx_budgets_monotone () =
  let rng = Rng.create 8 in
  for _ = 1 to 5 do
    let u = random_u4 rng in
    let fid k = snd (approx_cz ~max_entanglers:k u) in
    let f0 = fid 0 and f1 = fid 1 and f2 = fid 2 and f3 = fid 3 in
    checkb "budget 3 exact" true (f3 > 1.0 -. 1e-9);
    checkb "budget 2 ≥ budget 0" true (f2 >= f0 -. 1e-9);
    checkb "all within [0,1]" true
      (List.for_all (fun f -> f >= 0.0 && f <= 1.0 +. 1e-9) [ f0; f1; f2; f3 ])
  done

let test_approx_respects_budget () =
  let rng = Rng.create 9 in
  for _ = 1 to 5 do
    let u = random_u4 rng in
    List.iter
      (fun k ->
        let gates, _ = approx_cz ~max_entanglers:k u in
        checkb "within budget" true (count2 gates <= k))
      [ 0; 1; 2 ]
  done;
  (* a CNOT-class gate is reproduced exactly with budget 1 *)
  let gates, f = approx_cz ~max_entanglers:1 Gates.cx in
  checkf 1e-9 "cx exact at budget 1" 1.0 f;
  checkb "one entangler" true (count2 gates = 1)

let test_approx_two_cz_on_z_light_gate () =
  (* a gate with small cz coordinate approximates well with 2 CZ *)
  let u = Gates.canonical 0.5 0.3 0.05 in
  let _, f2 = approx_cz ~max_entanglers:2 u in
  checkb "good 2-CZ approximation" true (f2 > 0.99)

let suite =
  [
    ("fidelity identity", `Quick, test_fidelity_identity);
    ("fidelity phase invariance", `Quick, test_fidelity_phase_invariance);
    ("fidelity orthogonal", `Quick, test_fidelity_orthogonal);
    ("fidelity symmetry", `Quick, test_fidelity_symmetry);
    ("avg vs process relation", `Quick, test_avg_vs_process_relation);
    ("approx exact at full budget", `Quick, test_approx_exact_when_budget_suffices);
    ("approx monotone in budget", `Quick, test_approx_budgets_monotone);
    ("approx respects budget", `Quick, test_approx_respects_budget);
    ("approx 2-CZ quality", `Quick, test_approx_two_cz_on_z_light_gate);
  ]
