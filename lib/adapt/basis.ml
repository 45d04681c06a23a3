module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Synth = Qca_circuit.Synth
open Qca_quantum

let cx_as_cz a b =
  [ Gate.Single (Gate.H, b); Gate.Two (Gate.Cz, a, b); Gate.Single (Gate.H, b) ]

let swap_as_cx a b =
  [ Gate.Two (Gate.Cx, a, b); Gate.Two (Gate.Cx, b, a); Gate.Two (Gate.Cx, a, b) ]

(* Each synthesised gate gets a fresh hint, so a gate's translation, and
   with it the reference cost {!Rules} and {!Lint} read from it, is a
   function of that gate alone. Only [U4] reaches the three-CX variant
   search: iswap and cphase align a one- or two-CX core. *)
let synth u ~a ~b = Synth.two_qubit_on ~hint:(Synth.hint ()) Synth.Use_cz u ~a ~b

let rec translate_gate gate =
  match gate with
  | Gate.Single _ -> [ gate ]
  | Gate.Two (g, a, b) -> (
    match g with
    | Gate.Cz | Gate.Cz_db | Gate.Crx _ | Gate.Cry _ | Gate.Crz _ | Gate.Swap_d
    | Gate.Swap_c ->
      [ gate ]
    | Gate.Cx -> cx_as_cz a b
    | Gate.Swap -> List.concat_map translate_gate (swap_as_cx a b)
    | Gate.Iswap -> synth Gates.iswap ~a ~b
    | Gate.Cphase theta -> synth (Gates.cphase theta) ~a ~b
    | Gate.U4 m -> synth m ~a ~b)

let direct circuit =
  Circuit.merge_single_qubit_runs (Circuit.map_gates translate_gate circuit)

let ibm_gate = function
  | Gate.Single (Gate.Rz _, _) | Gate.Single (Gate.Sx, _) | Gate.Single (Gate.X, _)
  | Gate.Two (Gate.Cx, _, _) ->
    true
  | Gate.Single
      ( ( Gate.H | Gate.Y | Gate.Z | Gate.S | Gate.Sdg | Gate.T | Gate.Tdg
        | Gate.Rx _ | Gate.Ry _ | Gate.U3 _ | Gate.Su2 _ ),
        _ )
  | Gate.Two
      ( ( Gate.Cz | Gate.Cz_db | Gate.Swap | Gate.Swap_d | Gate.Swap_c
        | Gate.Iswap | Gate.Crx _ | Gate.Cry _ | Gate.Crz _ | Gate.Cphase _
        | Gate.U4 _ ),
        _,
        _ ) ->
    false

(* ZSX Euler decomposition used on IBM backends:
   u3(θ,φ,λ) ≐ rz(φ+π)·sx·rz(θ+π)·sx·rz(λ) up to global phase. *)
let single_as_zsx q m =
  let theta, phi, lambda, _phase = Su2.to_u3 m in
  let rz angle acc = if Float.abs angle < 1e-12 then acc else Gate.Single (Gate.Rz angle, q) :: acc in
  let gates =
    rz lambda
      (Gate.Single (Gate.Sx, q)
      :: rz (theta +. Float.pi) (Gate.Single (Gate.Sx, q) :: rz (phi +. Float.pi) []))
  in
  (* the list above is built back-to-front relative to application
     order: [rz λ; sx; rz (θ+π); sx; rz (φ+π)] applies rz λ first *)
  gates

let lower_single q m = single_as_zsx q m

let to_ibm circuit =
  let hint = Synth.hint () in
  let rec lower gate =
    match gate with
    | Gate.Single (Gate.Rz _, _) | Gate.Single (Gate.Sx, _) | Gate.Single (Gate.X, _)
      ->
      [ gate ]
    | Gate.Single (g, q) -> lower_single q (Gate.single_matrix g)
    | Gate.Two (Gate.Cx, _, _) -> [ gate ]
    | Gate.Two (Gate.Cz, a, b) | Gate.Two (Gate.Cz_db, a, b) ->
      [ Gate.Single (Gate.H, b); Gate.Two (Gate.Cx, a, b); Gate.Single (Gate.H, b) ]
      |> List.concat_map lower
    | Gate.Two ((Gate.Swap | Gate.Swap_d | Gate.Swap_c), a, b) -> swap_as_cx a b
    | Gate.Two (g, a, b) ->
      Synth.two_qubit_on ~hint Synth.Use_cx (Gate.two_matrix g) ~a ~b
      |> List.concat_map lower
  in
  Circuit.map_gates lower circuit
