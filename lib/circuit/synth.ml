open Qca_linalg
open Qca_quantum

type entangler = Use_cx | Use_cz | Use_cz_db

let entangler_gate = function
  | Use_cx -> Gate.Cx
  | Use_cz -> Gate.Cz
  | Use_cz_db -> Gate.Cz_db

let half_pi = Float.pi /. 2.0
let quarter_pi = Float.pi /. 4.0

(* Core templates are built over CX on local wires 0 (msb) and 1; the
   entangler is substituted at the very end (CX = (I⊗H)·CZ·(I⊗H)). *)

let template_identity = []
let template_one_cx = [ Gate.Two (Gate.Cx, 0, 1) ]

(* C01·(Rx(a)⊗Rz(b))·C01 = exp(−i(a/2)·XX)·exp(−i(b/2)·ZZ), so with
   a = −2x, b = −2y this is N(x, 0, y) — canonically (x, y, 0). *)
let template_two_cx x y =
  [
    Gate.Two (Gate.Cx, 0, 1);
    Gate.Single (Gate.Rx (-2.0 *. x), 0);
    Gate.Single (Gate.Rz (-2.0 *. y), 1);
    Gate.Two (Gate.Cx, 0, 1);
  ]

(* Vatan-Williams style three-CX core. The exact assignment of the
   canonical coordinates (and signs) to the three rotation angles is a
   convention; [variant] enumerates the 48 possibilities and the working
   one is found once by canonical-coordinate comparison and cached. *)
let template_three_cx ~variant (x, y, z) =
  let v = [| x; y; z |] in
  let perm_id = variant / 8 and sign_bits = variant mod 8 in
  let perms = [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |] in
  let perm = perms.(perm_id) in
  let sgn k = if (sign_bits lsr k) land 1 = 0 then 1.0 else -1.0 in
  let t1 = (sgn 0 *. 2.0 *. v.(perm.(0))) -. half_pi in
  let t2 = half_pi -. (sgn 1 *. 2.0 *. v.(perm.(1))) in
  let t3 = (sgn 2 *. 2.0 *. v.(perm.(2))) -. half_pi in
  [
    Gate.Two (Gate.Cx, 1, 0);
    Gate.Single (Gate.Rz t1, 0);
    Gate.Single (Gate.Ry t2, 1);
    Gate.Two (Gate.Cx, 0, 1);
    Gate.Single (Gate.Ry t3, 1);
    Gate.Two (Gate.Cx, 1, 0);
  ]

(* Exact four-CX expansion of N(x,y,z), used only as a safety net:
   N = [C·(Rx(−2x)⊗Rz(−2z))·C] · (S†⊗S†)·[C·(Rx(−2y)⊗I)·C]·(S⊗S). *)
let template_four_cx (x, y, z) =
  [
    Gate.Single (Gate.S, 0);
    Gate.Single (Gate.S, 1);
    Gate.Two (Gate.Cx, 0, 1);
    Gate.Single (Gate.Rx (-2.0 *. y), 0);
    Gate.Two (Gate.Cx, 0, 1);
    Gate.Single (Gate.Sdg, 0);
    Gate.Single (Gate.Sdg, 1);
    Gate.Two (Gate.Cx, 0, 1);
    Gate.Single (Gate.Rx (-2.0 *. x), 0);
    Gate.Single (Gate.Rz (-2.0 *. z), 1);
    Gate.Two (Gate.Cx, 0, 1);
  ]

(* The last three-CX template variant that aligned, tried first on the
   next block. One circuit's synthesis owns it, so a circuit's result
   never depends on what was synthesised before it. *)
type hint = { mutable variant : int option }

let hint () = { variant = None }

type aligned = { t_gates : Gate.t list; t_kak : Kak.t; t_canon : Kak.canonical }

let close3 (a1, a2, a3) (b1, b2, b3) =
  let tol = 1e-7 in
  Float.abs (a1 -. b1) < tol && Float.abs (a2 -. b2) < tol && Float.abs (a3 -. b3) < tol

(* Check that the template's canonical coordinates match the target's. *)
let try_align t_gates vc =
  let tm = Circuit.unitary (Circuit.of_gates 2 t_gates) in
  let d = Kak.decompose tm in
  let c = Kak.canonicalize d.Kak.x d.Kak.y d.Kak.z in
  if close3 (c.Kak.cx, c.Kak.cy, c.Kak.cz) vc then
    Some { t_gates; t_kak = d; t_canon = c }
  else None

let find_three_cx_core hint vc =
  let try_variant variant = try_align (template_three_cx ~variant vc) vc in
  let from_hint =
    match hint.variant with None -> None | Some v -> try_variant v
  in
  match from_hint with
  | Some a -> Some a
  | None ->
    let rec search variant =
      if variant >= 48 then None
      else
        match try_variant variant with
        | Some a ->
          hint.variant <- Some variant;
          Some a
        | None -> search (variant + 1)
    in
    search 0

let select_core hint vc =
  let x, y, z = vc in
  let zero v = Float.abs v < 1e-9 in
  let candidates =
    if zero x && zero y && zero z then [ template_identity ]
    else if zero y && zero z && Float.abs (x -. quarter_pi) < 1e-9 then
      [ template_one_cx ]
    else if zero z then [ template_two_cx x y ]
    else []
  in
  let rec first = function
    | [] -> None
    | t :: rest -> ( match try_align t vc with Some a -> Some a | None -> first rest)
  in
  match first candidates with
  | Some a -> Some a
  | None ->
    if candidates <> [] then None
    else begin
      match find_three_cx_core hint vc with
      | Some a -> Some a
      | None -> try_align (template_four_cx vc) vc
    end

let single_layer m0 m1 =
  let keep wire m =
    if Su2.is_identity ~tol:1e-10 m then [] else [ Gate.Single (Gate.Su2 m, wire) ]
  in
  keep 0 m0 @ keep 1 m1

let lower_entangler ent gate_list =
  match ent with
  | Use_cx -> gate_list
  | Use_cz | Use_cz_db ->
    let g = entangler_gate ent in
    List.concat_map
      (function
        | Gate.Two (Gate.Cx, a, b) ->
          [ Gate.Single (Gate.H, b); Gate.Two (g, a, b); Gate.Single (Gate.H, b) ]
        | other -> [ other ])
      gate_list

(* The entangler-independent part of the synthesis: KAK-decompose,
   align a template core, factor the local brackets — everything up to
   (but not including) entangler lowering. Shared across entanglers by
   {!two_qubit_each}: the decomposition is the dominant cost and the
   result is the same CX-basis gate list for every target entangler. *)
let two_qubit_core hint u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then invalid_arg "Synth.two_qubit: not 4x4";
  let d = Kak.decompose u in
  let c = Kak.canonicalize d.Kak.x d.Kak.y d.Kak.z in
  let vc = (c.Kak.cx, c.Kak.cy, c.Kak.cz) in
  let aligned =
    match select_core hint vc with
    | Some a -> a
    | None -> invalid_arg "Synth.two_qubit: no template aligns (template bug)"
  in
  (* u  = e^{iΦ}·K1·cl·N(vc)·cr·K2 and
     T  = e^{iφ}·T1·ctl·N(vc)·ctr·T2, hence
     u  = e^{i(Φ−φ)}·[K1·cl·ctl†·T1†]·T·[T2†·ctr†·cr·K2]. *)
  let dt = aligned.t_kak and ct = aligned.t_canon in
  let k1 = Mat.kron d.Kak.k1l d.Kak.k1r in
  let k2 = Mat.kron d.Kak.k2l d.Kak.k2r in
  let t1 = Mat.kron dt.Kak.k1l dt.Kak.k1r in
  let t2 = Mat.kron dt.Kak.k2l dt.Kak.k2r in
  let left =
    Mat.mul (Mat.mul k1 c.Kak.cl) (Mat.mul (Mat.adjoint ct.Kak.cl) (Mat.adjoint t1))
  in
  let right =
    Mat.mul (Mat.mul (Mat.adjoint t2) (Mat.adjoint ct.Kak.cr)) (Mat.mul c.Kak.cr k2)
  in
  let fail_factor () = invalid_arg "Synth.two_qubit: local bracket did not factor" in
  let l0, l1 =
    match Kak.factor_tensor_product left with Some ab -> ab | None -> fail_factor ()
  in
  let r0, r1 =
    match Kak.factor_tensor_product right with Some ab -> ab | None -> fail_factor ()
  in
  single_layer r0 r1 @ aligned.t_gates @ single_layer l0 l1

(* Entangler lowering plus per-result verification. The check runs on
   the lowered circuit, so a wrong lowering is caught exactly as a
   wrong core would be. *)
let lower_and_verify ent u core_gates =
  let gates = lower_entangler ent core_gates in
  let circ = Circuit.merge_single_qubit_runs (Circuit.of_gates 2 gates) in
  let result = Circuit.unitary circ in
  if not (Mat.equal_up_to_global_phase ~tol:1e-6 result u) then
    invalid_arg "Synth.two_qubit: verification failed";
  Array.to_list (Circuit.gates circ)

let two_qubit ~hint ent u =
  lower_and_verify ent u (two_qubit_core hint u)

let two_qubit_each ~hint ents u =
  let core = two_qubit_core hint u in
  List.map (fun ent -> lower_and_verify ent u core) ents

let remap_local ~a ~b = function
  | Gate.Single (g, 0) -> Gate.Single (g, a)
  | Gate.Single (g, 1) -> Gate.Single (g, b)
  | Gate.Two (g, 0, 1) -> Gate.Two (g, a, b)
  | Gate.Two (g, 1, 0) -> Gate.Two (g, b, a)
  | g ->
    invalid_arg
      (Printf.sprintf "Synth.two_qubit_on: unexpected local gate %s"
         (Gate.to_string g))

let two_qubit_on ~hint ent u ~a ~b =
  List.map (remap_local ~a ~b) (two_qubit ~hint ent u)

let two_qubit_on_each ~hint ents u ~a ~b =
  List.map (List.map (remap_local ~a ~b)) (two_qubit_each ~hint ents u)

let entangler_count u = Kak.cnot_cost u

let quarter_pi_point = (quarter_pi, 0.0, 0.0)

(* Nearest canonical class reachable with the given entangler budget
   (Euclidean projection in Weyl-coordinate space, which is the standard
   heuristic for fixed-depth approximation). *)
let project_coords budget (x, y, z) =
  match budget with
  | b when b >= 3 -> (x, y, z)
  | 2 -> (x, y, 0.0)
  | 1 -> quarter_pi_point
  | _ -> (0.0, 0.0, 0.0)

let two_qubit_approx ~hint ent ~max_entanglers u =
  let d = Kak.decompose u in
  let c = Kak.canonicalize d.Kak.x d.Kak.y d.Kak.z in
  let budget = Stdlib.max 0 max_entanglers in
  let tx, ty, tz = project_coords budget (c.Kak.cx, c.Kak.cy, c.Kak.cz) in
  (* rebuild the target unitary with projected interaction coefficients
     and the original local factors, then synthesize it exactly *)
  let target =
    Mat.scale
      (Cx.exp_i (d.Kak.phase +. c.Kak.c_phase))
      (Mat.mul
         (Mat.mul (Mat.kron d.Kak.k1l d.Kak.k1r) c.Kak.cl)
         (Mat.mul
            (Qca_quantum.Gates.canonical tx ty tz)
            (Mat.mul c.Kak.cr (Mat.kron d.Kak.k2l d.Kak.k2r))))
  in
  let gates = two_qubit ~hint ent target in
  let used = List.length (List.filter Gate.is_two_qubit gates) in
  if used > budget && budget < 3 then
    invalid_arg "Synth.two_qubit_approx: projection exceeded the budget (bug)";
  (gates, Qca_quantum.Fidelity.average_gate_fidelity u target)
