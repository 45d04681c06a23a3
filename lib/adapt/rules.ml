module Gate = Qca_circuit.Gate
module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
module Schedule = Qca_circuit.Schedule
module Synth = Qca_circuit.Synth
module Numeric = Qca_util.Numeric
module Solver = Qca_sat.Solver

type kind = Cond_rot | Swap_native_d | Swap_native_c | Kak_cz | Kak_cz_db

type t = {
  id : int;
  kind : kind;
  block_id : int;
  substituted : int list;
  replacement : Gate.t list;
  delta_duration : int;
  delta_log_fid : int;
}

let kind_name = function
  | Cond_rot -> "cond-rot"
  | Swap_native_d -> "swap_d"
  | Swap_native_c -> "swap_c"
  | Kak_cz -> "kak/cz"
  | Kak_cz_db -> "kak/cz_db"

let gates_duration hw gates =
  List.fold_left (fun acc g -> acc + Hardware.duration hw g) 0 gates

let gates_log_fid hw gates =
  List.fold_left
    (fun acc g -> acc + Numeric.log_fidelity_fixed (Hardware.fidelity hw g))
    0 gates

let reference_duration hw gate = gates_duration hw (Basis.translate_gate gate)
let reference_log_fid hw gate = gates_log_fid hw (Basis.translate_gate gate)

(* CNOT = (S ⊗ I) · CRX(π): apply the CROT first, then S on the control. *)
let cond_rot_replacement a b =
  [ Gate.Two (Gate.Crx Float.pi, a, b); Gate.Single (Gate.S, a) ]

let swap_pattern gates ids =
  (* three adjacent alternating cx on the same pair *)
  match ids with
  | [ i1; i2; i3 ] -> (
    match (gates.(i1), gates.(i2), gates.(i3)) with
    | Gate.Two (Gate.Cx, a1, b1), Gate.Two (Gate.Cx, a2, b2), Gate.Two (Gate.Cx, a3, b3)
      when a1 = a3 && b1 = b3 && a1 = b2 && b1 = a2 ->
      Some (a1, b1)
    | _, _, _ -> None)
  | _ -> None

let find_in_block hw gates (blk : Block.block) ~fresh =
  let subs = ref [] in
  let push kind substituted replacement =
    let delta_duration =
      gates_duration hw replacement
      - List.fold_left (fun acc i -> acc + reference_duration hw gates.(i)) 0 substituted
    in
    let delta_log_fid =
      gates_log_fid hw replacement
      - List.fold_left (fun acc i -> acc + reference_log_fid hw gates.(i)) 0 substituted
    in
    subs :=
      {
        id = fresh ();
        kind;
        block_id = blk.Block.id;
        substituted;
        replacement;
        delta_duration;
        delta_log_fid;
      }
      :: !subs
  in
  (* conditional-rotation matches: every cx *)
  List.iter
    (fun i ->
      match gates.(i) with
      | Gate.Two (Gate.Cx, a, b) -> push Cond_rot [ i ] (cond_rot_replacement a b)
      | Gate.Two
          ( ( Gate.Cz | Gate.Cz_db | Gate.Swap | Gate.Swap_d | Gate.Swap_c
            | Gate.Iswap | Gate.Crx _ | Gate.Cry _ | Gate.Crz _ | Gate.Cphase _
            | Gate.U4 _ ),
            _,
            _ )
      | Gate.Single _ ->
        ())
    blk.Block.gate_ids;
  (* native-swap matches: sliding window of three adjacent gates *)
  let ids = Array.of_list blk.Block.gate_ids in
  for w = 0 to Array.length ids - 3 do
    let window = [ ids.(w); ids.(w + 1); ids.(w + 2) ] in
    match swap_pattern gates window with
    | Some (a, b) ->
      push Swap_native_d window [ Gate.Two (Gate.Swap_d, a, b) ];
      push Swap_native_c window [ Gate.Two (Gate.Swap_c, a, b) ]
    | None -> ()
  done;
  !subs

let kak_substitutions hw part (blk : Block.block) ~hint ~fresh =
  match blk.Block.wires with
  | Block.Solo _ -> []
  | Block.Pair (a, b) ->
    let u = Block.block_unitary part blk in
    let gates = part.Block.gates in
    (* the reference sums and the KAK decomposition are shared between
       the cz and cz_db variants; only the final entangler lowering
       differs (see {!Synth.two_qubit_on_each}) *)
    let ref_dur =
      List.fold_left (fun acc i -> acc + reference_duration hw gates.(i)) 0
        blk.Block.gate_ids
    in
    let ref_fid =
      List.fold_left (fun acc i -> acc + reference_log_fid hw gates.(i)) 0
        blk.Block.gate_ids
    in
    let make kind replacement =
      {
        id = fresh ();
        kind;
        block_id = blk.Block.id;
        substituted = blk.Block.gate_ids;
        replacement;
        delta_duration = gates_duration hw replacement - ref_dur;
        delta_log_fid = gates_log_fid hw replacement - ref_fid;
      }
    in
    (match
       Synth.two_qubit_on_each ~hint [ Synth.Use_cz; Synth.Use_cz_db ] u ~a ~b
     with
    | [ r_cz; r_cz_db ] -> [ make Kak_cz r_cz; make Kak_cz_db r_cz_db ]
    | _ -> assert false)

exception Stopped of Solver.stop_reason

(* One poll per block: a block's matching (a KAK synthesis for a pair
   block) costs far more than a poll. *)
let find_all ?(budget = Solver.no_budget) hw part =
  let gates = part.Block.gates in
  let hint = Synth.hint () in
  let counter = ref 0 in
  let fresh () =
    let v = !counter in
    incr counter;
    v
  in
  Array.to_list part.Block.blocks
  |> List.concat_map (fun blk ->
         Option.iter (fun r -> raise (Stopped r)) (Solver.budget_status budget);
         let local = find_in_block hw gates blk ~fresh in
         let kak = kak_substitutions hw part blk ~hint ~fresh in
         List.rev local @ kak)

(* Substituted gates never leave their block, so only substitutions of
   one block can overlap. Pairs come out in list-position order (i, j),
   as an all-pairs scan would emit them. *)
let conflicts subs =
  let arr = Array.of_list subs in
  let n_blocks = Array.fold_left (fun m s -> max m (s.block_id + 1)) 0 arr in
  (* later.(i): the positions after i in i's block, ascending *)
  let later = Array.make (Array.length arr) [] in
  let seen = Array.make n_blocks [] in
  for i = Array.length arr - 1 downto 0 do
    let b = arr.(i).block_id in
    later.(i) <- seen.(b);
    seen.(b) <- i :: seen.(b)
  done;
  let overlap s1 s2 =
    List.exists (fun i -> List.mem i s2.substituted) s1.substituted
  in
  let pairs = ref [] in
  Array.iteri
    (fun i s1 ->
      List.iter
        (fun j -> if overlap s1 arr.(j) then pairs := (s1.id, arr.(j).id) :: !pairs)
        later.(i))
    arr;
  List.rev !pairs

let block_reference hw part bid =
  let blk = part.Block.blocks.(bid) in
  let c = Basis.direct (Block.block_circuit part blk) in
  let gates = Circuit.gates c in
  ( (Schedule.schedule_gates ~dur:(Hardware.duration hw)
       ~num_qubits:(Circuit.num_qubits c) gates)
      .Schedule.makespan,
    Array.fold_left
      (fun acc g -> acc + Numeric.log_fidelity_fixed (Hardware.fidelity hw g))
      0 gates )
