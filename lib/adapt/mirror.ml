module Circuit = Qca_circuit.Circuit
module Block = Qca_circuit.Block
module Gate = Qca_circuit.Gate
module Synth = Qca_circuit.Synth
open Qca_linalg
open Qca_quantum

type result = {
  circuit : Circuit.t;
  permutation : int array;
  mirrors_used : int;
}

let adapt _hw ent input =
  let part = Block.partition input in
  let n = Circuit.num_qubits input in
  let perm = Array.init n Fun.id in
  let gates = part.Block.gates in
  let hint = Synth.hint () in
  let out = ref [] in
  let mirrors = ref 0 in
  let emit g = out := g :: !out in
  List.iter
    (fun bid ->
      let blk = part.Block.blocks.(bid) in
      match blk.Block.wires with
      | Block.Solo q ->
        List.iter
          (fun i ->
            match gates.(i) with
            | Gate.Single (g, _) -> emit (Gate.Single (g, perm.(q)))
            | Gate.Two (_, _, _) -> assert false)
          blk.Block.gate_ids
      | Block.Pair (a, b) ->
        let u = Block.block_unitary part blk in
        let mirrored = Mat.mul Gates.swap u in
        let cost_plain = Kak.cnot_cost u in
        let cost_mirror = Kak.cnot_cost mirrored in
        let pa = perm.(a) and pb = perm.(b) in
        if cost_mirror < cost_plain then begin
          incr mirrors;
          List.iter emit (Synth.two_qubit_on ~hint ent mirrored ~a:pa ~b:pb);
          (* the block now ends with a virtual swap: logical a sits on
             pb and logical b on pa from here on *)
          perm.(a) <- pb;
          perm.(b) <- pa
        end
        else List.iter emit (Synth.two_qubit_on ~hint ent u ~a:pa ~b:pb))
    (Block.topological_order part);
  let circuit = Circuit.merge_single_qubit_runs (Circuit.of_gates n (List.rev !out)) in
  { circuit; permutation = perm; mirrors_used = !mirrors }

let undo_permutation r =
  let n = Circuit.num_qubits r.circuit in
  let pos = Array.copy r.permutation in
  (* pos.(l) = wire currently holding logical qubit l *)
  let swaps = ref [] in
  for l = 0 to n - 1 do
    if pos.(l) <> l then begin
      (* find the logical qubit currently parked on wire l *)
      let l2 = ref l in
      for k = 0 to n - 1 do
        if pos.(k) = l then l2 := k
      done;
      swaps := Gate.Two (Gate.Swap_c, pos.(l), l) :: !swaps;
      let tmp = pos.(l) in
      pos.(l) <- pos.(!l2);
      pos.(!l2) <- tmp
    end
  done;
  Circuit.add_list r.circuit (List.rev !swaps)
