type wires = Pair of int * int | Solo of int

type block = { id : int; wires : wires; gate_ids : int list }

type t = {
  circuit : Circuit.t;
  gates : Gate.t array;
  blocks : block array;
  deps : (int * int) list;
  gate_block : int array;
  preds : int array array;
  succs : int array array;
  order : int array;
}

type builder = { mutable wires_b : wires; mutable rev_gids : int list }

let partition circuit =
  let gates = Circuit.gates circuit in
  let n = Circuit.num_qubits circuit in
  let builders : builder Qca_util.Vec.t =
    Qca_util.Vec.create ~dummy:{ wires_b = Solo (-1); rev_gids = [] } ()
  in
  let current = Array.make n (-1) in
  let pending = Array.make n [] in
  (* per-qubit reversed list of blocks that touched the qubit *)
  let qubit_chain = Array.make n [] in
  let touch q bid =
    match qubit_chain.(q) with
    | b :: _ when b = bid -> ()
    | chain -> qubit_chain.(q) <- bid :: chain
  in
  let new_block wires gids =
    let bid = Qca_util.Vec.length builders in
    Qca_util.Vec.push builders { wires_b = wires; rev_gids = List.rev gids };
    bid
  in
  Array.iteri
    (fun i g ->
      match g with
      | Gate.Single (_, q) ->
        if current.(q) >= 0 then begin
          let b = Qca_util.Vec.get builders current.(q) in
          b.rev_gids <- i :: b.rev_gids
        end
        else pending.(q) <- i :: pending.(q)
      | Gate.Two (_, a, b) ->
        let same_block =
          current.(a) >= 0
          && current.(a) = current.(b)
          &&
          match (Qca_util.Vec.get builders current.(a)).wires_b with
          | Pair (x, y) -> (x = a && y = b) || (x = b && y = a)
          | Solo _ -> false
        in
        if same_block then begin
          let blk = Qca_util.Vec.get builders current.(a) in
          blk.rev_gids <- i :: blk.rev_gids
        end
        else begin
          let lead =
            List.sort compare (List.rev_append pending.(a) pending.(b))
          in
          pending.(a) <- [];
          pending.(b) <- [];
          let bid = new_block (Pair (a, b)) (lead @ [ i ]) in
          current.(a) <- bid;
          current.(b) <- bid;
          touch a bid;
          touch b bid
        end)
    gates;
  (* Wires that never met a two-qubit gate become solo blocks. *)
  for q = 0 to n - 1 do
    match pending.(q) with
    | [] -> ()
    | gids ->
      let bid = new_block (Solo q) (List.rev gids) in
      touch q bid
  done;
  let blocks =
    Array.init (Qca_util.Vec.length builders) (fun id ->
        let b = Qca_util.Vec.get builders id in
        { id; wires = b.wires_b; gate_ids = List.rev b.rev_gids })
  in
  let gate_block = Array.make (Array.length gates) (-1) in
  Array.iter (fun b -> List.iter (fun i -> gate_block.(i) <- b.id) b.gate_ids) blocks;
  let deps =
    let edges = Hashtbl.create 16 in
    Array.iter
      (fun chain ->
        let ordered = List.rev chain in
        let rec walk = function
          | b1 :: (b2 :: _ as rest) ->
            Hashtbl.replace edges (b1, b2) ();
            walk rest
          | [] | [ _ ] -> ()
        in
        walk ordered)
      qubit_chain;
    Hashtbl.fold (fun e () acc -> e :: acc) edges []
  in
  let deps = List.sort compare deps in
  let n_blocks = Array.length blocks in
  (* [deps] is sorted, so both adjacencies come out ascending. *)
  let preds = Array.make n_blocks [] and succs = Array.make n_blocks [] in
  List.iter
    (fun (a, b) ->
      preds.(b) <- a :: preds.(b);
      succs.(a) <- b :: succs.(a))
    (List.rev deps);
  let preds = Array.map Array.of_list preds in
  let succs = Array.map Array.of_list succs in
  (* Kahn's algorithm: FIFO queue seeded in id order, successors visited
     ascending. Gate emission follows this order, so it is fixed. *)
  let order = Array.make n_blocks 0 in
  let indeg = Array.map Array.length preds in
  let head = ref 0 and tail = ref 0 in
  let push b =
    order.(!tail) <- b;
    incr tail
  in
  Array.iteri (fun b d -> if d = 0 then push b) indeg;
  while !head < !tail do
    let b = order.(!head) in
    incr head;
    Array.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then push s)
      succs.(b)
  done;
  (* edges follow per-qubit chains in creation order: never a cycle *)
  assert (!tail = n_blocks);
  { circuit; gates; blocks; deps; gate_block; preds; succs; order }

let local_wire wires q =
  match wires with
  | Solo w ->
    assert (w = q);
    0
  | Pair (a, b) ->
    if q = a then 0
    else begin
      assert (q = b);
      1
    end

let block_circuit t blk =
  let gates = t.gates in
  let width = match blk.wires with Solo _ -> 1 | Pair _ -> 2 in
  let remap = function
    | Gate.Single (g, q) -> Gate.Single (g, local_wire blk.wires q)
    | Gate.Two (g, a, b) ->
      Gate.Two (g, local_wire blk.wires a, local_wire blk.wires b)
  in
  Circuit.of_gates width (List.map (fun i -> remap gates.(i)) blk.gate_ids)

let block_unitary t blk = Circuit.unitary (block_circuit t blk)

let predecessors t bid = Array.to_list t.preds.(bid)
let successors t bid = Array.to_list t.succs.(bid)
let topological_order t = Array.to_list t.order

let pp fmt t =
  Format.fprintf fmt "@[<v>%d blocks:" (Array.length t.blocks);
  Array.iter
    (fun b ->
      let wires =
        match b.wires with
        | Pair (a, b) -> Printf.sprintf "(q%d,q%d)" a b
        | Solo q -> Printf.sprintf "(q%d)" q
      in
      Format.fprintf fmt "@,  block %d %s: %d gates" b.id wires
        (List.length b.gate_ids))
    t.blocks;
  Format.fprintf fmt "@,deps: %s"
    (String.concat ", "
       (List.map (fun (a, b) -> Printf.sprintf "%d->%d" a b) t.deps));
  Format.fprintf fmt "@]"
