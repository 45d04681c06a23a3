open Qca_linalg

(* Packed storage: one int per gate and one flat float array holding
   every gate's parameters, in gate order. A gate's int is its kind
   (constructor index, 5 bits) and its wires (28 bits each); its
   parameters are the rotation angle (1 float), the U3 angles (3), or
   an opaque unitary's entries row-major as re, im pairs (Su2 8, U4
   32). An adapted circuit is mostly Su2 gates, which cost ~26 words
   boxed and 9 packed. [gates] decodes on demand. *)
type t = { num_qubits : int; codes : int array; params : float array }

let kind_bits = 5
let wire_bits = 28
let max_wires = 1 lsl wire_bits
let wire_mask = max_wires - 1

(* Kinds 0-13 are the [Gate.single] constructors, 14-25 the
   [Gate.two] ones, both in declaration order. *)
let single_kind : Gate.single -> int = function
  | H -> 0
  | X -> 1
  | Y -> 2
  | Z -> 3
  | S -> 4
  | Sdg -> 5
  | T -> 6
  | Tdg -> 7
  | Sx -> 8
  | Rx _ -> 9
  | Ry _ -> 10
  | Rz _ -> 11
  | U3 _ -> 12
  | Su2 _ -> 13

let two_kind : Gate.two -> int = function
  | Cx -> 14
  | Cz -> 15
  | Cz_db -> 16
  | Swap -> 17
  | Swap_d -> 18
  | Swap_c -> 19
  | Iswap -> 20
  | Crx _ -> 21
  | Cry _ -> 22
  | Crz _ -> 23
  | Cphase _ -> 24
  | U4 _ -> 25

let first_two = 14

(* Floats stored per gate of each kind. *)
let kind_params k =
  match k with
  | 9 | 10 | 11 | 21 | 22 | 23 | 24 -> 1
  | 12 -> 3
  | 13 -> 8
  | 25 -> 32
  | _ -> 0

let[@inline] code_kind code = code land ((1 lsl kind_bits) - 1)
let[@inline] code_a code = (code lsr kind_bits) land wire_mask
let[@inline] code_b code = (code lsr (kind_bits + wire_bits)) land wire_mask

let gate_params = function
  | Gate.Single (s, _) -> kind_params (single_kind s)
  | Gate.Two (t, _, _) -> kind_params (two_kind t)

let check_wire n q =
  if q < 0 || q >= n then
    invalid_arg (Printf.sprintf "Circuit: wire %d out of range [0,%d)" q n)

let write_matrix params off dim m =
  if Mat.rows m <> dim || Mat.cols m <> dim then
    invalid_arg (Printf.sprintf "Circuit: opaque gate needs a %dx%d matrix" dim dim);
  for i = 0 to dim - 1 do
    for j = 0 to dim - 1 do
      let z = Mat.get m i j in
      let k = off + (2 * ((i * dim) + j)) in
      params.(k) <- z.Cx.re;
      params.(k + 1) <- z.Cx.im
    done
  done

let read_matrix params off dim =
  Mat.init dim dim (fun i j ->
      let k = off + (2 * ((i * dim) + j)) in
      Cx.make params.(k) params.(k + 1))

(* Writes gate [g] of an [n]-qubit circuit as code [i], parameters from
   [off]; returns the next parameter offset. *)
let encode n codes params i off g =
  let kind, a, b =
    match g with
    | Gate.Single (s, q) ->
      check_wire n q;
      (single_kind s, q, 0)
    | Gate.Two (t, a, b) ->
      check_wire n a;
      check_wire n b;
      if a = b then invalid_arg "Circuit.add: two-qubit gate on a single wire";
      (two_kind t, a, b)
  in
  codes.(i) <- kind lor (a lsl kind_bits) lor (b lsl (kind_bits + wire_bits));
  (match g with
  | Gate.Single ((Rx x | Ry x | Rz x), _)
  | Gate.Two ((Crx x | Cry x | Crz x | Cphase x), _, _) ->
    params.(off) <- x
  | Gate.Single (U3 (x, y, z), _) ->
    params.(off) <- x;
    params.(off + 1) <- y;
    params.(off + 2) <- z
  | Gate.Single (Su2 m, _) -> write_matrix params off 2 m
  | Gate.Two (U4 m, _, _) -> write_matrix params off 4 m
  | Gate.Single _ | Gate.Two _ -> ());
  off + kind_params kind

let decode params off code : Gate.t =
  let a = code_a code in
  let p k = params.(off + k) in
  match code_kind code with
  | 0 -> Single (H, a)
  | 1 -> Single (X, a)
  | 2 -> Single (Y, a)
  | 3 -> Single (Z, a)
  | 4 -> Single (S, a)
  | 5 -> Single (Sdg, a)
  | 6 -> Single (T, a)
  | 7 -> Single (Tdg, a)
  | 8 -> Single (Sx, a)
  | 9 -> Single (Rx (p 0), a)
  | 10 -> Single (Ry (p 0), a)
  | 11 -> Single (Rz (p 0), a)
  | 12 -> Single (U3 (p 0, p 1, p 2), a)
  | 13 -> Single (Su2 (read_matrix params off 2), a)
  | k -> (
    let b = code_b code in
    match k with
    | 14 -> Two (Cx, a, b)
    | 15 -> Two (Cz, a, b)
    | 16 -> Two (Cz_db, a, b)
    | 17 -> Two (Swap, a, b)
    | 18 -> Two (Swap_d, a, b)
    | 19 -> Two (Swap_c, a, b)
    | 20 -> Two (Iswap, a, b)
    | 21 -> Two (Crx (p 0), a, b)
    | 22 -> Two (Cry (p 0), a, b)
    | 23 -> Two (Crz (p 0), a, b)
    | 24 -> Two (Cphase (p 0), a, b)
    | _ -> Two (U4 (read_matrix params off 4), a, b))

let create n =
  if n < 1 then invalid_arg "Circuit.create: need at least one qubit";
  if n > max_wires then invalid_arg "Circuit.create: too many qubits";
  { num_qubits = n; codes = [||]; params = [||] }

let num_qubits c = c.num_qubits
let length c = Array.length c.codes
let is_empty c = Array.length c.codes = 0

(* [f] over the gates in order, decoded one at a time. *)
let iter f c =
  let off = ref 0 in
  Array.iter
    (fun code ->
      f (decode c.params !off code);
      off := !off + kind_params (code_kind code))
    c.codes

let gates c =
  let off = ref 0 in
  Array.map
    (fun code ->
      let g = decode c.params !off code in
      off := !off + kind_params (code_kind code);
      g)
    c.codes

let add_list c gs =
  let n0 = Array.length c.codes and p0 = Array.length c.params in
  let len = List.length gs in
  let np = List.fold_left (fun acc g -> acc + gate_params g) 0 gs in
  let codes = Array.make (n0 + len) 0 and params = Array.make (p0 + np) 0.0 in
  Array.blit c.codes 0 codes 0 n0;
  Array.blit c.params 0 params 0 p0;
  let rec fill i off = function
    | [] -> ()
    | g :: rest -> fill (i + 1) (encode c.num_qubits codes params i off g) rest
  in
  fill n0 p0 gs;
  { c with codes; params }

let add c g = add_list c [ g ]
let of_gates n gs = add_list (create n) gs

let append c1 c2 =
  if c1.num_qubits <> c2.num_qubits then invalid_arg "Circuit.append: width mismatch";
  {
    c1 with
    codes = Array.append c1.codes c2.codes;
    params = Array.append c1.params c2.params;
  }

let single c g q = add c (Gate.Single (g, q))
let two c g a b = add c (Gate.Two (g, a, b))

let max_unitary_qubits = 10

(* Lift a gate matrix on [wires] (most significant first) to n qubits.
   Entry (i, j) of the result is m(sub i, sub j) when i and j agree on
   all other bits, where [sub] extracts the wire bits. *)
let embed m wires n =
  let k = List.length wires in
  if Mat.rows m <> 1 lsl k then invalid_arg "Circuit.embed: dimension mismatch";
  let wires = Array.of_list wires in
  let dim = 1 lsl n in
  let bit_of i q = (i lsr (n - 1 - q)) land 1 in
  let sub i =
    Array.fold_left (fun acc q -> (acc lsl 1) lor bit_of i q) 0 wires
  in
  let in_wires = Array.init n (fun q -> Array.exists (fun w -> w = q) wires) in
  let rest i =
    (* bits outside the wires, packed *)
    let acc = ref 0 in
    for q = 0 to n - 1 do
      if not in_wires.(q) then acc := (!acc lsl 1) lor bit_of i q
    done;
    !acc
  in
  Mat.init dim dim (fun i j ->
      if rest i = rest j then Mat.get m (sub i) (sub j) else Cx.zero)

let unitary_of_gates n gates =
  if n > max_unitary_qubits then
    invalid_arg "Circuit.unitary: too many qubits";
  let acc = ref (Mat.identity (1 lsl n)) in
  let apply g =
    let m, wires =
      match g with
      | Gate.Single (s, q) -> (Gate.single_matrix s, [ q ])
      | Gate.Two (t, a, b) -> (Gate.two_matrix t, [ a; b ])
    in
    acc := Mat.mul (embed m wires n) !acc
  in
  Array.iter apply gates;
  !acc

let unitary c = unitary_of_gates c.num_qubits (gates c)

let same_unitary ?(up_to_phase = true) u1 u2 =
  if up_to_phase then Mat.equal_up_to_global_phase ~tol:1e-7 u1 u2
  else Mat.approx_equal ~tol:1e-7 u1 u2

let equivalent ?up_to_phase c1 c2 =
  same_unitary ?up_to_phase (unitary c1) (unitary c2)

let count_two_qubit c =
  Array.fold_left
    (fun acc code -> if code_kind code >= first_two then acc + 1 else acc)
    0 c.codes

let count_single_qubit c = length c - count_two_qubit c

let merge_single_qubit_runs c =
  let n = c.num_qubits in
  (* pending.(q) holds the accumulated 2x2 unitary of the current run. *)
  let pending = Array.make n None in
  let out = ref [] in
  let flush q =
    match pending.(q) with
    | None -> ()
    | Some m ->
      pending.(q) <- None;
      if not (Qca_quantum.Su2.is_identity ~tol:1e-9 m) then
        out := Gate.Single (Su2 m, q) :: !out
  in
  let handle = function
    | Gate.Single (s, q) ->
      let m = Gate.single_matrix s in
      let acc = match pending.(q) with None -> m | Some prev -> Mat.mul m prev in
      pending.(q) <- Some acc
    | Gate.Two (_, a, b) as g ->
      flush a;
      flush b;
      out := g :: !out
  in
  iter handle c;
  for q = 0 to n - 1 do
    flush q
  done;
  of_gates n (List.rev !out)

let map_gates f c =
  let out = ref [] in
  iter (fun g -> out := List.rev_append (f g) !out) c;
  of_gates c.num_qubits (List.rev !out)

let inverse c =
  let out = ref [] in
  iter (fun g -> out := Gate.inverse g :: !out) c;
  of_gates c.num_qubits !out

let pp fmt c =
  Format.fprintf fmt "@[<v>circuit (%d qubits, %d gates):" c.num_qubits
    (length c);
  iter (fun g -> Format.fprintf fmt "@,  %a" Gate.pp g) c;
  Format.fprintf fmt "@]"

let to_string c = Format.asprintf "%a" pp c
