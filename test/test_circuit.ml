open Qca_linalg
open Qca_quantum
open Qca_circuit
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let bell =
  Circuit.of_gates 2 [ Gate.Single (Gate.H, 0); Gate.Two (Gate.Cx, 0, 1) ]

let random_su2 rng =
  Mat.mul3
    (Gates.rz (Rng.float rng 6.28))
    (Gates.ry (Rng.float rng 6.28))
    (Gates.rz (Rng.float rng 6.28))

let random_u4 rng =
  let l = Mat.kron (random_su2 rng) (random_su2 rng) in
  let r = Mat.kron (random_su2 rng) (random_su2 rng) in
  Mat.mul3 l
    (Gates.canonical (Rng.float rng Float.pi) (Rng.float rng Float.pi)
       (Rng.float rng Float.pi))
    r

(* {1 Construction and validation} *)

let test_construction () =
  let c = bell in
  checki "width" 2 (Circuit.num_qubits c);
  checki "length" 2 (Circuit.length c);
  checki "two-qubit count" 1 (Circuit.count_two_qubit c);
  checki "single count" 1 (Circuit.count_single_qubit c)

let test_wire_validation () =
  checkb "bad wire rejected" true
    (try
       ignore (Circuit.single (Circuit.create 2) Gate.H 2);
       false
     with Invalid_argument _ -> true);
  checkb "self two-qubit rejected" true
    (try
       ignore (Circuit.two (Circuit.create 2) Gate.Cx 1 1);
       false
     with Invalid_argument _ -> true)

let test_append () =
  let c = Circuit.append bell bell in
  checki "appended length" 4 (Circuit.length c)

(* {1 Unitary semantics} *)

let test_bell_unitary () =
  let u = Circuit.unitary bell in
  let s = 1.0 /. sqrt 2.0 in
  (* columns: |00⟩ → (|00⟩+|11⟩)/√2 *)
  checkb "bell col0" true
    (Cx.approx_equal (Mat.get u 0 0) (Cx.of_float s)
    && Cx.approx_equal (Mat.get u 3 0) (Cx.of_float s))

let test_embed_reversed_cx () =
  (* CX with control 1, target 0 on 2 qubits: |x y⟩ → |x⊕y, y⟩ *)
  let c = Circuit.of_gates 2 [ Gate.Two (Gate.Cx, 1, 0) ] in
  let u = Circuit.unitary c in
  let expect =
    Mat.of_real_lists
      [ [ 1.; 0.; 0.; 0. ]; [ 0.; 0.; 0.; 1. ]; [ 0.; 0.; 1.; 0. ]; [ 0.; 1.; 0.; 0. ] ]
  in
  checkb "reversed CX matrix" true (Mat.approx_equal u expect)

let test_embed_middle_qubit () =
  (* X on qubit 1 of 3 flips the middle bit *)
  let c = Circuit.of_gates 3 [ Gate.Single (Gate.X, 1) ] in
  let u = Circuit.unitary c in
  for i = 0 to 7 do
    let j = i lxor 0b010 in
    checkb "permutation" true (Cx.approx_equal (Mat.get u j i) Cx.one)
  done

let test_embed_nonadjacent () =
  (* CZ on (0,2) of 3 qubits: phase −1 iff bits 0 and 2 both set *)
  let c = Circuit.of_gates 3 [ Gate.Two (Gate.Cz, 0, 2) ] in
  let u = Circuit.unitary c in
  for i = 0 to 7 do
    let bit0 = (i lsr 2) land 1 and bit2 = i land 1 in
    let expect = if bit0 = 1 && bit2 = 1 then Cx.of_float (-1.0) else Cx.one in
    checkb "diag phase" true (Cx.approx_equal (Mat.get u i i) expect)
  done

let test_equivalent () =
  let c1 = Circuit.of_gates 1 [ Gate.Single (Gate.H, 0); Gate.Single (Gate.H, 0) ] in
  checkb "HH ~ empty" true (Circuit.equivalent c1 (Circuit.create 1));
  let c2 = Circuit.of_gates 1 [ Gate.Single (Gate.X, 0) ] in
  checkb "X not ~ empty" false (Circuit.equivalent c2 (Circuit.create 1))

(* {1 Single-qubit merging} *)

let test_merge_singles () =
  let c =
    Circuit.of_gates 2
      [
        Gate.Single (Gate.H, 0);
        Gate.Single (Gate.T, 0);
        Gate.Single (Gate.S, 1);
        Gate.Two (Gate.Cz, 0, 1);
        Gate.Single (Gate.H, 0);
        Gate.Single (Gate.H, 0);
      ]
  in
  let m = Circuit.merge_single_qubit_runs c in
  (* H·T merge to one Su2; S stays (as Su2); trailing H·H cancels *)
  checki "merged length" 3 (Circuit.length m);
  checkb "unitary preserved" true (Circuit.equivalent c m)

let prop_merge_preserves_unitary =
  QCheck.Test.make ~name:"merging preserves the unitary" ~count:100 QCheck.int
    (fun seed ->
      let rng = Rng.create (seed + 3) in
      let gates = ref [] in
      for _ = 1 to 20 do
        match Rng.int rng 4 with
        | 0 -> gates := Gate.Single (Gate.Rz (Rng.float rng 6.28), Rng.int rng 2) :: !gates
        | 1 -> gates := Gate.Single (Gate.H, Rng.int rng 2) :: !gates
        | 2 -> gates := Gate.Single (Gate.Sx, Rng.int rng 2) :: !gates
        | _ -> gates := Gate.Two (Gate.Cz, 0, 1) :: !gates
      done;
      let c = Circuit.of_gates 2 (List.rev !gates) in
      Circuit.equivalent c (Circuit.merge_single_qubit_runs c))

(* {1 Blocks} *)

let test_block_partition_simple () =
  let c =
    Circuit.of_gates 3
      [
        Gate.Two (Gate.Cx, 0, 1);
        Gate.Single (Gate.H, 1);
        Gate.Two (Gate.Cx, 1, 0);
        Gate.Two (Gate.Cx, 1, 2);
        Gate.Two (Gate.Cx, 2, 1);
      ]
  in
  let p = Block.partition c in
  checki "two blocks" 2 (Array.length p.Block.blocks);
  checki "block0 gates" 3 (List.length p.Block.blocks.(0).Block.gate_ids);
  checki "block1 gates" 2 (List.length p.Block.blocks.(1).Block.gate_ids);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "dependency" [ (0, 1) ] p.Block.deps

let test_block_leading_singles () =
  let c =
    Circuit.of_gates 2
      [ Gate.Single (Gate.H, 0); Gate.Single (Gate.T, 1); Gate.Two (Gate.Cx, 0, 1) ]
  in
  let p = Block.partition c in
  checki "one block" 1 (Array.length p.Block.blocks);
  checki "all gates absorbed" 3 (List.length p.Block.blocks.(0).Block.gate_ids)

let test_block_solo () =
  let c =
    Circuit.of_gates 3 [ Gate.Single (Gate.H, 2); Gate.Two (Gate.Cx, 0, 1) ]
  in
  let p = Block.partition c in
  checki "two blocks (one solo)" 2 (Array.length p.Block.blocks);
  let solo =
    Array.to_list p.Block.blocks
    |> List.filter (fun b -> match b.Block.wires with Block.Solo _ -> true | Block.Pair _ -> false)
  in
  checki "one solo block" 1 (List.length solo)

let test_block_circuit_unitary () =
  let c =
    Circuit.of_gates 3
      [ Gate.Two (Gate.Cx, 1, 2); Gate.Single (Gate.H, 2); Gate.Two (Gate.Cz, 1, 2) ]
  in
  let p = Block.partition c in
  let blk = p.Block.blocks.(0) in
  let u = Block.block_unitary p blk in
  let expect =
    Circuit.unitary
      (Circuit.of_gates 2
         [ Gate.Two (Gate.Cx, 0, 1); Gate.Single (Gate.H, 1); Gate.Two (Gate.Cz, 0, 1) ])
  in
  checkb "block unitary remapped" true (Mat.approx_equal u expect)

let test_topological_order () =
  let c =
    Circuit.of_gates 4
      [
        Gate.Two (Gate.Cx, 0, 1);
        Gate.Two (Gate.Cx, 2, 3);
        Gate.Two (Gate.Cx, 1, 2);
        Gate.Two (Gate.Cx, 0, 1);
      ]
  in
  let p = Block.partition c in
  let order = Block.topological_order p in
  checki "all blocks ordered" (Array.length p.Block.blocks) (List.length order);
  (* every edge respected *)
  let pos = Hashtbl.create 8 in
  List.iteri (fun i b -> Hashtbl.replace pos b i) order;
  List.iter
    (fun (a, b) ->
      checkb "edge respected" true (Hashtbl.find pos a < Hashtbl.find pos b))
    p.Block.deps

let prop_blocks_cover_all_gates =
  QCheck.Test.make ~name:"partition covers every gate exactly once" ~count:100
    QCheck.int (fun seed ->
      let rng = Rng.create (seed + 7) in
      let n = 2 + Rng.int rng 3 in
      let gates = ref [] in
      for _ = 1 to 30 do
        if Rng.bool rng then
          gates := Gate.Single (Gate.H, Rng.int rng n) :: !gates
        else begin
          let a = Rng.int rng (n - 1) in
          gates := Gate.Two (Gate.Cx, a, a + 1) :: !gates
        end
      done;
      let c = Circuit.of_gates n (List.rev !gates) in
      let p = Block.partition c in
      let count = Array.make (Circuit.length c) 0 in
      Array.iter
        (fun b -> List.iter (fun i -> count.(i) <- count.(i) + 1) b.Block.gate_ids)
        p.Block.blocks;
      Array.for_all (fun k -> k = 1) count)

(* {1 Scheduling} *)

let dur = function Gate.Single _ -> 30 | Gate.Two (_, _, _) -> 100

let test_schedule_sequential () =
  let c =
    Circuit.of_gates 2
      [ Gate.Single (Gate.H, 0); Gate.Two (Gate.Cx, 0, 1); Gate.Single (Gate.H, 1) ]
  in
  let s = Schedule.schedule ~dur c in
  checki "makespan" 160 s.Schedule.makespan;
  checki "q0 busy" 130 s.Schedule.busy.(0);
  checki "q1 busy" 130 s.Schedule.busy.(1);
  checki "total idle" 60 (Schedule.total_idle s)

let test_schedule_parallel () =
  let c =
    Circuit.of_gates 2 [ Gate.Single (Gate.H, 0); Gate.Single (Gate.H, 1) ]
  in
  let s = Schedule.schedule ~dur c in
  checki "parallel singles" 30 s.Schedule.makespan;
  checki "no idle" 0 (Schedule.total_idle s)

let test_schedule_gate_waits_for_both_wires () =
  let c =
    Circuit.of_gates 2 [ Gate.Single (Gate.H, 0); Gate.Two (Gate.Cx, 0, 1) ] in
  let s = Schedule.schedule ~dur c in
  checki "cx starts after H" 30 s.Schedule.starts.(1);
  checki "q1 idles while H runs" 30 s.Schedule.idle.(1)

let test_idle_windows () =
  let c =
    Circuit.of_gates 2 [ Gate.Single (Gate.H, 0); Gate.Two (Gate.Cx, 0, 1); Gate.Single (Gate.H, 0) ]
  in
  let w = Schedule.idle_windows ~dur c in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "q1 windows: leading and trailing" [ (0, 30); (130, 160) ] w.(1);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "q0 has no idle" [] w.(0)

(* {1 Synthesis} *)

let test_synth_named () =
  List.iter
    (fun (name, u, expect_count) ->
      let gates = Synth.two_qubit ~hint:(Synth.hint ()) Synth.Use_cz u in
      let count = List.length (List.filter Gate.is_two_qubit gates) in
      checki (name ^ " entangler count") expect_count count;
      let c = Circuit.of_gates 2 gates in
      checkb (name ^ " equivalent") true
        (Mat.equal_up_to_global_phase ~tol:1e-6 (Circuit.unitary c) u))
    [
      ("identity", Mat.identity 4, 0);
      ("local", Mat.kron Gates.h Gates.t, 0);
      ("cx", Gates.cx, 1);
      ("cz", Gates.cz, 1);
      ("iswap", Gates.iswap, 2);
      ("crx", Gates.crx 1.3, 2);
      ("swap", Gates.swap, 3);
      ("generic", Gates.canonical 0.3 0.2 0.1, 3);
    ]

let test_synth_uses_requested_entangler () =
  let gates = Synth.two_qubit ~hint:(Synth.hint ()) Synth.Use_cz_db Gates.swap in
  let ok =
    List.for_all
      (function
        | Gate.Two (Gate.Cz_db, _, _) | Gate.Single (Gate.Su2 _, _) -> true
        | Gate.Two (_, _, _) | Gate.Single (_, _) -> false)
      gates
  in
  checkb "only cz_db + su2" true ok

let prop_synth_random =
  QCheck.Test.make ~name:"synthesis of random SU(4) (3 entanglers, exact)"
    ~count:60 QCheck.int (fun seed ->
      let rng = Rng.create (seed + 11) in
      let u = random_u4 rng in
      let gates = Synth.two_qubit ~hint:(Synth.hint ()) Synth.Use_cz u in
      let count = List.length (List.filter Gate.is_two_qubit gates) in
      count <= 3
      && Mat.equal_up_to_global_phase ~tol:1e-6
           (Circuit.unitary (Circuit.of_gates 2 gates))
           u)

let test_synth_on_wires () =
  let u = Gates.canonical 0.4 0.3 0.2 in
  let gates = Synth.two_qubit_on ~hint:(Synth.hint ()) Synth.Use_cz u ~a:2 ~b:0 in
  let c = Circuit.of_gates 3 gates in
  let expect = Circuit.embed u [ 2; 0 ] 3 in
  checkb "synth on arbitrary wires" true
    (Mat.equal_up_to_global_phase ~tol:1e-6 (Circuit.unitary c) expect)

(* Packed storage round trip: every gate constructor, angles including
   -0.0, NaN, infinities and subnormals, random Su2/U4 matrices (entries
   need not be unitary for storage), wires up to 4095, through every
   builder. Gates compare by their marshalled bytes, so each float must
   come back bit for bit. *)
let test_packed_round_trip () =
  let rng = Rng.create 2026 in
  let n = 4096 in
  let odd = [| -0.0; 0.0; Float.nan; Float.infinity; Float.neg_infinity; 4.9e-324 |] in
  let angle () =
    if Rng.int rng 3 = 0 then odd.(Rng.int rng (Array.length odd))
    else Rng.float rng 20.0 -. 10.0
  in
  let matrix dim =
    Mat.init dim dim (fun _ _ -> Cx.make (angle ()) (angle ()))
  in
  let wire () = if Rng.bool rng then n - 1 - Rng.int rng 4 else Rng.int rng n in
  let singles () =
    Gate.
      [
        H; X; Y; Z; S; Sdg; T; Tdg; Sx; Rx (angle ()); Ry (angle ());
        Rz (angle ()); U3 (angle (), angle (), angle ()); Su2 (matrix 2);
        Su2 (random_su2 rng);
      ]
  in
  let twos () =
    Gate.
      [
        Cx; Cz; Cz_db; Swap; Swap_d; Swap_c; Iswap; Crx (angle ());
        Cry (angle ()); Crz (angle ()); Cphase (angle ()); U4 (matrix 4);
        U4 (random_u4 rng);
      ]
  in
  let gates =
    List.concat
      (List.init 8 (fun _ ->
           List.map (fun g -> Gate.Single (g, wire ())) (singles ())
           @ List.map
               (fun g ->
                 let a = wire () in
                 let b = (a + 1 + Rng.int rng (n - 1)) mod n in
                 Gate.Two (g, a, b))
               (twos ())))
  in
  let bytes g = Marshal.to_string (g : Gate.t) [ Marshal.No_sharing ] in
  let same what expected c =
    checki (what ^ ": length") (List.length expected) (Circuit.length c);
    checkb (what ^ ": gates") true
      (List.map bytes expected = List.map bytes (Array.to_list (Circuit.gates c)))
  in
  let k = List.length gates / 2 in
  let front = List.filteri (fun i _ -> i < k) gates in
  let back = List.filteri (fun i _ -> i >= k) gates in
  let c = Circuit.of_gates n gates in
  same "of_gates" gates c;
  same "add" gates (List.fold_left Circuit.add (Circuit.create n) gates);
  same "add_list" gates (Circuit.add_list (Circuit.of_gates n front) back);
  same "append" gates
    (Circuit.append (Circuit.of_gates n front) (Circuit.of_gates n back));
  same "map_gates" (List.concat_map (fun g -> [ g; g ]) gates)
    (Circuit.map_gates (fun g -> [ g; g ]) c);
  same "inverse" (List.rev_map Gate.inverse gates) (Circuit.inverse c);
  checki "two-qubit count"
    (List.length (List.filter Gate.is_two_qubit gates))
    (Circuit.count_two_qubit c);
  (* merging runs gives the same gates whichever builder made the
     circuit *)
  let width4 =
    List.init 200 (fun _ ->
        let q = Rng.int rng 4 in
        if Rng.int rng 4 = 0 then Gate.Two (Gate.Cz, q, (q + 1) mod 4)
        else Gate.Single (Gate.Su2 (random_su2 rng), q))
  in
  let merged = Circuit.merge_single_qubit_runs (Circuit.of_gates 4 width4) in
  same "merge" (Array.to_list (Circuit.gates merged))
    (Circuit.merge_single_qubit_runs
       (List.fold_left Circuit.add (Circuit.create 4) width4));
  Alcotest.check_raises "3x3 Su2 rejected"
    (Invalid_argument "Circuit: opaque gate needs a 2x2 matrix") (fun () ->
      ignore (Circuit.of_gates 1 [ Gate.Single (Gate.Su2 (Mat.identity 3), 0) ]))

let suite =
  [
    ("construction", `Quick, test_construction);
    ("wire validation", `Quick, test_wire_validation);
    ("append", `Quick, test_append);
    ("bell unitary", `Quick, test_bell_unitary);
    ("embed reversed cx", `Quick, test_embed_reversed_cx);
    ("embed middle qubit", `Quick, test_embed_middle_qubit);
    ("embed non-adjacent", `Quick, test_embed_nonadjacent);
    ("equivalence", `Quick, test_equivalent);
    ("merge singles", `Quick, test_merge_singles);
    QCheck_alcotest.to_alcotest prop_merge_preserves_unitary;
    ("block partition", `Quick, test_block_partition_simple);
    ("block leading singles", `Quick, test_block_leading_singles);
    ("block solo wires", `Quick, test_block_solo);
    ("block circuit unitary", `Quick, test_block_circuit_unitary);
    ("topological order", `Quick, test_topological_order);
    QCheck_alcotest.to_alcotest prop_blocks_cover_all_gates;
    ("schedule sequential", `Quick, test_schedule_sequential);
    ("schedule parallel", `Quick, test_schedule_parallel);
    ("schedule waits for wires", `Quick, test_schedule_gate_waits_for_both_wires);
    ("idle windows", `Quick, test_idle_windows);
    ("synth named gates", `Quick, test_synth_named);
    ("synth entangler choice", `Quick, test_synth_uses_requested_entangler);
    QCheck_alcotest.to_alcotest prop_synth_random;
    ("synth on wires", `Quick, test_synth_on_wires);
    ("packed round trip", `Quick, test_packed_round_trip);
  ]
