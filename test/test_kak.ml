(* Pins of the KAK decomposition: bit patterns of every output field,
   digests of the substitutions matching builds on, and the allocation
   of one decomposition.

   The digests were computed with the generic-[Mat] implementation that
   the fixed-size kernels of [Kak] replaced. The kernels repeat its
   floating-point operations in the same order, so every field must
   match bit for bit: a digest that moves means a kernel computes some
   value differently, however slightly. *)

open Qca_linalg
open Qca_quantum
open Qca_adapt
module Rng = Qca_util.Rng
module Gate = Qca_circuit.Gate

let add_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

let add_mat b m =
  Buffer.add_char b (Char.chr (Mat.rows m));
  for i = 0 to Mat.rows m - 1 do
    for j = 0 to Mat.cols m - 1 do
      let z = Mat.get m i j in
      add_float b z.Cx.re;
      add_float b z.Cx.im
    done
  done

let add_factor b = function
  | None -> Buffer.add_char b 'N'
  | Some (l, r) ->
    Buffer.add_char b 'S';
    add_mat b l;
    add_mat b r

(* Every output of [Kak] on [u]: its decomposition, the rebuilt unitary,
   the Weyl canonicalization of the raw coordinates, the Makhlin
   invariants, and the tensor factorizations of [u] (mostly [None]) and
   of the decomposition's left local factor. *)
let record b u =
  let d = Kak.decompose u in
  List.iter (add_float b) [ d.Kak.phase; d.Kak.x; d.Kak.y; d.Kak.z ];
  List.iter (add_mat b) [ d.Kak.k1l; d.Kak.k1r; d.Kak.k2l; d.Kak.k2r ];
  add_mat b (Kak.rebuild d);
  let c = Kak.canonicalize d.Kak.x d.Kak.y d.Kak.z in
  List.iter (add_float b) [ c.Kak.cx; c.Kak.cy; c.Kak.cz; c.Kak.c_phase ];
  add_mat b c.Kak.cl;
  add_mat b c.Kak.cr;
  let g1, g2 = Kak.makhlin_invariants u in
  List.iter (add_float b) [ g1.Cx.re; g1.Cx.im; g2 ];
  add_factor b (Kak.factor_tensor_product u);
  add_factor b (Kak.factor_tensor_product (Mat.kron d.Kak.k1l d.Kak.k1r))

let digest f =
  let b = Buffer.create 4096 in
  f b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let sqrt_swap =
  let p = Cx.make 0.5 0.5 and m = Cx.make 0.5 (-0.5) in
  Mat.of_lists
    [
      [ Cx.one; Cx.zero; Cx.zero; Cx.zero ];
      [ Cx.zero; p; m; Cx.zero ];
      [ Cx.zero; m; p; Cx.zero ];
      [ Cx.zero; Cx.zero; Cx.zero; Cx.one ];
    ]

let quarter_pi = Float.pi /. 4.0

let named =
  [
    ("I", Mat.identity 4);
    ("CX", Gates.cx);
    ("CZ", Gates.cz);
    ("SWAP", Gates.swap);
    ("iSWAP", Gates.iswap);
    ("sqrt SWAP", sqrt_swap);
    ("canonical pi/4 z<0", Gates.canonical quarter_pi 0.2 (-0.1));
    ("canonical pi/4 pi/4 -pi/4", Gates.canonical quarter_pi quarter_pi (-.quarter_pi));
    ("canonical -pi/4 0.3 -0.2", Gates.canonical (-.quarter_pi) 0.3 (-0.2));
    ("canonical 1.9 -0.7 2.6", Gates.canonical 1.9 (-0.7) 2.6);
    ("H x T", Mat.kron Gates.h Gates.t);
    ("phased CRX", Mat.scale (Cx.exp_i 0.4) (Gates.crx 1.1));
  ]

let named_golden =
  [
    ("I", "b5802a840e41c7368716f13ab43d7683");
    ("CX", "f383f8814e92841d65f9a9dc466e4921");
    ("CZ", "689a7b7d20cf6e64ceb06077a1eecc32");
    ("SWAP", "0e1a5221c971cd4a11043b0b08e91c37");
    ("iSWAP", "1c54d7b182b62db5c66340c6a27baba7");
    ("sqrt SWAP", "1a977449482d8fcb165675132a718b1c");
    ("canonical pi/4 z<0", "f2bc09c545593d397197d3cb8e4b55ae");
    ("canonical pi/4 pi/4 -pi/4", "828f08dfaa447816827be2f07532ca11");
    ("canonical -pi/4 0.3 -0.2", "2c45a3f542ba5571c490f1f733d0fb91");
    ("canonical 1.9 -0.7 2.6", "65d2e2e9fed6590e0616165a3900d6d4");
    ("H x T", "bb7eb2105c9787193c5b461e23222966");
    ("phased CRX", "67a20f9ebbbdb7747a1591d015f91fa3");
  ]

(* 2,000 Haar SU(4) draws in 20 chunks of 100, one digest a chunk. *)
let haar_chunks = 20
let haar_chunk = 100

let haar_golden =
  [|
    "25608107146b6f657f94662dbff7af10";
    "ebb9365af9cf17f1fb8113ce1cd510ed";
    "e01cfc2b09c72f347bb2ee25b0da9664";
    "bb009a499f1862e8c5670149db3395d7";
    "5952ddbcde318f00b5d2b9e390381b32";
    "8c38076522181e37896320a24c367334";
    "62eaf40893e8117abacfede96b3b9547";
    "3916f16ee77ee95aec076d3d0e0f3c5e";
    "60fc6de4966186664184858d42be2a83";
    "d8bba1932768fff3a345b0eb8a333691";
    "0e4793e79400fff134d422c1c71a20b4";
    "2536d9049b440ed39783891908f29be5";
    "e6fff59f7675bc4122250c04522127e0";
    "985261f0ef7a63e182e60d6490289c6f";
    "889b601387f62d868c77c0782203004e";
    "a82bda3251f68ec444617c97c32b05d2";
    "8cef48d98f44a06ac73f61983e478f54";
    "eb11153454bf529be311638dffa57c0e";
    "057fe3590a99f0f353055918c152b677";
    "04a9b5614072426a7ec2894438849d60";
  |]

(* Raw coordinates over several periods, so [canonicalize] runs every
   shift, swap and sign rule, each with its phase and corrections. *)
let coords_golden = "092db29f34a271d3bee3af6e4428cf91"

let test_named () =
  List.iter
    (fun (name, u) ->
      Alcotest.check Alcotest.string name (List.assoc name named_golden)
        (digest (fun b -> record b u)))
    named

let test_haar () =
  let rng = Rng.create 2301 in
  for k = 0 to haar_chunks - 1 do
    let got =
      digest (fun b ->
          for _ = 1 to haar_chunk do
            record b (Qca_workloads.Random_unitary.su4 rng)
          done)
    in
    Alcotest.check Alcotest.string (Printf.sprintf "Haar chunk %d" k)
      haar_golden.(k) got
  done

let test_coords () =
  let rng = Rng.create 11725 in
  let got =
    digest (fun b ->
        for _ = 1 to 1000 do
          let v () = Rng.float rng (4.0 *. Float.pi) -. (2.0 *. Float.pi) in
          let x = v () and y = v () and z = v () in
          let c = Kak.canonicalize x y z in
          List.iter (add_float b) [ c.Kak.cx; c.Kak.cy; c.Kak.cz; c.Kak.c_phase ];
          add_mat b c.Kak.cl;
          add_mat b c.Kak.cr
        done)
  in
  Alcotest.check Alcotest.string "canonicalize" coords_golden got

(* {1 Matching} *)

let add_gate b g =
  let f = add_float b and m = add_mat b in
  Buffer.add_string b (Gate.to_string g);
  match g with
  | Gate.Single (s, _) -> (
    match s with
    | Gate.Rx a | Gate.Ry a | Gate.Rz a -> f a
    | Gate.U3 (a, p, l) -> f a; f p; f l
    | Gate.Su2 u -> m u
    | _ -> ())
  | Gate.Two (t, _, _) -> (
    match t with
    | Gate.Crx a | Gate.Cry a | Gate.Crz a | Gate.Cphase a -> f a
    | Gate.U4 u -> m u
    | _ -> ())

let add_subs b subs =
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf "%d %s %d [%s] %d %d:" s.Rules.id (Rules.kind_name s.Rules.kind)
           s.Rules.block_id
           (String.concat "," (List.map string_of_int s.Rules.substituted))
           s.Rules.delta_duration s.Rules.delta_log_fid);
      List.iter (add_gate b) s.Rules.replacement)
    subs

let find_all_digest hw circuit =
  digest (fun b -> add_subs b (Rules.find_all hw (Qca_circuit.Block.partition circuit)))

let example name =
  let path =
    List.find Sys.file_exists
      [
        Filename.concat (Filename.dirname Sys.executable_name) ("../examples/circuits/" ^ name);
        "examples/circuits/" ^ name;
      ]
  in
  Qca_circuit.Parse.parse_exn (In_channel.with_open_text path In_channel.input_all)

let hws = [ ("d0", Hardware.d0); ("d1", Hardware.d1) ]

let examples_golden =
  [
    ("paper_example.txt d0", "2dc8ffe9f8da0ce9be780b1234305b4e");
    ("paper_example.txt d1", "185e127d23aa16b81ef8d2afcbc9deaf");
    ("deep_template.txt d0", "c6360f47f785f31d2091822c0c618c42");
    ("deep_template.txt d1", "488f7c02752a273f4e478cd8203941a7");
  ]

let test_find_all_examples () =
  List.iter
    (fun file ->
      let c = example file in
      List.iter
        (fun (hn, hw) ->
          let key = file ^ " " ^ hn in
          Alcotest.check Alcotest.string key (List.assoc key examples_golden)
            (find_all_digest hw c))
        hws)
    [ "paper_example.txt"; "deep_template.txt" ]

(* The shapes qca-serve's benchmark requests cycle through (QV and
   random templates on 2-4 qubits) and its depth-100 random templates,
   four seeds each on both hardware models. *)
let shapes =
  let module W = Qca_workloads.Workloads in
  [
    ("qv 3x3", fun seed -> W.quantum_volume ~seed ~num_qubits:3 ~layers:3);
    ("rt 3/20", fun seed -> W.random_template ~seed ~num_qubits:3 ~depth:20);
    ("qv 4x3", fun seed -> W.quantum_volume ~seed ~num_qubits:4 ~layers:3);
    ("rt 4/20", fun seed -> W.random_template ~seed ~num_qubits:4 ~depth:20);
    ("qv 2x6", fun seed -> W.quantum_volume ~seed ~num_qubits:2 ~layers:6);
    ("rt 3/40", fun seed -> W.random_template ~seed ~num_qubits:3 ~depth:40);
    ("rt 4/100", fun seed -> W.random_template ~seed ~num_qubits:4 ~depth:100);
  ]

let shapes_golden =
  [
    ("qv 3x3", "5372c2881802e763d95e5bf1bbd7be98");
    ("rt 3/20", "de5e88c7854fbb36ba0ab5face4a6ba9");
    ("qv 4x3", "368273702c9c3694d61e7e3fef2cd4c7");
    ("rt 4/20", "ed25e998a99bffecfaba1721d5fc125e");
    ("qv 2x6", "53a9a8d828406a118b3a21e6044b7e28");
    ("rt 3/40", "a477edc0c018848076cb4456101bf292");
    ("rt 4/100", "7b70510ed5f2fe1cc7368e9cadee5523");
  ]

let test_find_all_shapes () =
  List.iter
    (fun (name, gen) ->
      let got =
        digest (fun b ->
            for seed = 1 to 4 do
              let c = gen seed in
              Buffer.add_string b (Qca_circuit.Parse.to_text c);
              List.iter
                (fun (_, hw) ->
                  add_subs b (Rules.find_all hw (Qca_circuit.Block.partition c)))
                hws
            done)
      in
      Alcotest.check Alcotest.string name (List.assoc name shapes_golden) got)
    shapes

(* {1 Allocation} *)

(* One decomposition allocates its result (the record with its boxed
   floats and four 2x2 [Mat.t]s with their boxed entries, ~100 words)
   and its per-call scratch: some 30 flat 4x4 buffers of 33 words and
   the small arrays of [Eig]. Measured at 1,346-1,498 words over 2,000
   Haar draws and the named gates; the generic-[Mat] implementation
   allocated 8,700-12,300 words a call. *)
let decompose_word_budget = 1_600

(* Every buffer is far below the minor heap's size limit, so the minor
   words count all of a call's allocation. The call starts on an empty
   minor heap, so no collection lands inside it to skew the count. *)
let words_of f =
  Gc.minor ();
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_decompose_allocation () =
  let rng = Rng.create 5 in
  let inputs =
    List.map snd named @ List.init 20 (fun _ -> Qca_workloads.Random_unitary.su4 rng)
  in
  List.iter
    (fun u ->
      ignore (Kak.decompose u);
      let words = words_of (fun () -> Kak.decompose u) in
      if words > float_of_int decompose_word_budget then
        Alcotest.failf "Kak.decompose allocated %.0f words (budget %d)" words
          decompose_word_budget)
    inputs

let suite =
  [
    ("golden: named gates", `Quick, test_named);
    ("golden: 2000 Haar SU(4)", `Quick, test_haar);
    ("golden: canonicalize", `Quick, test_coords);
    ("golden: find_all on examples", `Quick, test_find_all_examples);
    ("golden: find_all on seeded shapes", `Quick, test_find_all_shapes);
    ("decompose allocation budget", `Quick, test_decompose_allocation);
  ]
