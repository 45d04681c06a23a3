open Qca_linalg
module Rng = Qca_util.Rng

let checkb = Alcotest.check Alcotest.bool
let checkf = Alcotest.check (Alcotest.float 1e-9)

let random_mat rng n =
  Mat.init n n (fun _ _ -> Cx.make (Rng.gaussian rng) (Rng.gaussian rng))

(* A flat row-major n×n symmetric matrix, the layout [Eig] takes. *)
let random_symmetric rng n =
  let a = Array.init n (fun _ -> Array.init n (fun _ -> Rng.gaussian rng)) in
  Array.init (n * n) (fun e ->
      let i = e / n and j = e mod n in
      (a.(i).(j) +. a.(j).(i)) /. 2.0)

let diag_matrix eigs =
  let n = Array.length eigs in
  Array.init (n * n) (fun e -> if e / n = e mod n then eigs.(e / n) else 0.0)

(* {1 Cx} *)

let test_cx_basics () =
  checkb "exp_i modulus" true (Cx.approx_equal (Cx.exp_i 0.0) Cx.one);
  checkb "i^2 = -1" true (Cx.approx_equal (Cx.mul Cx.i Cx.i) (Cx.of_float (-1.0)));
  checkf "norm2" 25.0 (Cx.norm2 (Cx.make 3.0 4.0));
  checkb "conj" true (Cx.approx_equal (Cx.conj (Cx.make 1.0 2.0)) (Cx.make 1.0 (-2.0)));
  checkb "polar" true (Cx.approx_equal (Cx.polar 2.0 Float.pi) (Cx.make (-2.0) 0.0))

let test_cx_div_inv () =
  let z = Cx.make 3.0 (-2.0) in
  checkb "z/z = 1" true (Cx.approx_equal (Cx.div z z) Cx.one);
  checkb "z * inv z = 1" true (Cx.approx_equal (Cx.mul z (Cx.inv z)) Cx.one)

(* {1 Mat} *)

let test_mat_identity_mul () =
  let rng = Rng.create 1 in
  let a = random_mat rng 4 in
  checkb "I·a = a" true (Mat.approx_equal (Mat.mul (Mat.identity 4) a) a);
  checkb "a·I = a" true (Mat.approx_equal (Mat.mul a (Mat.identity 4)) a)

let test_mat_mul_assoc () =
  let rng = Rng.create 2 in
  let a = random_mat rng 3 and b = random_mat rng 3 and c = random_mat rng 3 in
  checkb "(ab)c = a(bc)" true
    (Mat.approx_equal ~tol:1e-8 (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c)))

let test_mat_adjoint () =
  let rng = Rng.create 3 in
  let a = random_mat rng 3 and b = random_mat rng 3 in
  checkb "(ab)† = b†a†" true
    (Mat.approx_equal ~tol:1e-8
       (Mat.adjoint (Mat.mul a b))
       (Mat.mul (Mat.adjoint b) (Mat.adjoint a)));
  checkb "a†† = a" true (Mat.approx_equal (Mat.adjoint (Mat.adjoint a)) a)

let test_mat_kron_dims_and_mixed_product () =
  let rng = Rng.create 4 in
  let a = random_mat rng 2 and b = random_mat rng 2 in
  let c = random_mat rng 2 and d = random_mat rng 2 in
  (* (a⊗b)(c⊗d) = (ac)⊗(bd) *)
  checkb "mixed product" true
    (Mat.approx_equal ~tol:1e-8
       (Mat.mul (Mat.kron a b) (Mat.kron c d))
       (Mat.kron (Mat.mul a c) (Mat.mul b d)))

let test_mat_trace_kron () =
  let rng = Rng.create 5 in
  let a = random_mat rng 2 and b = random_mat rng 3 in
  checkb "tr(a⊗b) = tr a · tr b" true
    (Cx.approx_equal ~tol:1e-8 (Mat.trace (Mat.kron a b))
       (Cx.mul (Mat.trace a) (Mat.trace b)))

let test_mat_det4 () =
  let id = Mat.identity 4 in
  checkb "det I = 1" true (Cx.approx_equal (Mat.det4 id) Cx.one);
  let diag =
    Mat.init 3 3 (fun i j -> if i = j then Cx.of_float (float_of_int (i + 2)) else Cx.zero)
  in
  checkb "det diag" true (Cx.approx_equal (Mat.det4 diag) (Cx.of_float 24.0))

let test_mat_det_multiplicative () =
  let rng = Rng.create 6 in
  let a = random_mat rng 3 and b = random_mat rng 3 in
  checkb "det(ab) = det a det b" true
    (Cx.approx_equal ~tol:1e-6 (Mat.det4 (Mat.mul a b))
       (Cx.mul (Mat.det4 a) (Mat.det4 b)))

let test_global_phase_equality () =
  let rng = Rng.create 7 in
  let a = random_mat rng 4 in
  let b = Mat.scale (Cx.exp_i 1.234) a in
  checkb "phase equal" true (Mat.equal_up_to_global_phase a b);
  checkb "not plain equal" false (Mat.approx_equal a b);
  let c = Mat.scale (Cx.of_float 2.0) a in
  checkb "scaling ≠ phase" false (Mat.equal_up_to_global_phase a c)

let test_apply_vec () =
  let m = Mat.of_real_lists [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ] in
  let v = [| Cx.one; Cx.zero |] in
  let r = Mat.apply_vec m v in
  checkb "X|0> = |1>" true (Cx.approx_equal r.(0) Cx.zero && Cx.approx_equal r.(1) Cx.one)

let test_predicates () =
  checkb "identity unitary" true (Mat.is_unitary (Mat.identity 4));
  checkb "identity hermitian" true (Mat.is_hermitian (Mat.identity 4));
  checkb "identity diagonal" true (Mat.is_diagonal (Mat.identity 4));
  checkb "identity real" true (Mat.is_real (Mat.identity 4));
  let j = Mat.scale Cx.i (Mat.identity 2) in
  checkb "iI not real" false (Mat.is_real j);
  checkb "iI unitary" true (Mat.is_unitary j)

let test_of_lists_validation () =
  Alcotest.check_raises "ragged rejected" (Invalid_argument "Mat.of_lists: ragged rows")
    (fun () -> ignore (Mat.of_lists [ [ Cx.one ]; [ Cx.one; Cx.zero ] ]))

(* {1 Eig} *)

let test_jacobi_reconstruction () =
  let rng = Rng.create 11 in
  for n = 2 to 6 do
    let a = random_symmetric rng n in
    let eigenvalues, v = Eig.jacobi a in
    (* a = v diag vᵀ *)
    let rebuilt = Eig.mat_mul v (Eig.mat_mul (diag_matrix eigenvalues) (Eig.mat_transpose v)) in
    let worst = ref 0.0 in
    Array.iteri (fun e r -> worst := Float.max !worst (Float.abs (r -. a.(e)))) rebuilt;
    checkb (Printf.sprintf "reconstruct %dx%d" n n) true (!worst < 1e-8)
  done

let test_jacobi_orthogonality () =
  let rng = Rng.create 12 in
  let a = random_symmetric rng 5 in
  let _, v = Eig.jacobi a in
  let vtv = Eig.mat_mul (Eig.mat_transpose v) v in
  let worst = ref 0.0 in
  for i = 0 to 4 do
    for j = 0 to 4 do
      let expect = if i = j then 1.0 else 0.0 in
      worst := Float.max !worst (Float.abs (vtv.((i * 5) + j) -. expect))
    done
  done;
  checkb "vᵀv = I" true (!worst < 1e-9)

let test_simultaneous_diagonalize () =
  let rng = Rng.create 13 in
  (* build commuting symmetric matrices sharing an eigenbasis, with
     degenerate eigenvalues to exercise the cluster refinement *)
  let n = 4 in
  let base = random_symmetric rng n in
  let _, q = Eig.jacobi base in
  let with_eigs eigs =
    Eig.mat_mul q (Eig.mat_mul (diag_matrix eigs) (Eig.mat_transpose q))
  in
  let a = with_eigs [| 1.0; 1.0; 2.0; 3.0 |] in
  let b = with_eigs [| 5.0; -1.0; 0.5; 0.5 |] in
  let p = Eig.simultaneous_diagonalize a b in
  let diag m = Eig.is_diagonal ~tol:1e-7 (Eig.mat_mul (Eig.mat_transpose p) (Eig.mat_mul m p)) in
  checkb "a diagonalized" true (diag a);
  checkb "b diagonalized" true (diag b)

let test_simultaneous_rejects_noncommuting () =
  let a = [| 1.0; 0.0; 0.0; -1.0 |] in
  let b = [| 0.0; 1.0; 1.0; 0.0 |] in
  (* Z and X do not commute *)
  checkb "raises" true
    (try
       ignore (Eig.simultaneous_diagonalize a b);
       false
     with Invalid_argument _ -> true)

let test_det_real () =
  Alcotest.check (Alcotest.float 1e-9) "det 2x2" (-2.0)
    (Eig.det [| 1.0; 2.0; 3.0; 4.0 |]);
  Alcotest.check (Alcotest.float 1e-9) "det singular" 0.0
    (Eig.det [| 1.0; 2.0; 2.0; 4.0 |])

let prop_unitary_products =
  QCheck.Test.make ~name:"product of unitaries is unitary" ~count:50
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let rng = Rng.create ((s1 * 1000) + s2 + 1) in
      let haar_ish n =
        (* orthonormalize a random matrix via repeated Gram-Schmidt
           through Eig on AᵀA is overkill; use the rotation generators *)
        let m = ref (Mat.identity n) in
        for _ = 1 to 5 do
          let theta = Rng.float rng 6.28 in
          let r =
            Mat.init n n (fun i j ->
                if i = j then
                  if i <= 1 then Cx.of_float (cos theta) else Cx.one
                else if i = 0 && j = 1 then Cx.of_float (-.sin theta)
                else if i = 1 && j = 0 then Cx.of_float (sin theta)
                else Cx.zero)
          in
          m := Mat.mul r !m
        done;
        !m
      in
      Mat.is_unitary ~tol:1e-8 (haar_ish 4))

let suite =
  [
    ("cx basics", `Quick, test_cx_basics);
    ("cx division/inverse", `Quick, test_cx_div_inv);
    ("mat identity mul", `Quick, test_mat_identity_mul);
    ("mat mul associativity", `Quick, test_mat_mul_assoc);
    ("mat adjoint laws", `Quick, test_mat_adjoint);
    ("mat kron mixed product", `Quick, test_mat_kron_dims_and_mixed_product);
    ("mat trace of kron", `Quick, test_mat_trace_kron);
    ("mat det4", `Quick, test_mat_det4);
    ("mat det multiplicative", `Quick, test_mat_det_multiplicative);
    ("mat global phase equality", `Quick, test_global_phase_equality);
    ("mat apply_vec", `Quick, test_apply_vec);
    ("mat predicates", `Quick, test_predicates);
    ("mat of_lists validation", `Quick, test_of_lists_validation);
    ("eig jacobi reconstruction", `Quick, test_jacobi_reconstruction);
    ("eig jacobi orthogonality", `Quick, test_jacobi_orthogonality);
    ("eig simultaneous diagonalization", `Quick, test_simultaneous_diagonalize);
    ("eig simultaneous rejects non-commuting", `Quick, test_simultaneous_rejects_noncommuting);
    ("eig real determinant", `Quick, test_det_real);
    QCheck_alcotest.to_alcotest prop_unitary_products;
  ]
