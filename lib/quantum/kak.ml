open Qca_linalg

type t = {
  phase : float;
  k1l : Mat.t;
  k1r : Mat.t;
  x : float;
  y : float;
  z : float;
  k2l : Mat.t;
  k2r : Mat.t;
}

let magic_basis =
  let s = 1.0 /. sqrt 2.0 in
  let c re im = Cx.scale s (Cx.make re im) in
  Mat.of_lists
    [
      [ c 1. 0.; Cx.zero; Cx.zero; c 0. 1. ];
      [ Cx.zero; c 0. 1.; c 1. 0.; Cx.zero ];
      [ Cx.zero; c 0. 1.; c (-1.) 0.; Cx.zero ];
      [ c 1. 0.; Cx.zero; Cx.zero; c 0. (-1.) ];
    ]

let magic_dag = Mat.adjoint magic_basis

(* Diagonal (in the magic basis) sign patterns of XX, YY, ZZ; computed
   once so every convention below is self-consistent with
   [magic_basis]. *)
let sign_vectors =
  let diag_of p =
    let d = Mat.mul3 magic_dag p magic_basis in
    assert (Mat.is_diagonal ~tol:1e-12 d);
    Array.init 4 (fun i ->
        let v = Mat.get d i i in
        assert (Cx.is_real ~tol:1e-12 v);
        v.Cx.re)
  in
  (diag_of Gates.xx, diag_of Gates.yy, diag_of Gates.zz)

(* {1 Fixed-size kernels}

   A complex n×n matrix (n = 2 or 4) is a flat float array of 2n²
   entries, row-major, with the real part of entry (i, j) at 2(i·n + j)
   and its imaginary part next to it. Each kernel writes a destination
   the caller allocated for this call, and repeats the floating-point
   operations of its [Mat]/[Cx] counterpart in the same order, so every
   value is bit-identical to the generic path: products accumulate from
   +0 and skip zero left-hand entries as [Mat.mul] does, [det] expands
   cofactors as [Mat.det4] does, and division, modulus, argument and
   unit phase are the formulas of [Complex.div], [Complex.norm]
   ([Float.hypot]), [Complex.arg] ([atan2]) and [Complex.polar]. A
   destination never aliases an operand, except where a kernel says
   so. *)

(* A destination every entry of which the kernel writing it sets. *)
let buf n = Array.create_float (2 * n * n)

let zeros n = Array.make (2 * n * n) 0.0

let flat m =
  let n = Mat.rows m in
  let a = buf n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let z = Mat.get m i j in
      a.(2 * ((i * n) + j)) <- z.Cx.re;
      a.((2 * ((i * n) + j)) + 1) <- z.Cx.im
    done
  done;
  a

let to_mat n a =
  Mat.init n n (fun i j -> Cx.make a.(2 * ((i * n) + j)) a.((2 * ((i * n) + j)) + 1))

let identity4 () =
  let a = zeros 4 in
  for i = 0 to 3 do
    a.(10 * i) <- 1.0
  done;
  a

(* Read-only tables: built at module init and never written. *)
let magic_k = flat magic_basis
let magic_dag_k = flat magic_dag
let xx_k = flat Gates.xx
let yy_k = flat Gates.yy
let zz_k = flat Gates.zz

(* dst ← a·b for 4x4 [a] and [b], as [Mat.mul]: entry (i, j) adds
   a(i,k)·b(k,j) to +0 for k = 0..3 in order, skipping each zero a(i,k).
   The hottest kernel, so it checks the sizes once and then reads
   unchecked. *)
let mul a b dst =
  if Array.length a <> 32 || Array.length b <> 32 || Array.length dst <> 32 then
    invalid_arg "Kak.mul: not 4x4";
  for i = 0 to 3 do
    for j = 0 to 3 do
      let accr = ref 0.0 and acci = ref 0.0 in
      for k = 0 to 3 do
        let ea = (8 * i) + (2 * k) in
        let ar = Array.unsafe_get a ea and ai = Array.unsafe_get a (ea + 1) in
        if ar <> 0.0 || ai <> 0.0 then begin
          let eb = (8 * k) + (2 * j) in
          let br = Array.unsafe_get b eb and bi = Array.unsafe_get b (eb + 1) in
          accr := !accr +. ((ar *. br) -. (ai *. bi));
          acci := !acci +. ((ar *. bi) +. (ai *. br))
        end
      done;
      Array.unsafe_set dst ((8 * i) + (2 * j)) !accr;
      Array.unsafe_set dst ((8 * i) + (2 * j) + 1) !acci
    done
  done

(* dst ← (sr + i·si)·src, as [Mat.scale]; dst may be src. *)
let scale sr si src dst =
  for e = 0 to (Array.length src / 2) - 1 do
    let zr = src.(2 * e) and zi = src.((2 * e) + 1) in
    dst.(2 * e) <- (sr *. zr) -. (si *. zi);
    dst.((2 * e) + 1) <- (sr *. zi) +. (si *. zr)
  done

let transpose src dst =
  for i = 0 to 3 do
    for j = 0 to 3 do
      let d = 2 * ((i * 4) + j) and e = 2 * ((j * 4) + i) in
      dst.(d) <- src.(e);
      dst.(d + 1) <- src.(e + 1)
    done
  done

let adjoint src dst =
  transpose src dst;
  for e = 0 to 15 do
    dst.((2 * e) + 1) <- -.dst.((2 * e) + 1)
  done

(* dst ← a⊗b for 2x2 [a] and [b], as [Mat.kron]. *)
let kron a b dst =
  for i = 0 to 1 do
    for j = 0 to 1 do
      let ea = 2 * ((i * 2) + j) in
      let ar = a.(ea) and ai = a.(ea + 1) in
      for k = 0 to 1 do
        for l = 0 to 1 do
          let eb = 2 * ((k * 2) + l) in
          let d = 2 * ((((i * 2) + k) * 4) + (j * 2) + l) in
          let br = b.(eb) and bi = b.(eb + 1) in
          dst.(d) <- (ar *. br) -. (ai *. bi);
          dst.(d + 1) <- (ar *. bi) +. (ai *. br)
        done
      done
    done
  done

(* [Float.hypot zr zi < r] holds for certain when zr² + zi² < r²(1 − 1e-6):
   the roundings on either side are far below that margin. NaN and
   overflow fail the test, and the caller computes [Float.hypot]. *)
let[@inline] surely_below zr zi r = (zr *. zr) +. (zi *. zi) < r *. r *. 0.999999

(* [Mat.max_abs_diff a b] wherever it exceeds [tol] (NaN when an entry
   is NaN, as [Float.max] makes it), and some value ≤ [tol] otherwise:
   every caller only compares the maximum with [tol]. *)
let max_abs_diff a b tol =
  let worst = ref 0.0 and nan = ref false in
  for e = 0 to (Array.length a / 2) - 1 do
    let dr = a.(2 * e) -. b.(2 * e) and di = a.((2 * e) + 1) -. b.((2 * e) + 1) in
    if not (surely_below dr di tol) then begin
      let v = Float.hypot dr di in
      if v <> v then nan := true else if v > !worst then worst := v
    end
  done;
  if !nan then Float.nan else !worst

(* [Mat.is_unitary ~tol u] for a 4x4 [u]. *)
let is_unitary u tol =
  let ud = buf 4 and p = buf 4 in
  adjoint u ud;
  mul ud u p;
  max_abs_diff p (identity4 ()) tol <= tol

(* [Mat.det4]'s cofactor expansion along the first row: the minor of
   the 4x4 [a] on rows [row..3] and on the columns in the bit set
   [cols] (in increasing order) lands in out.(2·row), out.(2·row+1). *)
let rec det a row cols out =
  if row = 3 then begin
    let c = if cols = 1 then 0 else if cols = 2 then 1 else if cols = 4 then 2 else 3 in
    out.(6) <- a.(2 * (12 + c));
    out.(7) <- a.((2 * (12 + c)) + 1)
  end
  else begin
    let accr = ref 0.0 and acci = ref 0.0 and nth = ref 0 in
    for c = 0 to 3 do
      if cols land (1 lsl c) <> 0 then begin
        det a (row + 1) (cols lxor (1 lsl c)) out;
        let e = 2 * ((row * 4) + c) in
        let mr = a.(e) and mi = a.(e + 1) in
        let dr = out.(2 * (row + 1)) and di = out.((2 * (row + 1)) + 1) in
        let tr = (mr *. dr) -. (mi *. di) and ti = (mr *. di) +. (mi *. dr) in
        if !nth mod 2 = 0 then begin
          accr := !accr +. tr;
          acci := !acci +. ti
        end
        else begin
          accr := !accr -. tr;
          acci := !acci -. ti
        end;
        incr nth
      end
    done;
    out.(2 * row) <- !accr;
    out.((2 * row) + 1) <- !acci
  end

(* dst.(d), dst.(d+1) ← x/y for x at x.(i) and y at y.(j), as
   [Complex.div]; dst may be x or y. *)
let div x i y j dst d =
  let xr = x.(i) and xi = x.(i + 1) and yr = y.(j) and yi = y.(j + 1) in
  if Float.abs yr >= Float.abs yi then begin
    let r = yi /. yr in
    let den = yr +. (r *. yi) in
    dst.(d) <- (xr +. (r *. xi)) /. den;
    dst.(d + 1) <- (xi -. (r *. xr)) /. den
  end
  else begin
    let r = yr /. yi in
    let den = yi +. (r *. yr) in
    dst.(d) <- ((r *. xr) +. xi) /. den;
    dst.(d + 1) <- ((r *. xi) -. xr) /. den
  end

let frobenius_norm a =
  let acc = ref 0.0 in
  for e = 0 to (Array.length a / 2) - 1 do
    acc := !acc +. ((a.(2 * e) *. a.(2 * e)) +. (a.((2 * e) + 1) *. a.((2 * e) + 1)))
  done;
  sqrt !acc

(* [factor_tensor_product] of a flat 4x4 [m] into the 2x2 buffers [a]
   and [b]; false when [m] does not factor. *)
let factor m a b =
  (* Locate the entry of largest modulus; m = a⊗b means
     m[2r+s][2c+t] = a[r][c]·b[s][t]. *)
  let best = ref 0.0 and bi = ref 0 and bj = ref 0 in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let e = 2 * ((i * 4) + j) in
      if not (surely_below m.(e) m.(e + 1) !best) then begin
        let n = Float.hypot m.(e) m.(e + 1) in
        if n > !best then begin
          best := n;
          bi := i;
          bj := j
        end
      end
    done
  done;
  if !best < 1e-9 then false
  else begin
    let r0 = !bi / 2 and s0 = !bi mod 2 and c0 = !bj / 2 and t0 = !bj mod 2 in
    let pivot = 2 * ((!bi * 4) + !bj) in
    for st = 0 to 1 do
      for tt = 0 to 1 do
        let e = 2 * ((((2 * r0) + st) * 4) + (2 * c0) + tt) and d = 2 * ((st * 2) + tt) in
        b.(d) <- m.(e);
        b.(d + 1) <- m.(e + 1)
      done
    done;
    for rr = 0 to 1 do
      for cc = 0 to 1 do
        div m (2 * ((((2 * rr) + s0) * 4) + (2 * cc) + t0)) m pivot a (2 * ((rr * 2) + cc))
      done
    done;
    (* a⊗b reproduces m exactly when m is a tensor product. Balance the
       scales so both factors are unitary (when m is). *)
    let na = frobenius_norm a /. sqrt 2.0 in
    let nb = frobenius_norm b /. sqrt 2.0 in
    if na < 1e-12 || nb < 1e-12 then false
    else begin
      scale (1.0 /. na) 0.0 a a;
      scale (1.0 /. nb) 0.0 b b;
      (* Distribute the leftover complex scale into [a]: the pivot over
         (a⊗b)'s entry at the pivot, a[r0][c0]·b[s0][t0]. *)
      let ea = 2 * ((r0 * 2) + c0) and eb = 2 * ((s0 * 2) + t0) in
      let s =
        [|
          (a.(ea) *. b.(eb)) -. (a.(ea + 1) *. b.(eb + 1));
          (a.(ea) *. b.(eb + 1)) +. (a.(ea + 1) *. b.(eb));
        |]
      in
      div m pivot s 0 s 0;
      scale s.(0) s.(1) a a;
      let ab = buf 4 in
      kron a b ab;
      max_abs_diff ab m 1e-6 <= 1e-6
    end
  end

(* dst ← exp(i·theta·p) = cos·I + i sin·p, as [Gates.canonical]'s
   [Mat.add (Mat.scale (cos, 0) I) (Mat.scale (0, sin) p)]. *)
let exp_i_pauli theta p dst =
  let c = cos theta and s = sin theta in
  for i = 0 to 3 do
    for j = 0 to 3 do
      let e = 2 * ((i * 4) + j) in
      let ir = if i = j then 1.0 else 0.0 in
      let pr = p.(e) and pi = p.(e + 1) in
      dst.(e) <- ((c *. ir) -. (0.0 *. 0.0)) +. ((0.0 *. pr) -. (s *. pi));
      dst.(e + 1) <- ((c *. 0.0) +. (0.0 *. ir)) +. ((0.0 *. pi) +. (s *. pr))
    done
  done

(* dst ← (k1l⊗k1r)·N(x, y, z)·(k2l⊗k2r) with N = [Gates.canonical]:
   what [rebuild] scales by the global phase. *)
let local_product k1l k1r x y z k2l k2r dst =
  let a = buf 4 and b = buf 4 and c = buf 4 and t = buf 4 in
  exp_i_pauli y yy_k b;
  exp_i_pauli z zz_k c;
  mul b c t;
  exp_i_pauli x xx_k a;
  mul a t c;
  kron k2l k2r a;
  mul c a t;
  kron k1l k1r a;
  mul a t dst

let factor_tensor_product m =
  if Mat.rows m <> 4 || Mat.cols m <> 4 then
    invalid_arg "Kak.factor_tensor_product: not 4x4";
  let a = buf 2 and b = buf 2 in
  if factor (flat m) a b then Some (to_mat 2 a, to_mat 2 b) else None

(* Trace of a flat 4x4 into out.(k), out.(k+1), as [Mat.trace]. *)
let trace a out k =
  let tr = ref 0.0 and ti = ref 0.0 in
  for i = 0 to 3 do
    tr := !tr +. a.(10 * i);
    ti := !ti +. a.((10 * i) + 1)
  done;
  out.(k) <- !tr;
  out.(k + 1) <- !ti

(* [u] as a flat 4x4, checked to be unitary as [Mat.is_unitary ~tol:1e-8]. *)
let flat_unitary name u =
  if Mat.rows u <> 4 || Mat.cols u <> 4 then invalid_arg ("Kak." ^ name ^ ": not 4x4");
  let uf = flat u in
  if not (is_unitary uf 1e-8) then invalid_arg ("Kak." ^ name ^ ": not unitary");
  uf

(* Normalizes the flat unitary [uf] to SU(4) and moves it to the magic
   basis: m ← B†·(e^{−iφ₀}·uf)·B and the complex symmetric γ = mᵀm into
   [gamma], which holds e^{−iφ₀}·uf until then; [t] is scratch. Returns
   the global phase φ₀ = arg(det uf)/4. *)
let magic_gamma uf m gamma t =
  let s = Array.make 8 0.0 in
  det uf 0 15 s;
  let phase0 = atan2 s.(1) s.(0) /. 4.0 in
  scale (cos (-.phase0)) (sin (-.phase0)) uf gamma;
  mul gamma magic_k t;
  mul magic_dag_k t m;
  transpose m t;
  mul t m gamma;
  phase0

let makhlin_invariants u =
  let uf = flat_unitary "makhlin_invariants" u in
  let m = buf 4 and mm = buf 4 and t = buf 4 in
  ignore (magic_gamma uf m mm t);
  mul mm mm t;
  let s = Array.make 4 0.0 in
  trace mm s 0;
  trace t s 2;
  let tr = s.(0) and ti = s.(1) and tr2 = s.(2) and ti2 = s.(3) in
  (* tr² as [Cx.mul], then G1 = tr²/16 and G2 = (tr² − tr(mm²))/4. *)
  let sqr = (tr *. tr) -. (ti *. ti) and sqi = (tr *. ti) +. (ti *. tr) in
  let g1 = Cx.make ((1.0 /. 16.0) *. sqr) ((1.0 /. 16.0) *. sqi) in
  let g2r = 0.25 *. (sqr -. tr2) and g2i = 0.25 *. (sqi -. ti2) in
  assert (Float.abs g2i <= 1e-6);
  (g1, g2r)

let locally_equivalent ?(tol = 1e-6) u v =
  (* G1 and G2 are invariant under the branch chosen when normalizing the
     determinant (it rescales MᵀM by ±1, and both invariants are even). *)
  let g1u, g2u = makhlin_invariants u and g1v, g2v = makhlin_invariants v in
  Float.abs (g2u -. g2v) <= tol && Cx.approx_equal ~tol g1u g1v

let rebuild d =
  let p = buf 4 in
  local_product (flat d.k1l) (flat d.k1r) d.x d.y d.z (flat d.k2l) (flat d.k2r) p;
  scale (cos d.phase) (sin d.phase) p p;
  to_mat 4 p

let dot a b =
  let acc = ref 0.0 in
  for i = 0 to 3 do
    acc := !acc +. (a.(i) *. b.(i))
  done;
  !acc

(* q1 ← M·(P·D⁻¹) with D⁻¹ = diag(e^{−iθ}), and its real part into
   [q1_re]; [t] is scratch. *)
let q1_of m p theta t q1 q1_re =
  let d_inv = zeros 4 in
  for i = 0 to 3 do
    d_inv.(10 * i) <- cos (-.theta.(i));
    d_inv.((10 * i) + 1) <- sin (-.theta.(i))
  done;
  mul p d_inv t;
  mul m t q1;
  for e = 0 to 15 do
    q1_re.(e) <- q1.(2 * e)
  done

let decompose u =
  let uf = flat_unitary "decompose" u in
  (* 1-2. Normalize to SU(4), tracking the global phase, move to the
     magic basis and form the complex symmetric γ = MᵀM. *)
  let m = buf 4 and gamma = buf 4 and t = buf 4 in
  let phase0 = magic_gamma uf m gamma t in
  (* 3. Simultaneously diagonalize Re γ and Im γ with a real orthogonal P. *)
  let g_re = Array.make 16 0.0 and g_im = Array.make 16 0.0 in
  for e = 0 to 15 do
    g_re.(e) <- gamma.(2 * e);
    g_im.(e) <- gamma.((2 * e) + 1)
  done;
  let p_real = Eig.simultaneous_diagonalize g_re g_im in
  if Eig.det p_real < 0.0 then
    for r = 0 to 3 do
      p_real.(4 * r) <- -.p_real.(4 * r)
    done;
  let p = zeros 4 and pt = buf 4 in
  for e = 0 to 15 do
    p.(2 * e) <- p_real.(e)
  done;
  transpose p pt;
  (* 4. Extract the diagonal phases: Pᵀ γ P = diag(e^{2iθ}), whose
     diagonal is all that is read of [Mat.mul3 pᵀ γ p]. *)
  mul gamma p t;
  let theta = Array.make 4 0.0 in
  for j = 0 to 3 do
    let dr = ref 0.0 and di = ref 0.0 in
    for k = 0 to 3 do
      let ea = 2 * ((j * 4) + k) in
      let ar = pt.(ea) and ai = pt.(ea + 1) in
      if ar <> 0.0 || ai <> 0.0 then begin
        let eb = 2 * ((k * 4) + j) in
        let br = t.(eb) and bi = t.(eb + 1) in
        dr := !dr +. ((ar *. br) -. (ai *. bi));
        di := !di +. ((ar *. bi) +. (ai *. br))
      end
    done;
    theta.(j) <- atan2 !di !dr /. 2.0
  done;
  (* 5. Q1 = M P D⁻¹ is real orthogonal; force det Q1 = +1 by flipping a
     θ branch if needed. *)
  let q1 = buf 4 and q1_re = g_re in
  q1_of m p theta t q1 q1_re;
  if Eig.det q1_re < 0.0 then begin
    theta.(0) <- theta.(0) +. Float.pi;
    q1_of m p theta t q1 q1_re
  end;
  (* 6. Interaction coefficients from the orthogonal basis {1,sx,sy,sz}
     of R⁴: θ = φ·1 + x·sx + y·sy + z·sz exactly. *)
  let sx, sy, sz = sign_vectors in
  let phi = dot theta [| 1.; 1.; 1.; 1. |] /. 4.0 in
  let x = dot theta sx /. 4.0 in
  let y = dot theta sy /. 4.0 in
  let z = dot theta sz /. 4.0 in
  (* 7. Back to the computational basis; factor the local parts. *)
  let k1 = m and k2 = q1 in
  mul q1 magic_dag_k t;
  mul magic_k t k1;
  mul pt magic_dag_k t;
  mul magic_k t k2;
  let k1l = buf 2 and k1r = buf 2 and k2l = buf 2 and k2r = buf 2 in
  if not (factor k1 k1l k1r && factor k2 k2l k2r) then
    invalid_arg "Kak.decompose: local factorization failed";
  (* The tensor factorizations fix their internal phases arbitrarily;
     recover the exact residual global phase against u. *)
  let product = p and rebuilt = pt in
  local_product k1l k1r x y z k2l k2r product;
  let phase = phase0 +. phi in
  scale (cos phase) (sin phase) product rebuilt;
  (* rebuilt = e^{iδ}·u for some δ; find δ from the largest entry. *)
  let best = ref 0.0 and correction = ref 0.0 in
  for e = 0 to 15 do
    if not (surely_below uf.(2 * e) uf.((2 * e) + 1) !best) then begin
      let n = Float.hypot uf.(2 * e) uf.((2 * e) + 1) in
      if n > !best then begin
        best := n;
        correction :=
          atan2 uf.((2 * e) + 1) uf.(2 * e) -. atan2 rebuilt.((2 * e) + 1) rebuilt.(2 * e)
      end
    end
  done;
  let phase = phase +. !correction in
  scale (cos phase) (sin phase) product rebuilt;
  if max_abs_diff rebuilt uf 1e-7 > 1e-7 then
    invalid_arg "Kak.decompose: reconstruction check failed";
  {
    phase;
    k1l = to_mat 2 k1l;
    k1r = to_mat 2 k1r;
    x;
    y;
    z;
    k2l = to_mat 2 k2l;
    k2r = to_mat 2 k2r;
  }

type canonical = {
  cx : float;
  cy : float;
  cz : float;
  c_phase : float;
  cl : Mat.t;
  cr : Mat.t;
}

(* State while canonicalizing: N(v₀) = e^{iφ}·L·N(v)·R, with v in
   c.(0..2) and φ in c.(3). Each product lands in [tmp], which then
   swaps places with the factor it replaces. *)
type canon_state = {
  c : float array;
  mutable l : float array;
  mutable r : float array;
  mutable tmp : float array;
}

let half_pi = Float.pi /. 2.0
let quarter_pi = Float.pi /. 4.0

let left_mul st c4 =
  mul st.l c4 st.tmp;
  let l = st.l in
  st.l <- st.tmp;
  st.tmp <- l

(* Conjugation by c4 = (c4, c4†): N(v) = c4·N(v')·c4†, where the caller
   has already moved v to v'. *)
let conjugate st (c4, c4_dag) =
  left_mul st c4;
  mul c4_dag st.r st.tmp;
  let r = st.r in
  st.r <- st.tmp;
  st.tmp <- r

let conjugator c4 = (flat c4, flat (Mat.adjoint c4))

(* Shift coordinate k by ±π/2: N(..vk..) = e^{∓iπ/2}·(σ⊗σ)^{±1}... more
   precisely N(v) = (∓i)·(σₖ⊗σₖ)·N(v ∓ π/2·eₖ) — we fold the phase and
   the Pauli product into L. *)
let shift st k step =
  (* N(v) = exp(i·step·π/2·σσ) · N(v − step·π/2·eₖ)
          = (i·step-sign)·σσ · N(v − step·π/2·eₖ) when step = ±1. *)
  let ph = if step > 0 then half_pi else -.half_pi in
  st.c.(k) <- st.c.(k) -. (float_of_int step *. half_pi);
  st.c.(3) <- st.c.(3) +. ph;
  left_mul st (match k with 0 -> xx_k | 1 -> yy_k | _ -> zz_k)

(* c ⊗ c conjugation permutes the interaction coordinates: S swaps x,y;
   H swaps x,z; Rx(π/2) swaps y,z (tensor squares kill residual Pauli
   signs). Verified by the test suite. *)
let swap_xy = conjugator (Mat.kron Gates.s Gates.s)
let swap_xz = conjugator (Mat.kron Gates.h Gates.h)
let swap_yz = conjugator (Mat.kron (Gates.rx half_pi) (Gates.rx half_pi))

let swap_coords st a b =
  if a <> b then begin
    let tmp = st.c.(a) in
    st.c.(a) <- st.c.(b);
    st.c.(b) <- tmp;
    conjugate st
      (match (min a b, max a b) with
       | 0, 1 -> swap_xy
       | 0, 2 -> swap_xz
       | 1, 2 -> swap_yz
       | _ -> assert false)
  end

(* σ_spared ⊗ I conjugation negates the two coordinates other than
   [spared]. *)
let negate_yz = conjugator (Mat.kron Gates.x Gates.id2)
let negate_xz = conjugator (Mat.kron Gates.y Gates.id2)
let negate_xy = conjugator (Mat.kron Gates.z Gates.id2)

let negate_pair st spared =
  for i = 0 to 2 do
    if i <> spared then st.c.(i) <- -.st.c.(i)
  done;
  conjugate st (match spared with 0 -> negate_yz | 1 -> negate_xz | _ -> negate_xy)

let canonicalize x y z =
  let st = { c = [| x; y; z; 0.0 |]; l = identity4 (); r = identity4 (); tmp = buf 4 } in
  (* 1. Bring each coordinate into (−π/4, π/4] by ±π/2 shifts. *)
  for k = 0 to 2 do
    while st.c.(k) > quarter_pi +. 1e-12 do
      shift st k 1
    done;
    while st.c.(k) <= -.quarter_pi -. 1e-12 do
      shift st k (-1)
    done
  done;
  (* 2. Sort by decreasing absolute value. *)
  let abs_v k = Float.abs st.c.(k) in
  let largest =
    if abs_v 0 >= abs_v 1 && abs_v 0 >= abs_v 2 then 0
    else if abs_v 1 >= abs_v 2 then 1
    else 2
  in
  swap_coords st 0 largest;
  if abs_v 1 < abs_v 2 then swap_coords st 1 2;
  (* 3. Push signs onto z. *)
  if st.c.(0) < 0.0 && st.c.(1) < 0.0 then negate_pair st 2
  else if st.c.(0) < 0.0 then negate_pair st 1
  else if st.c.(1) < 0.0 then negate_pair st 0;
  (* 4. Boundary: at x = π/4 a negative z can be reflected. *)
  if st.c.(0) > quarter_pi -. 1e-9 && st.c.(2) < -1e-12 then begin
    negate_pair st 1;
    (* x is now −π/4; shift it back up to +π/4. *)
    shift st 0 (-1)
  end;
  {
    cx = st.c.(0);
    cy = st.c.(1);
    cz = st.c.(2);
    c_phase = st.c.(3);
    cl = to_mat 4 st.l;
    cr = to_mat 4 st.r;
  }

let weyl_coordinates u =
  let d = decompose u in
  let c = canonicalize d.x d.y d.z in
  (c.cx, c.cy, c.cz)

let cnot_cost u =
  let cx, cy, cz = weyl_coordinates u in
  let zero v = Float.abs v < 1e-8 in
  if zero cx && zero cy && zero cz then 0
  else if Float.abs (cx -. quarter_pi) < 1e-8 && zero cy && zero cz then 1
  else if zero cz then 2
  else 3
