type t = { rows : int; cols : int; data : Cx.t array }

let create rows cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Mat.create: non-positive dims";
  { rows; cols; data = Array.make (rows * cols) Cx.zero }

let rows m = m.rows
let cols m = m.cols

let check m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Mat: index (%d,%d) out of bounds (%dx%d)" i j m.rows m.cols)

let get m i j =
  check m i j;
  m.data.((i * m.cols) + j)

let set m i j v =
  check m i j;
  m.data.((i * m.cols) + j) <- v

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then Cx.one else Cx.zero)
let zeros rows cols = create rows cols

let of_lists rows_list =
  match rows_list with
  | [] -> invalid_arg "Mat.of_lists: empty"
  | first :: _ ->
    let nrows = List.length rows_list and ncols = List.length first in
    if List.exists (fun r -> List.length r <> ncols) rows_list then
      invalid_arg "Mat.of_lists: ragged rows";
    let arr = Array.of_list (List.map Array.of_list rows_list) in
    init nrows ncols (fun i j -> arr.(i).(j))

let of_real_lists rows_list =
  of_lists (List.map (List.map Cx.of_float) rows_list)

let copy m = { m with data = Array.copy m.data }

let same_dims a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Mat: dimension mismatch"

let add a b =
  same_dims a b;
  { a with data = Array.map2 Cx.add a.data b.data }

let sub a b =
  same_dims a b;
  { a with data = Array.map2 Cx.sub a.data b.data }

let scale s m = { m with data = Array.map (Cx.mul s) m.data }

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: dimension mismatch";
  let m = create a.rows b.cols in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik.Cx.re <> 0.0 || aik.Cx.im <> 0.0 then
        for j = 0 to b.cols - 1 do
          let idx = (i * b.cols) + j in
          m.data.(idx) <- Cx.add m.data.(idx) (Cx.mul aik b.data.((k * b.cols) + j))
        done
    done
  done;
  m

let mul3 a b c = mul a (mul b c)

let kron a b =
  let m = create (a.rows * b.rows) (a.cols * b.cols) in
  for i = 0 to a.rows - 1 do
    for j = 0 to a.cols - 1 do
      let aij = a.data.((i * a.cols) + j) in
      for k = 0 to b.rows - 1 do
        for l = 0 to b.cols - 1 do
          set m ((i * b.rows) + k) ((j * b.cols) + l) (Cx.mul aij (get b k l))
        done
      done
    done
  done;
  m

let transpose m = init m.cols m.rows (fun i j -> get m j i)
let conj m = { m with data = Array.map Cx.conj m.data }
let adjoint m = transpose (conj m)

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: non-square";
  let acc = ref Cx.zero in
  for i = 0 to m.rows - 1 do
    acc := Cx.add !acc (get m i i)
  done;
  !acc

(* Cofactor expansion; only ever called on 1x1..4x4 matrices. *)
let rec det_small m =
  let n = m.rows in
  if n = 1 then get m 0 0
  else begin
    let acc = ref Cx.zero in
    for j = 0 to n - 1 do
      let minor =
        init (n - 1) (n - 1) (fun r c -> get m (r + 1) (if c < j then c else c + 1))
      in
      let term = Cx.mul (get m 0 j) (det_small minor) in
      acc := if j mod 2 = 0 then Cx.add !acc term else Cx.sub !acc term
    done;
    !acc
  end

let det4 m =
  if m.rows <> m.cols then invalid_arg "Mat.det4: non-square";
  if m.rows > 4 then invalid_arg "Mat.det4: larger than 4x4";
  det_small m

let apply_vec m v =
  if m.cols <> Array.length v then invalid_arg "Mat.apply_vec: dimension mismatch";
  Array.init m.rows (fun i ->
      let acc = ref Cx.zero in
      for j = 0 to m.cols - 1 do
        acc := Cx.add !acc (Cx.mul (get m i j) v.(j))
      done;
      !acc)

let frobenius_norm m =
  sqrt (Array.fold_left (fun acc z -> acc +. Cx.norm2 z) 0.0 m.data)

let max_abs_diff a b =
  same_dims a b;
  let worst = ref 0.0 in
  Array.iteri
    (fun idx z -> worst := Float.max !worst (Cx.norm (Cx.sub z b.data.(idx))))
    a.data;
  !worst

let approx_equal ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols && max_abs_diff a b <= tol

let equal_up_to_global_phase ?(tol = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  (* Find the largest entry of [b] and use it to estimate the phase. *)
  let best = ref 0.0 and best_idx = ref (-1) in
  Array.iteri
    (fun idx z ->
      let n = Cx.norm z in
      if n > !best then begin
        best := n;
        best_idx := idx
      end)
    b.data;
  if !best_idx < 0 || !best < tol then max_abs_diff a b <= tol
  else begin
    let phase = Cx.div a.data.(!best_idx) b.data.(!best_idx) in
    if Float.abs (Cx.norm phase -. 1.0) > Float.max 1e-6 tol then false
    else
      let phase = Cx.scale (1.0 /. Cx.norm phase) phase in
      max_abs_diff a (scale phase b) <= tol
  end

let is_unitary ?(tol = 1e-9) m =
  m.rows = m.cols && approx_equal ~tol (mul (adjoint m) m) (identity m.rows)

let is_hermitian ?(tol = 1e-9) m =
  m.rows = m.cols && approx_equal ~tol m (adjoint m)

let is_real ?(tol = 1e-9) m =
  Array.for_all (fun z -> Float.abs z.Cx.im <= tol) m.data

let is_diagonal ?(tol = 1e-9) m =
  let ok = ref true in
  for i = 0 to m.rows - 1 do
    for j = 0 to m.cols - 1 do
      if i <> j && Cx.norm (get m i j) > tol then ok := false
    done
  done;
  !ok

let map f m = { m with data = Array.map f m.data }

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@[<h>[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt ", ";
      Cx.pp fmt (get m i j)
    done;
    Format.fprintf fmt "]@]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
