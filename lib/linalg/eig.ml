let dim a =
  let len = Array.length a in
  let n = int_of_float (Float.sqrt (float_of_int len)) in
  if n * n <> len || n = 0 then invalid_arg "Eig: not a square matrix";
  n

let mat_mul a b =
  let n = dim a in
  if Array.length b <> n * n then invalid_arg "Eig.mat_mul: dimension mismatch";
  let c = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for k = 0 to n - 1 do
        acc := !acc +. (a.((i * n) + k) *. b.((k * n) + j))
      done;
      c.((i * n) + j) <- !acc
    done
  done;
  c

let mat_transpose a =
  let n = dim a in
  let t = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      t.((i * n) + j) <- a.((j * n) + i)
    done
  done;
  t

let off_diag_norm n a =
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then acc := !acc +. (a.((i * n) + j) *. a.((i * n) + j))
    done
  done;
  sqrt !acc

(* One Jacobi rotation eliminating a(p,q); updates [a] and accumulates
   the rotation into [v] (as columns). *)
let rotate n a v p q =
  let apq = a.((p * n) + q) in
  if Float.abs apq > 1e-300 then begin
    let theta = (a.((q * n) + q) -. a.((p * n) + p)) /. (2.0 *. apq) in
    let t =
      let sign = if theta >= 0.0 then 1.0 else -1.0 in
      sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
    in
    let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
    let s = t *. c in
    for k = 0 to n - 1 do
      let akp = a.((k * n) + p) and akq = a.((k * n) + q) in
      a.((k * n) + p) <- (c *. akp) -. (s *. akq);
      a.((k * n) + q) <- (s *. akp) +. (c *. akq)
    done;
    for k = 0 to n - 1 do
      let apk = a.((p * n) + k) and aqk = a.((q * n) + k) in
      a.((p * n) + k) <- (c *. apk) -. (s *. aqk);
      a.((q * n) + k) <- (s *. apk) +. (c *. aqk)
    done;
    for k = 0 to n - 1 do
      let vkp = v.((k * n) + p) and vkq = v.((k * n) + q) in
      v.((k * n) + p) <- (c *. vkp) -. (s *. vkq);
      v.((k * n) + q) <- (s *. vkp) +. (c *. vkq)
    done
  end

let jacobi a0 =
  let n = dim a0 in
  let a = Array.copy a0 in
  let v = Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    v.((i * n) + i) <- 1.0
  done;
  let sweeps = ref 0 in
  while off_diag_norm n a > 1e-13 && !sweeps < 100 do
    incr sweeps;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        rotate n a v p q
      done
    done
  done;
  (Array.init n (fun i -> a.((i * n) + i)), v)

let is_diagonal ?(tol = 1e-8) a =
  let n = dim a in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Float.abs a.((i * n) + j) > tol then ok := false
    done
  done;
  !ok

let det a0 =
  let n = dim a0 in
  let a = Array.copy a0 in
  let d = ref 1.0 in
  (try
     for k = 0 to n - 1 do
       (* partial pivoting *)
       let pivot = ref k in
       for i = k + 1 to n - 1 do
         if Float.abs a.((i * n) + k) > Float.abs a.((!pivot * n) + k) then pivot := i
       done;
       if !pivot <> k then begin
         for j = 0 to n - 1 do
           let tmp = a.((k * n) + j) in
           a.((k * n) + j) <- a.((!pivot * n) + j);
           a.((!pivot * n) + j) <- tmp
         done;
         d := -. !d
       end;
       let akk = a.((k * n) + k) in
       if Float.abs akk < 1e-300 then begin
         d := 0.0;
         raise Exit
       end;
       d := !d *. akk;
       for i = k + 1 to n - 1 do
         let f = a.((i * n) + k) /. akk in
         for j = k to n - 1 do
           a.((i * n) + j) <- a.((i * n) + j) -. (f *. a.((k * n) + j))
         done
       done
     done
   with Exit -> ());
  !d

(* Max |(ab − ba)(i,j)| < 1e-6, each product entry accumulated as
   [mat_mul] does; a NaN entry fails the test. *)
let commute n a b =
  let worst = ref 0.0 and nan = ref false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let ab = ref 0.0 and ba = ref 0.0 in
      for k = 0 to n - 1 do
        ab := !ab +. (a.((i * n) + k) *. b.((k * n) + j));
        ba := !ba +. (b.((i * n) + k) *. a.((k * n) + j))
      done;
      let d = Float.abs (!ab -. !ba) in
      if d <> d then nan := true else if d > !worst then worst := d
    done
  done;
  (not !nan) && !worst < 1e-6

(* Cluster sorted index list of eigenvalues into groups of nearly-equal
   values. Returns groups as index lists (indices into the eigenvalue
   array). *)
let cluster eigenvalues =
  let n = Array.length eigenvalues in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare eigenvalues.(i) eigenvalues.(j)) order;
  let groups = ref [] and current = ref [ order.(0) ] in
  for k = 1 to n - 1 do
    let prev = eigenvalues.(order.(k - 1)) and here = eigenvalues.(order.(k)) in
    if Float.abs (here -. prev) < 1e-7 then current := order.(k) :: !current
    else begin
      groups := List.rev !current :: !groups;
      current := [ order.(k) ]
    end
  done;
  groups := List.rev !current :: !groups;
  List.rev !groups

(* [is_diagonal ~tol:1e-6 (pᵀ·(m·p))] without forming pᵀ: entry (i, j)
   of the product accumulates p(k,i)·(m·p)(k,j) over k, as [mat_mul]
   does. *)
let diagonalizes n p m =
  let mp = mat_mul m p in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (p.((k * n) + i) *. mp.((k * n) + j))
        done;
        if Float.abs !acc > 1e-6 then ok := false
      end
    done
  done;
  !ok

let simultaneous_diagonalize a b =
  let n = dim a in
  if Array.length b <> n * n then
    invalid_arg "Eig.simultaneous_diagonalize: dimension mismatch";
  if not (commute n a b) then
    invalid_arg "Eig.simultaneous_diagonalize: matrices do not commute";
  let eigenvalues, v = jacobi a in
  (* b in the eigenbasis of a: block-diagonal over eigenvalue clusters.
     Only a cluster of two or more eigenvalues reads it. *)
  let b_rot = lazy (mat_mul (mat_transpose v) (mat_mul b v)) in
  let p = Array.copy v in
  let refine group =
    match group with
    | [] | [ _ ] -> ()
    | indices ->
      let b_rot = Lazy.force b_rot in
      let idx = Array.of_list indices in
      let k = Array.length idx in
      let sub = Array.make (k * k) 0.0 in
      for i = 0 to k - 1 do
        for j = 0 to k - 1 do
          sub.((i * k) + j) <- b_rot.((idx.(i) * n) + idx.(j))
        done
      done;
      let _, w = jacobi sub in
      (* p's columns within the cluster become combinations via w; every
         column is read from [v], so writing [p] in place is safe. *)
      for r = 0 to n - 1 do
        for c = 0 to k - 1 do
          let acc = ref 0.0 in
          for m = 0 to k - 1 do
            acc := !acc +. (v.((r * n) + idx.(m)) *. w.((m * k) + c))
          done;
          p.((r * n) + idx.(c)) <- !acc
        done
      done
  in
  List.iter refine (cluster eigenvalues);
  if not (diagonalizes n p a && diagonalizes n p b) then
    invalid_arg "Eig.simultaneous_diagonalize: refinement failed";
  p
